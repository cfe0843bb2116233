//! `ibcm-bench` — the reproduction harness.
//!
//! [`figures`] holds one writer per reproduced output in `results/`: it
//! takes the run's shared inputs (dataset, trained pipeline, global
//! baselines), owns the figure's parameters and writes its files. Each
//! per-figure binary in `src/bin/` builds those inputs and calls its
//! writer; `repro_all` trains the pipeline once, calls every writer and
//! adds `results/summary.md`.
//!
//! Scale selection: the `IBCM_SCALE` environment variable picks between
//! `test` (seconds), `default` (minutes, the reproduction default) and
//! `paper` (the paper's full counts — slow on one core). `IBCM_SEED`
//! overrides the master seed (default 42). Any other value of either
//! variable is an [`EnvError`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

use std::path::{Path, PathBuf};

use ibcm_core::experiments::{self, GlobalBaselines};
use ibcm_core::{Pipeline, PipelineConfig, TrainedPipeline};
use ibcm_logsim::{Dataset, Generator, GeneratorConfig};

/// Experiment scale profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds on one core; small corpus, 4 clusters.
    Test,
    /// Minutes on one core; 4 000 sessions, 11 clusters at seed 42 (the
    /// default).
    Default,
    /// The paper's counts: 15 000 sessions, 256-unit LSTMs, window 100.
    Paper,
}

/// A set environment variable whose value the harness does not accept. The
/// message names the variable, the value and the values it accepts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError(pub String);

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EnvError {}

const SCALE_VALUES: &str = "test, default or paper";
const SEED_VALUES: &str = "an unsigned 64-bit integer";

fn rejected(var: &str, value: &str, accepted: &str) -> EnvError {
    EnvError(format!("{var}=`{value}` is not accepted; use {accepted}"))
}

/// `var`'s value, `None` when unset; a value that is not Unicode is rejected.
fn env_value(var: &str, accepted: &str) -> Result<Option<String>, EnvError> {
    std::env::var_os(var)
        .map(|v| {
            v.into_string()
                .map_err(|raw| rejected(var, &raw.to_string_lossy(), accepted))
        })
        .transpose()
}

impl Scale {
    /// Parses an `IBCM_SCALE` value: unset is [`Scale::Default`]; `test`,
    /// `default` and `paper` name a scale.
    ///
    /// # Errors
    ///
    /// Any other value, which names the variable and the accepted values.
    pub fn parse(value: Option<&str>) -> Result<Scale, EnvError> {
        match value {
            None | Some("default") => Ok(Scale::Default),
            Some("test") => Ok(Scale::Test),
            Some("paper") => Ok(Scale::Paper),
            Some(other) => Err(rejected("IBCM_SCALE", other, SCALE_VALUES)),
        }
    }

    /// Reads `IBCM_SCALE` through [`Scale::parse`].
    ///
    /// # Errors
    ///
    /// A value [`Scale::parse`] rejects, or one that is not Unicode.
    pub fn from_env() -> Result<Scale, EnvError> {
        Scale::parse(env_value("IBCM_SCALE", SCALE_VALUES)?.as_deref())
    }

    /// The generator configuration at this scale.
    pub fn generator_config(self, seed: u64) -> GeneratorConfig {
        match self {
            Scale::Test => GeneratorConfig::tiny(seed),
            Scale::Default => GeneratorConfig::default_scale(seed),
            Scale::Paper => GeneratorConfig::paper_scale(seed),
        }
    }

    /// The pipeline configuration at this scale.
    pub fn pipeline_config(self, seed: u64) -> PipelineConfig {
        match self {
            Scale::Test => PipelineConfig::test_profile(seed),
            Scale::Default => PipelineConfig::default_profile(seed),
            Scale::Paper => PipelineConfig::paper_profile(seed),
        }
    }

    /// Short label for logs.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }
}

/// Parses an `IBCM_SEED` value: unset is 42, otherwise any `u64`.
///
/// # Errors
///
/// A value that is not a `u64`, which names the variable and the accepted
/// values.
pub fn parse_seed(value: Option<&str>) -> Result<u64, EnvError> {
    match value {
        None => Ok(42),
        Some(raw) => raw
            .parse()
            .map_err(|_| rejected("IBCM_SEED", raw, SEED_VALUES)),
    }
}

/// Reads `IBCM_SEED` through [`parse_seed`].
///
/// # Errors
///
/// A value [`parse_seed`] rejects, or one that is not Unicode.
pub fn seed_from_env() -> Result<u64, EnvError> {
    parse_seed(env_value("IBCM_SEED", SEED_VALUES)?.as_deref())
}

/// Common context for one experiment run.
#[derive(Debug)]
pub struct Harness {
    /// Scale in use.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for the parallel stages (`IBCM_THREADS`, defaulting
    /// to the available cores). Results are identical at any value; see
    /// DESIGN.md, "Parallelism & determinism".
    pub threads: usize,
    results_dir: PathBuf,
}

impl Harness {
    /// Builds a harness from the environment and ensures `results/` exists.
    ///
    /// # Errors
    ///
    /// An [`EnvError`] for `IBCM_SCALE` or `IBCM_SEED`, or the failure to
    /// create the results directory.
    pub fn from_env() -> Result<Self, Box<dyn std::error::Error>> {
        let scale = Scale::from_env()?;
        let seed = seed_from_env()?;
        let threads = ibcm_core::par::default_threads();
        let results_dir = std::env::var("IBCM_RESULTS")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("results"));
        std::fs::create_dir_all(&results_dir)?;
        eprintln!(
            "[ibcm] scale={} seed={seed} threads={threads}",
            scale.label()
        );
        Ok(Harness {
            scale,
            seed,
            threads,
            results_dir,
        })
    }

    /// The results directory.
    pub fn results_dir(&self) -> &Path {
        &self.results_dir
    }

    /// Generates the dataset for this run.
    pub fn dataset(&self) -> Dataset {
        let t0 = std::time::Instant::now();
        let ds = Generator::new(self.scale.generator_config(self.seed)).generate();
        let stats = ds.stats();
        eprintln!(
            "[ibcm] dataset: {} sessions, {} users, {} actions seen ({:.1}s)",
            stats.sessions,
            stats.users,
            stats.distinct_actions,
            t0.elapsed().as_secs_f32()
        );
        ds
    }

    /// Trains the full pipeline on a dataset.
    ///
    /// # Errors
    ///
    /// Propagates pipeline failures.
    pub fn train(&self, dataset: &Dataset) -> Result<TrainedPipeline, ibcm_core::CoreError> {
        let t0 = std::time::Instant::now();
        let trained = Pipeline::new(self.scale.pipeline_config(self.seed)).train(dataset)?;
        eprintln!(
            "[ibcm] trained {} clusters in {:.1}s (purity {:.3})",
            trained.detector().n_clusters(),
            t0.elapsed().as_secs_f32(),
            experiments::clustering_purity(&trained)
        );
        Ok(trained)
    }

    /// Trains the global baselines of Figs. 5, 10, 11 and 12 with the
    /// pipeline's language-model template.
    ///
    /// # Errors
    ///
    /// Propagates language-model training failures.
    pub fn global_baselines(
        &self,
        trained: &TrainedPipeline,
    ) -> Result<GlobalBaselines, ibcm_core::CoreError> {
        let lm = self.scale.pipeline_config(self.seed).lm;
        experiments::train_global_baselines(trained, &lm, self.seed)
    }

    /// Writes `<name>.csv` into the results directory and echoes the row
    /// count. `header` is the CSV's first line: column names joined by
    /// commas.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(
        &self,
        name: &str,
        header: &str,
        rows: Vec<Vec<String>>,
    ) -> std::io::Result<()> {
        let path = self.results_dir.join(format!("{name}.csv"));
        let n = rows.len();
        let columns: Vec<&str> = header.split(',').collect();
        ibcm_viz::write_csv(&path, &columns, rows)?;
        eprintln!("[ibcm] wrote {} ({n} rows)", path.display());
        Ok(())
    }

    /// Writes a file into the results directory and echoes its name.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_file(&self, name: &str, contents: &str) -> std::io::Result<()> {
        let path = self.results_dir.join(name);
        std::fs::write(&path, contents)?;
        eprintln!("[ibcm] wrote {}", path.display());
        Ok(())
    }
}

/// Formats an `f32`/`f64` with fixed precision for CSV cells.
pub fn fmt(v: f64) -> String {
    format!("{v:.6}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_labels() {
        assert_eq!(Scale::Test.label(), "test");
        assert_eq!(Scale::Default.label(), "default");
        assert_eq!(Scale::Paper.label(), "paper");
    }

    #[test]
    fn scale_configs_are_consistent() {
        for s in [Scale::Test, Scale::Default, Scale::Paper] {
            assert!(s.generator_config(1).validate().is_ok());
            assert!(s.pipeline_config(1).validate().is_ok());
        }
    }

    #[test]
    fn env_values_parse_unset_scale_labels_and_any_u64() {
        assert_eq!(Scale::parse(None), Ok(Scale::Default));
        for s in [Scale::Test, Scale::Default, Scale::Paper] {
            assert_eq!(Scale::parse(Some(s.label())), Ok(s));
        }
        assert_eq!(parse_seed(None), Ok(42));
        for seed in [0, 7, 42, u64::MAX] {
            assert_eq!(parse_seed(Some(&seed.to_string())), Ok(seed));
        }
    }

    #[test]
    fn env_values_reject_everything_else_by_name() {
        for bad in ["tests", "Test", "PAPER", " test", "", "1"] {
            let msg = Scale::parse(Some(bad)).unwrap_err().to_string();
            assert!(
                msg.contains("IBCM_SCALE") && msg.contains(SCALE_VALUES),
                "{msg}"
            );
        }
        for bad in ["", "forty-two", "-1", "4.2", " 42", "18446744073709551616"] {
            let msg = parse_seed(Some(bad)).unwrap_err().to_string();
            assert!(
                msg.contains("IBCM_SEED") && msg.contains(SEED_VALUES),
                "{msg}"
            );
        }
    }

    #[test]
    fn fmt_is_fixed_precision() {
        assert_eq!(fmt(0.5), "0.500000");
    }
}
