//! Set-up: train the model, write the IBCD bundle, load it back as the
//! server does and, for HTTP workloads, start the server. Repeated
//! [`Profile::setup_reps`] times; `setup_s` is the median.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ibcm_core::{MisuseDetector, Pipeline};
use ibcm_logsim::Generator;
use ibcm_obs::Stopwatch;

use crate::net::{Server, ServerKind};
use crate::stats::median;
use crate::{BenchError, Profile, MODEL_SEED};

/// The training stages reported per layer, as
/// `TrainedPipeline::stage_timings` names them.
const STAGES: [&str; 3] = ["lda_ensemble", "expert_clustering", "cluster_models"];

/// What set-up leaves for the timed phase.
pub struct Setup {
    /// The served detector, decoded from the bundle.
    pub detector: Arc<MisuseDetector>,
    /// The bundle on disk.
    pub bundle: PathBuf,
    /// Bundle size in bytes.
    pub bundle_bytes: usize,
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Median seconds of `Pipeline::train`.
    pub train_s: f64,
    /// Median seconds of each training stage, in [`STAGES`] order.
    pub stage_s: [f64; 3],
    /// The ready server, when the workload needs one.
    pub server: Option<Server>,
}

/// Runs set-up `profile.setup_reps` times in `work_dir`, keeping the last
/// repetition's detector and server (earlier servers are stopped).
pub fn set_up(
    profile: &Profile,
    work_dir: &Path,
    server: Option<&ServerKind>,
) -> Result<Setup, BenchError> {
    let bundle = work_dir.join("model.ibcd");
    let mut setup_s = Vec::new();
    let mut train_s = Vec::new();
    let mut stage_s: [Vec<f64>; 3] = Default::default();
    let mut last = None;
    for rep in 0..profile.setup_reps.max(1) {
        if let Some((_, _, Some(running))) = last.take() {
            Server::stop(running)?;
        }
        let clock = Stopwatch::start();
        let dataset = Generator::new((profile.generator)(MODEL_SEED)).generate();
        let train_clock = Stopwatch::start();
        let trained = Pipeline::new((profile.pipeline)(MODEL_SEED)).train(&dataset)?;
        train_s.push(train_clock.elapsed_seconds());
        for (name, seconds) in trained.stage_timings() {
            if let Some(i) = STAGES.iter().position(|s| s == name) {
                stage_s[i].push(*seconds);
            }
        }
        std::fs::write(&bundle, trained.detector().to_bytes())?;
        drop(trained);
        let bytes = std::fs::read(&bundle)?;
        let detector = Arc::new(MisuseDetector::from_bytes(&bytes)?);
        let running = match server {
            Some(kind) => Some(Server::start(kind, &bundle, &detector)?),
            None => None,
        };
        setup_s.push(clock.elapsed_seconds());
        eprintln!(
            "[ibcm-benchmark] set-up {}/{}: {:.3} s",
            rep + 1,
            profile.setup_reps.max(1),
            setup_s[rep]
        );
        last = Some((detector, bytes.len(), running));
    }
    let (detector, bundle_bytes, server) =
        last.ok_or_else(|| BenchError::Io("no set-up ran".into()))?;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    Ok(Setup {
        detector,
        bundle,
        bundle_bytes,
        setup_s: med(&setup_s),
        train_s: med(&train_s),
        stage_s: [med(&stage_s[0]), med(&stage_s[1]), med(&stage_s[2])],
        server,
    })
}
