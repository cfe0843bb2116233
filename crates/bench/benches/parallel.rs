//! Criterion benches for the threading model: the same per-cluster training
//! and batch-scoring workloads at 1 worker vs. the machine's default worker
//! count. On a multi-core host the N-thread rows should be a near-linear
//! fraction of the 1-thread rows; on a single core they coincide (the pool
//! runs jobs inline at 1 effective worker). Outputs are bit-identical
//! either way — see DESIGN.md, "Parallelism & determinism".

use criterion::{criterion_group, criterion_main, Criterion};
use ibcm_core::{Pipeline, PipelineConfig};
use ibcm_lm::LmTrainConfig;
use ibcm_logsim::{ActionId, Generator, GeneratorConfig, Session};

/// A deliberately small training profile so ten samples stay tractable:
/// the point is the 1-vs-N ratio, not absolute quality.
fn mini_config(seed: u64, parallelism: usize) -> PipelineConfig {
    PipelineConfig {
        parallelism,
        lm: LmTrainConfig {
            hidden: 8,
            epochs: 2,
            patience: 0,
            ..PipelineConfig::test_profile(seed).lm
        },
        ..PipelineConfig::test_profile(seed)
    }
}

/// Sessions grouped by the generator's ground-truth archetype — a stand-in
/// for the expert clustering that avoids benching LDA + t-SNE here.
fn archetype_groups(dataset: &ibcm_logsim::Dataset) -> Vec<Vec<Session>> {
    let k = dataset
        .sessions()
        .iter()
        .filter_map(|s| s.archetype().map(|a| a.index()))
        .max()
        .map_or(0, |m| m + 1);
    let mut groups = vec![Vec::new(); k];
    for s in dataset.sessions() {
        if let Some(a) = s.archetype() {
            groups[a.index()].push(s.clone());
        }
    }
    groups
}

fn bench_parallel_training(c: &mut Criterion) {
    let dataset = Generator::new(GeneratorConfig::tiny(19)).generate();
    let groups = archetype_groups(&dataset);
    let n = ibcm_core::par::default_threads();
    for threads in [1, n] {
        let pipeline = Pipeline::new(mini_config(19, threads));
        let groups = groups.clone();
        c.bench_function(&format!("train_clustered/threads_{threads}"), |b| {
            b.iter(|| {
                std::hint::black_box(pipeline.train_clustered(&dataset, groups.clone()).unwrap())
            })
        });
        if n == 1 {
            break; // single-core host: the two rows would be the same bench
        }
    }
}

fn bench_parallel_scoring(c: &mut Criterion) {
    let dataset = Generator::new(GeneratorConfig::tiny(19)).generate();
    let groups = archetype_groups(&dataset);
    let pipeline = Pipeline::new(mini_config(19, 1));
    let (detector, _) = pipeline.train_clustered(&dataset, groups).unwrap();
    let sessions: Vec<Vec<ActionId>> = dataset
        .sessions()
        .iter()
        .map(|s| s.actions().to_vec())
        .collect();
    let n = ibcm_core::par::default_threads();
    for threads in [1, n] {
        c.bench_function(&format!("score_sessions/threads_{threads}"), |b| {
            b.iter(|| std::hint::black_box(detector.score_sessions(&sessions, threads)))
        });
        if n == 1 {
            break;
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_training, bench_parallel_scoring
}
criterion_main!(benches);
