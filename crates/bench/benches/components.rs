//! Criterion microbenchmarks for every substrate the pipeline is built on:
//! LSTM forward/backward/step, LDA Gibbs sweeps, OC-SVM training and
//! decisions, t-SNE, the session generator, routing, streaming scoring, and
//! pattern mining. These quantify the cost model behind the figure
//! reproduction binaries (which measure *quality*, not speed).
#![allow(clippy::needless_range_loop)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use ibcm_lm::{LmTrainConfig, LstmLm, NgramConfig, NgramLm};
use ibcm_logsim::{ActionId, Generator, GeneratorConfig};
use ibcm_nn::{BatchScratch, LstmBatchState, LstmLayer, Matrix, StepInput};
use ibcm_ocsvm::{ClusterRouter, OcSvm, OcSvmConfig, SessionFeaturizer};
use ibcm_patterns::PrefixSpan;
use ibcm_topics::{Lda, LdaConfig};
use ibcm_viz::{tsne_embed, TsneConfig};

fn bench_matrix(c: &mut Criterion) {
    let a = Matrix::uniform(64, 256, 1.0, 1);
    let b = Matrix::uniform(256, 300, 1.0, 2);
    c.bench_function("matrix/matmul_64x256x300", |bencher| {
        bencher.iter(|| std::hint::black_box(a.matmul(&b)))
    });
}

fn bench_lstm(c: &mut Criterion) {
    let lstm = LstmLayer::new(300, 64, 1);
    let inputs: Vec<Vec<StepInput>> = (0..20)
        .map(|t| {
            (0..32)
                .map(|b| StepInput::Action((t * 7 + b) % 300))
                .collect()
        })
        .collect();
    c.bench_function("lstm/forward_b32_t20_h64_v300", |bencher| {
        bencher.iter(|| std::hint::black_box(lstm.forward(&inputs)))
    });
    let cache = lstm.forward(&inputs);
    let d_h: Vec<Matrix> = (0..20).map(|_| Matrix::uniform(32, 64, 0.1, 3)).collect();
    c.bench_function("lstm/backward_b32_t20_h64_v300", |bencher| {
        bencher.iter(|| std::hint::black_box(lstm.backward(&cache, &d_h)))
    });
    // The streaming scorer's step: one lane, through a reused workspace.
    let mut scratch = BatchScratch::new();
    c.bench_function("lstm/online_step_h64_v300", |bencher| {
        bencher.iter_batched(
            || LstmBatchState::new(1, 64),
            |mut state| {
                lstm.step_batch_scratch(&mut state, &[StepInput::Action(17)], &mut scratch);
                std::hint::black_box(state)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_lda(c: &mut Criterion) {
    let docs: Vec<Vec<usize>> = (0..200)
        .map(|i| (0..15).map(|j| (i * 3 + j * 7) % 100).collect())
        .collect();
    let cfg = LdaConfig {
        n_topics: 13,
        vocab: 100,
        iterations: 10,
        seed: 1,
        ..LdaConfig::default()
    };
    c.bench_function("lda/gibbs_200docs_13topics_10sweeps", |bencher| {
        bencher.iter(|| std::hint::black_box(Lda::new(cfg).fit(&docs).unwrap()))
    });
}

fn bench_ocsvm(c: &mut Criterion) {
    let data: Vec<Vec<f64>> = (0..150)
        .map(|i| (0..50).map(|j| ((i * j) % 17) as f64 / 17.0).collect())
        .collect();
    let cfg = OcSvmConfig {
        max_sweeps: 20,
        ..OcSvmConfig::default()
    };
    c.bench_function("ocsvm/train_150x50", |bencher| {
        bencher.iter(|| std::hint::black_box(OcSvm::train(&data, &cfg).unwrap()))
    });
    let svm = OcSvm::train(&data, &cfg).unwrap();
    let probe: Vec<f64> = (0..50).map(|j| (j % 13) as f64 / 13.0).collect();
    c.bench_function("ocsvm/decision_150sv", |bencher| {
        bencher.iter(|| std::hint::black_box(svm.decision(&probe)))
    });
}

fn bench_router(c: &mut Criterion) {
    let featurizer = SessionFeaturizer::new(300, true);
    let cfg = OcSvmConfig {
        max_sweeps: 10,
        ..OcSvmConfig::default()
    };
    let svms: Vec<OcSvm> = (0..13)
        .map(|k| {
            let data: Vec<Vec<f64>> = (0..40)
                .map(|i| {
                    let actions: Vec<ActionId> = (0..12)
                        .map(|j| ActionId((k * 20 + (i + j) % 10) % 300))
                        .collect();
                    featurizer.features(&actions)
                })
                .collect();
            OcSvm::train(&data, &cfg).unwrap()
        })
        .collect();
    let router = ClusterRouter::new(svms, featurizer);
    let session: Vec<ActionId> = (0..15).map(|j| ActionId(j % 300)).collect();
    c.bench_function("router/route_13clusters_len15", |bencher| {
        bencher.iter(|| std::hint::black_box(router.route(&session)))
    });
    // The voted cluster only: the vote scores prefixes until its winner is
    // settled, not always all 15.
    c.bench_function("router/lock_in_15_13clusters", |bencher| {
        bencher.iter(|| std::hint::black_box(router.route_with_lock_in(&session, 15).index()))
    });
}

fn bench_scorer(c: &mut Criterion) {
    let seqs: Vec<Vec<usize>> = (0..16)
        .map(|i| (0..14).map(|j| (i + j) % 50).collect())
        .collect();
    let lm = LstmLm::train(
        &LmTrainConfig {
            vocab: 50,
            hidden: 64,
            epochs: 2,
            patience: 0,
            ..LmTrainConfig::default()
        },
        &seqs,
        &[],
    )
    .unwrap();
    let session: Vec<usize> = (0..15).map(|j| j % 50).collect();
    c.bench_function("lm/score_session_len15_h64", |bencher| {
        bencher.iter(|| std::hint::black_box(lm.score_session(&session)))
    });
}

fn bench_ngram(c: &mut Criterion) {
    let seqs: Vec<Vec<usize>> = (0..200)
        .map(|i| (0..15).map(|j| (i + j) % 80).collect())
        .collect();
    c.bench_function("ngram/train_200seqs", |bencher| {
        bencher.iter(|| {
            std::hint::black_box(
                NgramLm::train(
                    &NgramConfig {
                        vocab: 80,
                        ..NgramConfig::default()
                    },
                    &seqs,
                )
                .unwrap(),
            )
        })
    });
}

fn bench_tsne(c: &mut Criterion) {
    let n = 40;
    let mut d = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in 0..n {
            if i != j {
                d[i][j] = (((i * 31 + j * 17) % 100) as f64 / 100.0) + 0.1;
            }
        }
    }
    let cfg = TsneConfig {
        iterations: 100,
        ..TsneConfig::default()
    };
    c.bench_function("tsne/40points_100iters", |bencher| {
        bencher.iter(|| std::hint::black_box(tsne_embed(&d, &cfg)))
    });
}

fn bench_generator(c: &mut Criterion) {
    c.bench_function("logsim/generate_400_sessions", |bencher| {
        bencher.iter(|| std::hint::black_box(Generator::new(GeneratorConfig::tiny(1)).generate()))
    });
}

fn bench_detector(c: &mut Criterion) {
    use ibcm_core::{AlarmPolicy, MisuseDetector};
    use ibcm_ocsvm::ClusterRouter;
    let vocab = 50;
    let featurizer = SessionFeaturizer::new(vocab, true);
    let cfg = OcSvmConfig {
        max_sweeps: 10,
        ..OcSvmConfig::default()
    };
    let lm_cfg = LmTrainConfig {
        vocab,
        hidden: 32,
        epochs: 2,
        patience: 0,
        ..LmTrainConfig::default()
    };
    let mut svms = Vec::new();
    let mut models = Vec::new();
    for k in 0..4 {
        let seqs: Vec<Vec<usize>> = (0..20)
            .map(|i| (0..12).map(|j| (k * 10 + (i + j) % 8) % vocab).collect())
            .collect();
        let feats: Vec<Vec<f64>> = seqs
            .iter()
            .map(|s| {
                let acts: Vec<ActionId> = s.iter().map(|&t| ActionId(t)).collect();
                featurizer.features(&acts)
            })
            .collect();
        svms.push(OcSvm::train(&feats, &cfg).unwrap());
        models.push(LstmLm::train(&lm_cfg, &seqs, &[]).unwrap());
    }
    let detector = MisuseDetector::new(ClusterRouter::new(svms, featurizer), models, 15);
    let session: Vec<ActionId> = (0..15).map(|j| ActionId(j % vocab)).collect();
    c.bench_function("detector/score_session_4clusters_len15", |bencher| {
        bencher.iter(|| std::hint::black_box(detector.score_session(&session)))
    });
    c.bench_function("detector/score_weighted_4clusters_len15", |bencher| {
        bencher.iter(|| std::hint::black_box(detector.score_session_weighted(&session, 0.1)))
    });
    c.bench_function("monitor/feed_15_actions_4clusters", |bencher| {
        bencher.iter(|| {
            let mut m = detector.monitor(AlarmPolicy::default());
            for &a in &session {
                std::hint::black_box(m.feed(a));
            }
        })
    });
}

fn bench_patterns(c: &mut Criterion) {
    let seqs: Vec<Vec<usize>> = (0..100)
        .map(|i| (0..12).map(|j| (i + j) % 20).collect())
        .collect();
    c.bench_function("patterns/prefixspan_100seqs", |bencher| {
        bencher.iter(|| std::hint::black_box(PrefixSpan::new(10, 3).mine(&seqs)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_matrix, bench_lstm, bench_lda, bench_ocsvm, bench_router,
              bench_scorer, bench_ngram, bench_tsne, bench_generator, bench_patterns,
              bench_detector
}
criterion_main!(benches);
