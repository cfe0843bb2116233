//! The traced run's per-layer measurements.
//!
//! Every layer is probed on the workload's own leading events (the
//! verification prefix), the same way on every workload, so each
//! per-layer metric exists on each workload: a single-threaded
//! `StreamMonitor` replay (core, persist), the router and LSTM calls the
//! monitor makes (ocsvm, lm), one in-process daemon pass (served), and one
//! keep-alive loopback pass through a fresh server (http).

use std::time::Duration;

use ibcm_core::{AlarmPolicy, SessionEvent};
use ibcm_http::service::parse_events;
use ibcm_logsim::ActionId;
use ibcm_obs::{names, Stopwatch};

use crate::net::{scrape, Conn, Server};
use crate::replay::{replay, Replay};
use crate::setup::Setup;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::traffic::{ndjson, positions, repeat_stream, sessions_of};
use crate::workloads::{admitted, daemon_pass, score_body, wait_ingested, RunSpec};
use crate::{BenchError, Context, Metric};

/// Mean of `values` in microseconds, with its sample count.
fn mean_us(name: &'static str, values: &[f64]) -> Metric {
    Metric {
        name,
        value: mean(values).unwrap_or(f64::NAN) * 1e6,
        unit: "us",
        samples: values.len(),
    }
}

/// Every per-layer metric of a traced run, and the traffic and model
/// properties they should be read against (run-file context).
pub fn per_layer(
    spec: &RunSpec,
    setup: &Setup,
    events: &[SessionEvent],
    replayed: Option<Replay>,
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<(Vec<Metric>, Context), BenchError> {
    let detector = &setup.detector;
    let lock_in = detector.lock_in();
    let replayed = match replayed {
        Some(r) => r,
        None => replay(detector, events)?,
    };
    let pos = positions(events);
    let sessions = sessions_of(events);
    let probed: Vec<&Vec<ActionId>> = sessions
        .iter()
        .filter(|s| !s.is_empty())
        .take(spec.profile.probe_sessions)
        .collect();
    let n = events.len().max(1) as f64;
    let postlock = pos.iter().filter(|&&p| p > lock_in).count();
    let session_lens: Vec<f64> = sessions.iter().map(|s| s.len() as f64).collect();
    let mut extra = vec![
        ("traffic.events", events.len() as f64),
        ("traffic.postlock_frac", postlock as f64 / n),
        ("traffic.live_sessions_mean", replayed.live_mean),
        (
            "traffic.session_len_mean",
            mean(&session_lens).unwrap_or(0.0),
        ),
        ("setup.clusters", detector.n_clusters() as f64),
        (
            "core.alarms_per_kevent",
            replayed.alarms.len() as f64 * 1e3 / n,
        ),
    ];
    let mut m = vec![
        Metric::one("setup.train_s", setup.train_s, "s"),
        Metric::one("setup.lda_ensemble_s", setup.stage_s[0], "s"),
        Metric::one("setup.expert_clustering_s", setup.stage_s[1], "s"),
        Metric::one("setup.cluster_models_s", setup.stage_s[2], "s"),
        Metric::one("setup.bundle_bytes", setup.bundle_bytes as f64, "bytes"),
        mean_us("core.ingest_us_per_event", &replayed.event_s),
        Metric::one("lm.steps_per_event", replayed.lm_steps as f64 / n, "count"),
        Metric::one(
            "persist.checkpoint_bytes",
            replayed.checkpoint_bytes as f64,
            "bytes",
        ),
        Metric::one("persist.checkpoint_ms", replayed.checkpoint_s * 1e3, "ms"),
        Metric::one("persist.restore_ms", replayed.restore_s * 1e3, "ms"),
    ];

    // core: OnlineMonitor::feed before and after lock-in. Each session is
    // fed cyclically to twice the lock-in horizon, so both phases are
    // measured even on traffic whose sessions all end before lock-in.
    let (mut prelock, mut postlock_s) = (Vec::new(), Vec::new());
    for actions in &probed {
        let mut monitor = detector.monitor(AlarmPolicy::default());
        for (i, &action) in actions.iter().cycle().take(2 * lock_in).enumerate() {
            let clock = Stopwatch::start();
            let _ = monitor.feed(action);
            let s = clock.elapsed_seconds();
            if i < lock_in {
                prelock.push(s);
            } else {
                postlock_s.push(s);
            }
        }
    }
    m.push(mean_us("core.feed_prelock_us", &prelock));
    m.push(mean_us("core.feed_postlock_us", &postlock_s));

    // ocsvm: the router's per-prefix work before lock-in.
    let router = detector.router();
    let (mut scores_s, mut features_s) = (Vec::new(), Vec::new());
    for actions in &probed {
        for len in 1..=actions.len().min(lock_in) {
            let prefix = &actions[..len];
            let clock = Stopwatch::start();
            std::hint::black_box(router.scores(prefix));
            scores_s.push(clock.elapsed_seconds());
            let clock = Stopwatch::start();
            std::hint::black_box(router.featurizer().features(prefix));
            features_s.push(clock.elapsed_seconds());
        }
    }
    m.push(mean_us("ocsvm.scores_us_per_call", &scores_s));
    m.push(mean_us("ocsvm.features_us_per_call", &features_s));

    // lm: one LSTM step of the routed cluster, and whole-session scoring.
    let (mut step_s, mut session_s) = (Vec::new(), Vec::new());
    for actions in &probed {
        let clock = Stopwatch::start();
        let verdict = std::hint::black_box(detector.score_session(actions));
        session_s.push(clock.elapsed_seconds());
        let mut scorer = detector.model(verdict.cluster).scorer();
        for token in detector.encode(actions) {
            let clock = Stopwatch::start();
            let _ = std::hint::black_box(scorer.try_feed(token));
            step_s.push(clock.elapsed_seconds());
        }
    }
    m.push(mean_us("lm.step_us", &step_s));
    m.push(Metric {
        name: "lm.score_session_ms",
        value: mean(&session_s).unwrap_or(f64::NAN) * 1e3,
        unit: "ms",
        samples: session_s.len(),
    });

    // served: one closed-loop daemon pass in daemon-long's configuration,
    // over the events repeated until they overrun the shard queues.
    let load = spec.profile.daemon_long;
    let dir = spec.work_dir.join("probe-checkpoints");
    let served_events = repeat_stream(events, spec.profile.served_probe_events);
    let pass = daemon_pass(
        detector,
        &load,
        served_events,
        f64::INFINITY,
        0,
        &dir,
        &mut Tracer::new(false),
    )?;
    std::fs::remove_dir_all(&dir)?;
    let served_n = pass.events.len().max(1) as f64;
    *attempted += pass.events.len() as u64;
    *failed += pass.restarts;
    let per_sample = |x: usize| x as f64 / pass.depth_samples.max(1) as f64;
    m.extend([
        Metric {
            name: "served.ingest_call_us",
            value: pass.ingest_call_s / served_n * 1e6,
            unit: "us",
            samples: pass.events.len(),
        },
        Metric::one(
            "served.queue_full_frac",
            per_sample(pass.full_samples),
            "ratio",
        ),
        Metric::one(
            "served.queue_depth_mean",
            per_sample(pass.depth_sum),
            "count",
        ),
        Metric::one(
            "served.commands_per_batch",
            served_n / pass.worker_batches.max(1.0),
            "count",
        ),
        Metric {
            name: "served.poll_us",
            value: pass.poll_s / pass.polls.max(1) as f64 * 1e6,
            unit: "us",
            samples: pass.polls,
        },
        Metric::one("served.drain_ms", pass.drain_s * 1e3, "ms"),
        Metric::one("served.checkpoint_stalls", pass.checkpoint_stalls, "count"),
    ]);
    extra.push(("served.checkpoints", pass.checkpoints));

    let (http, events_per_request) = http_probe(spec, setup, events, &sessions, attempted, failed)?;
    m.extend(http);
    extra.push(("http.events_per_request", events_per_request));
    Ok((m, extra))
}

/// Handler seconds per request of `route` between two `/metrics` scrapes,
/// from the server's own `ibcm_http_request_seconds` histogram.
fn handler_mean_s(before: &str, after: &str, route: &str) -> f64 {
    let label = format!("route=\"{route}\"");
    let delta = |suffix: &str| {
        let name = format!("{}{suffix}", names::HTTP_REQUEST_SECONDS.name);
        scrape(after, &name, &[&label]) - scrape(before, &name, &[&label])
    };
    delta("_sum") / delta("_count").max(1.0)
}

/// The http layer: a fresh server from the set-up bundle, the events in
/// `POST /v1/events` batches on one keep-alive connection, the alarm pages,
/// and `/v1/score` calls, timed by the client and by the server's own
/// handler histogram.
fn http_probe(
    spec: &RunSpec,
    setup: &Setup,
    events: &[SessionEvent],
    sessions: &[Vec<ActionId>],
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<(Vec<Metric>, f64), BenchError> {
    let server = Server::start(spec.server, &setup.bundle, &setup.detector)?;
    let result = http_probe_on(spec, &server, events, sessions, attempted, failed);
    server.stop()?;
    result
}

fn http_probe_on(
    spec: &RunSpec,
    server: &Server,
    events: &[SessionEvent],
    sessions: &[Vec<ActionId>],
    attempted: &mut u64,
    failed: &mut u64,
) -> Result<(Vec<Metric>, f64), BenchError> {
    let batch = spec.profile.http.open_loop.max_batch;
    let clock = crate::loadgen::WallClock::start();
    let mut conn = Conn::connect(server.addr())?;
    let metrics_text = |conn: &mut Conn| -> Result<String, BenchError> {
        Ok(String::from_utf8_lossy(&conn.request("GET", "/metrics", b"")?.body).into_owned())
    };
    let before = metrics_text(&mut conn)?;
    let ingested_before = scrape(&before, names::STREAM_EVENTS.name, &[]);
    let (mut ingest, mut alarms, mut score) = (Vec::new(), Vec::new(), Vec::new());
    let mut parse_s = Vec::new();
    let mut backpressured = 0usize;
    for chunk in events.chunks(batch) {
        let mut rest = chunk;
        while !rest.is_empty() {
            let body = ndjson(rest);
            let clock = Stopwatch::start();
            let parsed = parse_events(&body, usize::MAX);
            parse_s.push(clock.elapsed_seconds() / rest.len() as f64);
            if parsed.ok().as_deref() != Some(rest) {
                return Err(BenchError::Mismatch(
                    "NDJSON body does not parse back".into(),
                ));
            }
            let reply = conn.request("POST", "/v1/events", &body)?;
            ingest.push(reply.total_s);
            *attempted += 1;
            backpressured += usize::from(reply.status == 429);
            match admitted(&reply, rest.len()) {
                Some(n) => rest = &rest[n..],
                None => {
                    *failed += 1;
                    rest = &[];
                }
            }
            if !rest.is_empty() {
                std::thread::sleep(Duration::from_secs_f64(spec.profile.http.open_loop.retry_s));
            }
        }
    }
    wait_ingested(&mut conn, ingested_before + events.len() as f64, &clock)?;
    let mut cursor = 0u64;
    loop {
        let reply = conn.request("GET", &format!("/v1/alarms?cursor={cursor}&max=1000"), b"")?;
        alarms.push(reply.total_s);
        *attempted += 1;
        let page = ibcm_http::json::parse(&reply.body).ok();
        let got = page
            .as_ref()
            .and_then(|p| p.get("alarms")?.as_array().map(<[_]>::len))
            .unwrap_or(0);
        cursor = page
            .as_ref()
            .and_then(|p| p.get("next_cursor")?.as_u64())
            .unwrap_or(cursor);
        if reply.status != 200 {
            *failed += 1;
        }
        if reply.status != 200 || got < 1000 {
            break;
        }
    }
    for actions in sessions
        .iter()
        .filter(|s| !s.is_empty())
        .take(spec.profile.probe_score_calls)
    {
        let reply = conn.request("POST", "/v1/score", &score_body(actions))?;
        score.push(reply.total_s);
        *attempted += 1;
        *failed += u64::from(reply.status != 200);
    }
    let after = metrics_text(&mut conn)?;

    let wire_wait = |rtt_s: &[f64], path: &str| {
        mean(rtt_s).unwrap_or(f64::NAN) - handler_mean_s(&before, &after, path)
    };
    let ms = |name: &'static str, seconds: f64, samples: usize| Metric {
        name,
        value: seconds * 1e3,
        unit: "ms",
        samples,
    };
    let events_per_request = events.len() as f64 / ingest.len().max(1) as f64;
    let metrics = vec![
        ms(
            "http.events.rtt_p50_ms",
            median(&ingest).unwrap_or(f64::NAN),
            ingest.len(),
        ),
        ms(
            "http.events.handler_mean_ms",
            handler_mean_s(&before, &after, "/v1/events"),
            ingest.len(),
        ),
        ms(
            "http.events.wire_wait_mean_ms",
            wire_wait(&ingest, "/v1/events"),
            ingest.len(),
        ),
        ms(
            "http.alarms.wire_wait_mean_ms",
            wire_wait(&alarms, "/v1/alarms"),
            alarms.len(),
        ),
        ms(
            "http.score.handler_mean_ms",
            handler_mean_s(&before, &after, "/v1/score"),
            score.len(),
        ),
        ms(
            "http.score.wire_wait_mean_ms",
            wire_wait(&score, "/v1/score"),
            score.len(),
        ),
        Metric::one(
            "http.backpressure_frac",
            backpressured as f64 / ingest.len().max(1) as f64,
            "ratio",
        ),
        mean_us("http.parse_us_per_event", &parse_s),
    ];
    Ok((metrics, events_per_request))
}
