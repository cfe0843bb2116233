//! The four workloads' timed phases and their correctness gates.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ibcm_core::{MisuseDetector, SessionEvent, SessionVerdict, StreamConfig};
use ibcm_http::json::{self, JsonValue};
use ibcm_logsim::ActionId;
use ibcm_obs::{names, Stopwatch};
use ibcm_served::{CheckpointStore, Daemon, MergedAlarm, ServedConfig};

use crate::loadgen::{Clock, OpenLoop, WallClock};
use crate::net::{peak_rss_mb, reset_peak_rss, scrape, Conn, Reply, Server, ServerKind};
use crate::replay::{check_alarms, replay, verify_prefix, AlarmKey, Replay};
use crate::setup::{set_up, Setup};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::Tracer;
use crate::traffic::{
    event_index, interleave, join_alarm_latencies, natural_stream, ndjson, positions,
    traffic_dataset, SessionPool,
};
use crate::{probe, BenchError, Context, DaemonLoad, Metric, Profile, RunOutput, Workload};

/// The tail percentile every latency is reported at. Each workload's
/// sizes give it at least ten samples beyond this point.
const LATENCY_TAIL: f64 = 90.0;

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// Sizes.
    pub profile: &'a Profile,
    /// The `--seed`: every input derives from it.
    pub seed: u64,
    /// The `--seconds` the timed phase lasts.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Working directory for the bundle and checkpoints; created if
    /// missing.
    pub work_dir: &'a Path,
    /// How HTTP servers are run.
    pub server: &'a ServerKind,
}

/// What a timed phase measured.
struct Measured {
    /// Headline rate: events/s, or sessions/s for offline scoring.
    pub ops_per_s: f64,
    /// Detection latency samples in seconds: due event → visible alarm,
    /// or submitted batch → its verdicts.
    pub latency_s: Vec<f64>,
    /// Peak resident set of the serving process, MB.
    pub rss_mb: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Run-file context.
    pub extra: Context,
    /// The leading events the traced probes run on.
    pub probe_events: Vec<SessionEvent>,
    /// The reference replay of `probe_events`, when the gate made one.
    pub replay: Option<Replay>,
}

/// Runs one workload: set-up, timed phase, correctness gate, and the
/// traced probes when `spec.trace` is set.
pub fn run(workload: Workload, spec: &RunSpec) -> Result<RunOutput, BenchError> {
    std::fs::create_dir_all(spec.work_dir)?;
    let http = workload == Workload::HttpIngest;
    let mut setup = set_up(spec.profile, spec.work_dir, http.then_some(spec.server))?;
    if !http {
        if let Err(e) = reset_peak_rss() {
            eprintln!("[ibcm-benchmark] cannot reset peak RSS ({e}); rss_peak_mb includes set-up");
        }
    }
    let mut tracer = Tracer::new(spec.trace);
    let measured = match workload {
        Workload::HttpIngest => http_ingest(spec, &mut setup, &mut tracer)?,
        Workload::DaemonLong | Workload::DaemonShort => {
            daemon(spec, workload, &setup, &mut tracer)?
        }
        Workload::OfflineScore => offline(spec, &setup, &mut tracer)?,
    };
    let mut attempted = measured.attempted;
    let mut failed = measured.failed;
    let mut extra = measured.extra;
    let latency_ms: Vec<f64> = measured.latency_s.iter().map(|s| s * 1e3).collect();
    extra.push(("latency_samples", latency_ms.len() as f64));
    if let Some(p) = tail_percentile(latency_ms.len()) {
        extra.push(("latency_tail_percentile", p));
        extra.push((
            "latency_tail_ms",
            percentile(&latency_ms, p).unwrap_or(f64::NAN),
        ));
    }
    let metrics = if spec.trace {
        let (metrics, context) = probe::per_layer(
            spec,
            &setup,
            &measured.probe_events,
            measured.replay,
            &mut attempted,
            &mut failed,
        )?;
        extra.extend(context);
        metrics
    } else {
        let n = latency_ms.len();
        vec![
            Metric::one("setup_s", setup.setup_s, "s"),
            Metric::one("ops_per_s", measured.ops_per_s, "1/s"),
            Metric {
                name: "latency_p50_ms",
                value: median(&latency_ms).unwrap_or(f64::NAN),
                unit: "ms",
                samples: n,
            },
            Metric {
                name: "latency_p90_ms",
                value: percentile(&latency_ms, LATENCY_TAIL).unwrap_or(f64::NAN),
                unit: "ms",
                samples: n,
            },
            Metric::one("rss_peak_mb", measured.rss_mb, "MB"),
        ]
    };
    Ok(RunOutput {
        attempted,
        failed,
        metrics,
        extra,
        tracer,
    })
}

/// A verdict reduced to what the gate compares: cluster, the bits of both
/// averages (`None` when not finite, which the wire sends as `null`), and
/// the prediction count.
type VerdictKey = (usize, Option<u32>, Option<u32>, usize);

/// The key of an in-process verdict.
fn verdict_key(v: &SessionVerdict) -> VerdictKey {
    let bits = |x: f32| x.is_finite().then(|| x.to_bits());
    (
        v.cluster.index(),
        bits(v.score.avg_likelihood),
        bits(v.score.avg_loss),
        v.score.n_predictions,
    )
}

/// The key of a `/v1/score` response body.
fn wire_verdict_key(body: &[u8]) -> Option<VerdictKey> {
    let value = json::parse(body).ok()?;
    let score = value.get("score")?;
    let float = |v: &JsonValue| match v {
        JsonValue::Null => Some(None),
        JsonValue::Num(raw) => raw.parse::<f32>().ok().map(|f| Some(f.to_bits())),
        _ => None,
    };
    Some((
        value.get("cluster")?.as_usize()?,
        float(score.get("avg_likelihood")?)?,
        float(score.get("avg_loss")?)?,
        score.get("n_predictions")?.as_usize()?,
    ))
}

/// The `POST /v1/score` body for a session.
pub(crate) fn score_body(actions: &[ActionId]) -> Vec<u8> {
    let ids: Vec<String> = actions.iter().map(|a| a.index().to_string()).collect();
    format!("{{\"actions\":[{}]}}", ids.join(",")).into_bytes()
}

// ---------------------------------------------------------------------------
// Daemon.
// ---------------------------------------------------------------------------

/// One closed-loop pass of a fresh daemon: blocking `ingest` per event,
/// `poll_alarms` every `poll_every` events, then `drain`. Times are
/// seconds since the pass started.
#[derive(Debug, Default)]
pub(crate) struct DaemonPass {
    /// The events ingested, in order.
    pub events: Vec<SessionEvent>,
    /// When each event's `ingest` call began.
    pub ingest_start_s: Vec<f64>,
    /// Merged alarms in release order.
    pub alarms: Vec<MergedAlarm>,
    /// When each alarm became visible to the caller.
    pub visible_s: Vec<f64>,
    /// Total seconds inside `ingest`.
    pub ingest_call_s: f64,
    /// `poll_alarms` calls.
    pub polls: usize,
    /// Total seconds inside `poll_alarms`.
    pub poll_s: f64,
    /// Queue-depth samples (one per shard per sampling point).
    pub depth_samples: usize,
    /// Sum of sampled depths.
    pub depth_sum: usize,
    /// Samples that found a queue at capacity.
    pub full_samples: usize,
    /// Seconds inside `drain`.
    pub drain_s: f64,
    /// Worker restarts (any is a failure).
    pub restarts: u64,
    /// `SERVED_WORKER_BATCHES` delta.
    pub worker_batches: f64,
    /// Checkpoints written (`SERVED_CHECKPOINTS{outcome="written"}` delta).
    pub checkpoints: f64,
    /// `SERVED_CHECKPOINT_STALLS` delta.
    pub checkpoint_stalls: f64,
}

/// Queue depths are sampled every this many ingests.
const DEPTH_SAMPLE_EVERY: usize = 8;

fn registry_value(name: &str, labels: &[&str]) -> f64 {
    scrape(&ibcm_obs::global().render_prometheus(), name, labels)
}

/// Runs a [`DaemonPass`] with a disk checkpoint store in `dir`, over
/// `events` until they run out or, once `min_events` are in, `seconds`
/// have passed.
pub(crate) fn daemon_pass(
    detector: &Arc<MisuseDetector>,
    load: &DaemonLoad,
    events: impl IntoIterator<Item = SessionEvent>,
    seconds: f64,
    min_events: usize,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<DaemonPass, BenchError> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    let config = ServedConfig::new(StreamConfig::default())
        .with_shards(load.shards)
        .with_queue_capacity(load.queue_capacity)
        .with_rotation(load.checkpoint_every, load.keep_checkpoints);
    let counters = || {
        (
            registry_value(names::SERVED_WORKER_BATCHES.name, &[]),
            registry_value(names::SERVED_CHECKPOINTS.name, &["outcome=\"written\""]),
            registry_value(names::SERVED_CHECKPOINT_STALLS.name, &[]),
        )
    };
    let mut daemon = Daemon::new(Arc::clone(detector), config, CheckpointStore::disk(dir))?;
    let before = counters();
    let mut r = DaemonPass::default();
    let poll_every = load.poll_every.max(1);
    let clock = Stopwatch::start();
    for (i, event) in events.into_iter().enumerate() {
        let start = clock.elapsed_seconds();
        if i >= min_events && start >= seconds {
            break;
        }
        let span = tracer.open();
        r.ingest_start_s.push(start);
        r.events.push(event);
        daemon.ingest(event)?;
        r.ingest_call_s += clock.elapsed_seconds() - start;
        tracer.close(span, "served.ingest", None, i as u64);
        if i % poll_every == poll_every - 1 {
            let span = tracer.open();
            let start = clock.elapsed_seconds();
            let fresh = daemon.poll_alarms();
            let now = clock.elapsed_seconds();
            tracer.close(span, "served.poll_alarms", None, i as u64);
            r.polls += 1;
            r.poll_s += now - start;
            r.visible_s.extend(std::iter::repeat_n(now, fresh.len()));
            r.alarms.extend(fresh);
        }
        if i % DEPTH_SAMPLE_EVERY == 0 {
            for depth in daemon.queue_depths() {
                r.depth_samples += 1;
                r.depth_sum += depth;
                r.full_samples += usize::from(depth >= load.queue_capacity);
            }
        }
    }
    let span = tracer.open();
    let start = clock.elapsed_seconds();
    let report = daemon.drain()?;
    let now = clock.elapsed_seconds();
    tracer.close(span, "served.drain", None, 0);
    r.drain_s = now - start;
    r.visible_s
        .extend(std::iter::repeat_n(now, report.alarms.len()));
    r.alarms.extend(report.alarms);
    r.restarts = report.restarts;
    let after = counters();
    r.worker_batches = after.0 - before.0;
    r.checkpoints = after.1 - before.1;
    r.checkpoint_stalls = after.2 - before.2;
    Ok(r)
}

/// Events per second of consecutive `window`-event windows after the
/// first `warmup` events, from the times each event's ingest began.
fn window_rates(ingest_start_s: &[f64], warmup: usize, window: usize) -> Vec<f64> {
    let window = window.max(1);
    (warmup..)
        .step_by(window)
        .map_while(|w| {
            let end = ingest_start_s.get(w + window)?;
            Some(window as f64 / (end - ingest_start_s.get(w)?))
        })
        .collect()
}

fn daemon(
    spec: &RunSpec,
    workload: Workload,
    setup: &Setup,
    tracer: &mut Tracer,
) -> Result<Measured, BenchError> {
    let load = spec.profile.daemon(workload);
    let pool = SessionPool::new(
        spec.profile.generator,
        spec.seed,
        load.min_len,
        load.max_len,
    );
    let dir = spec.work_dir.join("checkpoints");
    let min_events = (load.warmup_events + 3 * load.window_events).max(spec.profile.verify_events);
    let pass = daemon_pass(
        &setup.detector,
        &load,
        interleave(pool, load.slots),
        spec.seconds,
        min_events,
        &dir,
        tracer,
    )?;
    std::fs::remove_dir_all(&dir)?;

    let (verify_len, cutoff) = verify_prefix(&pass.events, spec.profile.verify_events);
    let reference = replay(&setup.detector, &pass.events[..verify_len])?;
    check_alarms(
        workload.name(),
        pass.alarms.iter().map(|m| AlarmKey::of(&m.alarm)),
        cutoff,
        &reference.alarms,
    )?;

    let rates = window_rates(&pass.ingest_start_s, load.warmup_events, load.window_events);
    let lock_in = setup.detector.lock_in();
    let measured_positions = &positions(&pass.events)[load.warmup_events.min(pass.events.len())..];
    let postlock = measured_positions.iter().filter(|&&p| p > lock_in).count();
    let seen: Vec<(usize, u64, f64)> = pass
        .alarms
        .iter()
        .zip(&pass.visible_s)
        .map(|(m, &v)| (m.alarm.user.index(), m.alarm.minute, v))
        .collect();
    let (joined, unmatched) =
        join_alarm_latencies(&seen, &event_index(&pass.events), &pass.ingest_start_s);
    let latency_s = joined
        .into_iter()
        .filter(|&(event, _)| event >= load.warmup_events)
        .map(|(_, latency)| latency)
        .collect();
    Ok(Measured {
        ops_per_s: median(&rates).unwrap_or(f64::NAN),
        latency_s,
        rss_mb: peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN),
        attempted: pass.events.len() as u64,
        failed: pass.restarts,
        extra: vec![
            ("events", pass.events.len() as f64),
            ("windows", rates.len() as f64),
            (
                "window_eps_min",
                rates.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            ("window_eps_max", rates.iter().copied().fold(0.0, f64::max)),
            (
                "measured_postlock_frac",
                postlock as f64 / measured_positions.len().max(1) as f64,
            ),
            ("alarms", pass.alarms.len() as f64),
            ("alarms_unmatched", unmatched as f64),
            ("verified_events", verify_len as f64),
        ],
        probe_events: pass.events[..verify_len].to_vec(),
        replay: Some(reference),
    })
}

// ---------------------------------------------------------------------------
// HTTP ingest.
// ---------------------------------------------------------------------------

/// One request as a span named `name`, with children for the wait until
/// the response head and for reading the body after it.
fn traced_request(
    conn: &mut Conn,
    tracer: &mut Tracer,
    name: &'static str,
    request: u64,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<Reply> {
    let span = tracer.open();
    let reply = conn.request(method, path, body);
    if let Ok(r) = &reply {
        tracer.child(&span, "http.response_head", request, 0.0, r.head_s);
        tracer.child(&span, "http.response_body", request, r.head_s, r.total_s);
    }
    tracer.close(span, name, None, request);
    reply
}

/// How many of the `sent` events a `POST /v1/events` reply admitted: all
/// on `200`, the `accepted` prefix on `429`, `None` on any other status.
pub(crate) fn admitted(reply: &Reply, sent: usize) -> Option<usize> {
    match reply.status {
        200 => Some(sent),
        429 => json::parse(&reply.body)
            .ok()
            .and_then(|v| v.get("error")?.get("accepted")?.as_usize())
            .map(|n| n.min(sent)),
        _ => None,
    }
}

/// One `POST /v1/events`: how many of its events were admitted (`None`
/// for a failed request) and the status (0 for an I/O error).
fn post_events(
    conn: &mut Conn,
    events: &[SessionEvent],
    tracer: &mut Tracer,
    request: u64,
) -> (Option<usize>, u16) {
    let reply = traced_request(
        conn,
        tracer,
        "http.post_events",
        request,
        "POST",
        "/v1/events",
        &ndjson(events),
    );
    match reply {
        Ok(r) => (admitted(&r, events.len()), r.status),
        Err(_) => (None, 0),
    }
}

/// The server's `ibcm_stream_events_total`: events its shards ingested.
fn server_events(conn: &mut Conn) -> Result<f64, BenchError> {
    let reply = conn.request("GET", "/metrics", b"")?;
    if reply.status != 200 {
        return Err(BenchError::Io(format!(
            "GET /metrics: status {}",
            reply.status
        )));
    }
    Ok(scrape(
        &String::from_utf8_lossy(&reply.body),
        names::STREAM_EVENTS.name,
        &[],
    ))
}

/// Scrapes until the server has ingested `target` events; returns the
/// clock reading of the scrape that saw it.
pub(crate) fn wait_ingested(
    conn: &mut Conn,
    target: f64,
    clock: &impl Clock,
) -> Result<f64, BenchError> {
    let start = clock.now();
    loop {
        if server_events(conn)? >= target {
            return Ok(clock.now());
        }
        if clock.now() - start > 60.0 {
            return Err(BenchError::Io(format!(
                "server did not ingest {target} events within 60 s"
            )));
        }
        clock.sleep_until(clock.now() + 0.001);
    }
}

/// Alarms seen by the poller, with the clock reading of the poll that
/// returned each.
struct Polled {
    alarms: Vec<(AlarmKey, f64)>,
    requests: u64,
    tracer: Tracer,
}

/// Polls `GET /v1/alarms` every `poll_s` until `stop` is set, then once
/// more so nothing released before the stop is missed.
fn poll_alarms(
    addr: SocketAddr,
    clock: &WallClock,
    poll_s: f64,
    stop: &AtomicBool,
    mut tracer: Tracer,
) -> Result<Polled, BenchError> {
    let mut conn = Conn::connect(addr)?;
    let mut cursor = 0u64;
    let mut alarms_seen = Vec::new();
    let mut requests = 0;
    loop {
        let last = stop.load(Ordering::SeqCst);
        let reply = traced_request(
            &mut conn,
            &mut tracer,
            "http.get_alarms",
            requests,
            "GET",
            &format!("/v1/alarms?cursor={cursor}&max=1000"),
            b"",
        )?;
        let visible = clock.now();
        requests += 1;
        if reply.status != 200 {
            return Err(BenchError::Io(format!(
                "GET /v1/alarms: status {}",
                reply.status
            )));
        }
        let page = json::parse(&reply.body)
            .map_err(|e| BenchError::Io(format!("alarm page: {}", e.message)))?;
        if page.get("dropped").and_then(JsonValue::as_u64) != Some(0) {
            return Err(BenchError::Mismatch(
                "the server dropped alarms before they were polled".into(),
            ));
        }
        let alarms = page
            .get("alarms")
            .and_then(JsonValue::as_array)
            .unwrap_or_default();
        for a in alarms {
            alarms_seen.push((wire_alarm(a)?, visible));
        }
        cursor = page
            .get("next_cursor")
            .and_then(JsonValue::as_u64)
            .unwrap_or(cursor);
        if last && alarms.len() < 1000 {
            return Ok(Polled {
                alarms: alarms_seen,
                requests,
                tracer,
            });
        }
        clock.sleep_until(visible + poll_s);
    }
}

fn wire_alarm(a: &JsonValue) -> Result<AlarmKey, BenchError> {
    let bad = || BenchError::Io("malformed alarm in page".into());
    let likelihood = match a.get("windowed_likelihood").ok_or_else(bad)? {
        JsonValue::Null => None,
        JsonValue::Num(raw) => Some(raw.parse::<f32>().map_err(|_| bad())?.to_bits()),
        _ => return Err(bad()),
    };
    Ok(AlarmKey {
        user: a
            .get("user")
            .and_then(JsonValue::as_usize)
            .ok_or_else(bad)?,
        position: a
            .get("position")
            .and_then(JsonValue::as_usize)
            .ok_or_else(bad)?,
        minute: a
            .get("minute")
            .and_then(JsonValue::as_u64)
            .ok_or_else(bad)?,
        likelihood,
        trend: matches!(a.get("trend"), Some(JsonValue::Bool(true))),
        score: a.get("kind").and_then(JsonValue::as_str) == Some("score"),
    })
}

/// What the saturation phase did.
struct Saturation {
    admitted: usize,
    failed_events: usize,
    requests: u64,
    backpressured: u64,
    elapsed_s: f64,
    exhausted: bool,
}

/// Closed-loop saturation: requests of `load.max_batch` events back to
/// back for `seconds`, each `429` suffix resubmitted after `load.retry_s`
/// and failed after `load.admit_timeout_s`; timed
/// until the server has ingested every admitted event.
fn saturate(
    conn: &mut Conn,
    events: &[SessionEvent],
    load: &OpenLoop,
    seconds: f64,
    clock: &WallClock,
    tracer: &mut Tracer,
) -> Result<Saturation, BenchError> {
    let base = server_events(conn)?;
    let mut s = Saturation {
        admitted: 0,
        failed_events: 0,
        requests: 0,
        backpressured: 0,
        elapsed_s: 0.0,
        exhausted: false,
    };
    let start = clock.now();
    let mut next = 0;
    while clock.now() - start < seconds {
        if next == events.len() {
            s.exhausted = true;
            break;
        }
        let hi = (next + load.max_batch).min(events.len());
        let mut blocked_since: Option<f64> = None;
        while next < hi {
            let (admitted, status) = post_events(conn, &events[next..hi], tracer, s.requests);
            s.requests += 1;
            let Some(admitted) = admitted else {
                s.failed_events += hi - next;
                next = hi;
                break;
            };
            s.admitted += admitted;
            next += admitted;
            if status == 429 {
                s.backpressured += 1;
                let now = clock.now();
                if now - *blocked_since.get_or_insert(now) > load.admit_timeout_s {
                    s.failed_events += hi - next;
                    next = hi;
                } else {
                    clock.sleep_until(now + load.retry_s);
                }
            }
        }
    }
    s.elapsed_s = wait_ingested(conn, base + s.admitted as f64, clock)? - start;
    Ok(s)
}

fn http_ingest(
    spec: &RunSpec,
    setup: &mut Setup,
    tracer: &mut Tracer,
) -> Result<Measured, BenchError> {
    let server = setup
        .server
        .take()
        .ok_or_else(|| BenchError::Io("http-ingest needs a server".into()))?;
    let measured = http_phases(spec, setup, &server, tracer);
    let rss_mb = server.peak_rss_mb().unwrap_or(f64::NAN);
    server.stop()?;
    measured.map(|m| Measured { rss_mb, ..m })
}

fn http_phases(
    spec: &RunSpec,
    setup: &Setup,
    server: &Server,
    tracer: &mut Tracer,
) -> Result<Measured, BenchError> {
    let load = spec.profile.http;
    let open_s = spec.seconds * load.open_share;
    let saturation_s = spec.seconds - open_s;
    let schedule = load.open_loop;
    let n_open = ((schedule.rate_per_s * open_s).round() as usize).max(1);
    let n_saturation = (load.max_saturation_eps * saturation_s) as usize;
    let (events, sessions) =
        natural_stream(spec.profile.generator, spec.seed, n_open + n_saturation);
    let open = &events[..n_open];
    let clock = WallClock::start();
    let addr = server.addr();
    let mut conn = Conn::connect(addr)?;
    let base = server_events(&mut conn)?;

    // Phase 1: open loop on this thread, alarm polling on a second one.
    let stop = AtomicBool::new(false);
    let poll_tracer = tracer.fork();
    let (result, polled) = std::thread::scope(|scope| {
        let poller = scope.spawn(|| poll_alarms(addr, &clock, load.poll_s, &stop, poll_tracer));
        let sent = (|| -> Result<_, BenchError> {
            let mut request = 0u64;
            let result = schedule.run(&clock, n_open, |range| {
                request += 1;
                match post_events(&mut conn, &open[range], tracer, request) {
                    (Some(n), _) => Ok(n),
                    (None, status) => Err(format!("POST /v1/events: status {status}")),
                }
            });
            let admitted = n_open - result.failed_events;
            wait_ingested(&mut conn, base + admitted as f64, &clock)?;
            Ok(result)
        })();
        stop.store(true, Ordering::SeqCst);
        let polled = poller
            .join()
            .map_err(|_| BenchError::Io("alarm poller panicked".into()))
            .and_then(|p| p);
        (sent, polled)
    });
    let (result, polled) = (result?, polled?);
    tracer.merge(polled.tracer);

    // Phase 2: closed-loop saturation on the same connection.
    let saturation = saturate(
        &mut conn,
        &events[n_open..],
        &schedule,
        saturation_s,
        &clock,
        tracer,
    )?;

    // The gate: polled alarms before the cutoff equal the reference
    // replay, and the leading /v1/score verdicts equal score_session.
    let (verify_len, cutoff) = verify_prefix(open, spec.profile.verify_events);
    let reference = replay(&setup.detector, &open[..verify_len])?;
    check_alarms(
        "http-ingest",
        polled.alarms.iter().map(|(k, _)| *k),
        cutoff,
        &reference.alarms,
    )?;
    let mut score_failed = 0u64;
    let checked: Vec<&Vec<ActionId>> = sessions
        .iter()
        .filter(|s| !s.is_empty())
        .take(load.score_checks)
        .collect();
    for actions in &checked {
        let reply = conn.request("POST", "/v1/score", &score_body(actions))?;
        if reply.status != 200 {
            score_failed += 1;
            continue;
        }
        let expected = verdict_key(&setup.detector.score_session(actions));
        if wire_verdict_key(&reply.body) != Some(expected) {
            return Err(BenchError::Mismatch(format!(
                "/v1/score verdict differs from score_session ({} vs {expected:?})",
                String::from_utf8_lossy(&reply.body).trim()
            )));
        }
    }

    let due: Vec<f64> = (0..n_open)
        .map(|i| result.start + schedule.due(i))
        .collect();
    let seen: Vec<(usize, u64, f64)> = polled
        .alarms
        .iter()
        .map(|(k, v)| (k.user, k.minute, *v))
        .collect();
    let (joined, unmatched) = join_alarm_latencies(&seen, &event_index(open), &due);
    let latency_s = joined.into_iter().map(|(_, latency)| latency).collect();
    let ack_ms: Vec<f64> = result
        .ack
        .iter()
        .filter(|a| a.is_finite())
        .map(|a| a * 1e3)
        .collect();
    let late_ms: Vec<f64> = result
        .late
        .iter()
        .filter(|a| a.is_finite())
        .map(|a| a * 1e3)
        .collect();
    let ack_tail = tail_percentile(ack_ms.len()).unwrap_or(50.0);
    Ok(Measured {
        ops_per_s: saturation.admitted as f64 / saturation.elapsed_s,
        latency_s,
        rss_mb: f64::NAN,
        attempted: (n_open + saturation.admitted + saturation.failed_events + checked.len()) as u64,
        failed: (result.failed_events + saturation.failed_events) as u64 + score_failed,
        extra: vec![
            ("open_events", n_open as f64),
            ("open_requests", result.requests as f64),
            ("open_backpressured", result.backpressured as f64),
            ("ack_p50_ms", median(&ack_ms).unwrap_or(f64::NAN)),
            ("ack_tail_percentile", ack_tail),
            (
                "ack_tail_ms",
                percentile(&ack_ms, ack_tail).unwrap_or(f64::NAN),
            ),
            ("loadgen_late_p50_ms", median(&late_ms).unwrap_or(f64::NAN)),
            (
                "loadgen_late_p99_ms",
                percentile(&late_ms, 99.0).unwrap_or(f64::NAN),
            ),
            ("alarm_polls", polled.requests as f64),
            ("alarms_polled", polled.alarms.len() as f64),
            ("alarms_unmatched", unmatched as f64),
            ("saturation_events", saturation.admitted as f64),
            ("saturation_requests", saturation.requests as f64),
            ("saturation_backpressured", saturation.backpressured as f64),
            (
                "saturation_traffic_exhausted",
                f64::from(u8::from(saturation.exhausted)),
            ),
            ("verified_events", verify_len as f64),
        ],
        probe_events: open[..verify_len].to_vec(),
        replay: Some(reference),
    })
}

// ---------------------------------------------------------------------------
// Offline scoring.
// ---------------------------------------------------------------------------

fn offline(spec: &RunSpec, setup: &Setup, tracer: &mut Tracer) -> Result<Measured, BenchError> {
    let load = spec.profile.offline;
    let sessions: Vec<Vec<ActionId>> = (0..load.datasets)
        .flat_map(|i| {
            traffic_dataset(spec.profile.generator, spec.seed, i)
                .sessions()
                .iter()
                .map(|s| s.actions().to_vec())
                .collect::<Vec<_>>()
        })
        .collect();
    let batches: Vec<&[Vec<ActionId>]> = sessions.chunks_exact(load.batch.max(1)).collect();
    if batches.is_empty() {
        return Err(BenchError::Usage(
            "fewer held-out sessions than one batch".into(),
        ));
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let clock = Stopwatch::start();
    let mut call_s = Vec::new();
    let mut scored = 0usize;
    let mut first: Vec<VerdictKey> = Vec::new();
    while call_s.is_empty() || clock.elapsed_seconds() < spec.seconds {
        let batch = batches[call_s.len() % batches.len()];
        let span = tracer.open();
        let start = clock.elapsed_seconds();
        let verdicts = setup.detector.score_sessions(batch, threads);
        call_s.push(clock.elapsed_seconds() - start);
        tracer.close(span, "core.score_sessions", None, call_s.len() as u64);
        scored += batch.len();
        let missing = load.checks.saturating_sub(first.len());
        first.extend(verdicts.iter().take(missing).map(verdict_key));
    }
    for (i, key) in first.iter().enumerate() {
        if verdict_key(&setup.detector.score_session(&sessions[i])) != *key {
            return Err(BenchError::Mismatch(format!(
                "score_sessions verdict {i} differs from score_session"
            )));
        }
    }
    let (mut probe_events, _) = natural_stream(
        spec.profile.generator,
        spec.seed,
        spec.profile.verify_events,
    );
    probe_events.truncate(spec.profile.verify_events);
    Ok(Measured {
        ops_per_s: scored as f64 / call_s.iter().sum::<f64>(),
        latency_s: call_s.clone(),
        rss_mb: peak_rss_mb("/proc/self/status").unwrap_or(f64::NAN),
        attempted: scored as u64,
        failed: 0,
        extra: vec![
            ("calls", call_s.len() as f64),
            ("sessions_per_call", load.batch as f64),
            ("held_out_sessions", sessions.len() as f64),
            ("threads", threads as f64),
        ],
        probe_events,
        replay: None,
    })
}
