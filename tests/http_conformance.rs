//! Conformance suite for the `ibcm-http` front end: every endpoint is
//! driven over a real loopback socket and the results are compared —
//! byte-for-byte and bit-for-bit — against driving the `Daemon` and
//! `MisuseDetector` in-process. The transport must add nothing and lose
//! nothing.
//!
//! Three pillars:
//! 1. **Byte-identity**: the merged alarm stream paged through
//!    `GET /v1/alarms` (with small pages, mid-run checkpoint requests,
//!    and 429-retry loops on ingest) equals the reference daemon's
//!    stream, including `f32` bit patterns; `POST /v1/score` equals
//!    `score_session` bit-for-bit.
//! 2. **Malformed-request fuzz**: truncated heads, oversized bodies,
//!    bad NDJSON, unknown routes, wrong methods — all typed 4xx/5xx,
//!    never a hung connection or a crashed server.
//! 3. **Seeded backpressure flood**: tiny queues + full-stream posts must
//!    produce 429s (never a 5xx or a panic), and retrying to completion
//!    must converge to the exact reference stream — no silent drops.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ibcm::http::{HttpConfig, HttpServer, HttpService};
use ibcm::served::{CheckpointStore, Daemon, MergedAlarm, ServedConfig};
use ibcm::{
    AlarmPolicy, Dataset, FaultPolicy, Generator, GeneratorConfig, MisuseDetector, Pipeline,
    PipelineConfig, SessionEvent, StreamConfig,
};

const SEED: u64 = 41;

fn fixture() -> &'static (Dataset, MisuseDetector) {
    static FIXTURE: OnceLock<(Dataset, MisuseDetector)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = Generator::new(GeneratorConfig::tiny(SEED)).generate();
        let trained = Pipeline::new(PipelineConfig::test_profile(SEED))
            .train(&dataset)
            .expect("training the fixture pipeline");
        let detector = trained.detector().clone();
        (dataset, detector)
    })
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        session_timeout_minutes: 30,
        policy: AlarmPolicy {
            likelihood_threshold: 0.05,
            window: 4,
            warmup: 4,
            trend_window: 4,
            ..AlarmPolicy::default()
        },
        faults: FaultPolicy {
            max_active_sessions: Some(8),
            ..FaultPolicy::default()
        },
        ..StreamConfig::default()
    }
}

fn served_config(queue_capacity: usize) -> ServedConfig {
    ServedConfig::new(stream_config())
        .with_shards(4)
        .with_rotation(32, 3)
        .with_queue_capacity(queue_capacity)
}

/// Starts a server over a fresh daemon; returns the server (owning the
/// acceptor) and its service handle.
fn serve(queue_capacity: usize) -> (HttpServer, Arc<HttpService>) {
    let (_, detector) = fixture();
    let detector = Arc::new(detector.clone());
    let daemon = Daemon::new(
        Arc::clone(&detector),
        served_config(queue_capacity),
        CheckpointStore::memory(),
    )
    .expect("daemon construction");
    let config = HttpConfig::new().with_max_connections(8);
    let service = Arc::new(HttpService::new(
        detector,
        daemon,
        config.alarm_buffer,
        config.max_batch_events,
    ));
    let server = HttpServer::bind(config, Arc::clone(&service)).expect("bind loopback");
    (server, service)
}

// ---------------------------------------------------------------------------
// A minimal raw-socket HTTP client (the test must not trust the crate's
// own wire code for reading responses, so it parses independently).
// ---------------------------------------------------------------------------

struct HttpResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn read_response(stream: &mut TcpStream) -> HttpResponse {
    let mut buf = Vec::new();
    let mut byte = [0u8; 1];
    while !buf.ends_with(b"\r\n\r\n") {
        match stream.read(&mut byte) {
            Ok(1) => buf.extend_from_slice(&byte),
            _ => panic!("connection closed mid-head: {:?}", String::from_utf8_lossy(&buf)),
        }
    }
    let head = String::from_utf8(buf).expect("response head is utf-8");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.to_string(), v.trim().to_string()))
        .collect();
    let length: usize = headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse().expect("numeric content-length"))
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).expect("full body");
    HttpResponse {
        status,
        headers,
        body: String::from_utf8(body).expect("body is utf-8"),
    }
}

/// One request on a fresh connection (`Connection: close`).
fn request(addr: std::net::SocketAddr, method: &str, target: &str, body: Option<&str>) -> HttpResponse {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).expect("write head");
    stream.write_all(body.as_bytes()).expect("write body");
    read_response(&mut stream)
}

// ---------------------------------------------------------------------------
// Tiny JSON reader for responses (independent of the crate's parser).
// Good enough for the fixed shapes the API emits.
// ---------------------------------------------------------------------------

/// Extracts the raw token following the first `"key":` in the JSON text.
/// Only used for scalar values (numbers, booleans, `null`, short strings).
fn json_field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest
        .find([',', '}', ']'])
        .unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// Splits the `"alarms":[...]` array of a page into object strings.
fn alarm_objects(page: &str) -> Vec<String> {
    let start = page.find("\"alarms\":[").expect("alarms array") + "\"alarms\":[".len();
    let rest = &page[start..];
    let mut depth = 0usize;
    let mut end = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => depth -= 1,
            ']' if depth == 0 => {
                end = i;
                break;
            }
            _ => {}
        }
    }
    let inner = &rest[..end];
    let mut objects = Vec::new();
    let mut obj_start = None;
    let mut d = 0usize;
    for (i, c) in inner.char_indices() {
        match c {
            '{' => {
                if d == 0 {
                    obj_start = Some(i);
                }
                d += 1;
            }
            '}' => {
                d -= 1;
                if d == 0 {
                    if let Some(s) = obj_start {
                        objects.push(inner[s..=i].to_string());
                    }
                }
            }
            _ => {}
        }
    }
    objects
}

/// Canonical comparable form of an alarm: (seq, shard, user, position,
/// minute, likelihood bits, trend, kind) — floats by bit pattern.
type AlarmKey = (u64, usize, usize, usize, u64, Option<u32>, bool, String);

/// Canonical comparable form of one alarm from its wire JSON: every field
/// re-parsed, floats by bit pattern.
fn wire_alarm_key(obj: &str) -> AlarmKey {
    let f = |k: &str| json_field(obj, k).unwrap_or_else(|| panic!("field {k} in {obj}"));
    let likelihood = match f("windowed_likelihood") {
        "null" => None,
        raw => Some(raw.parse::<f32>().expect("f32 likelihood").to_bits()),
    };
    (
        f("seq").parse().expect("seq"),
        f("shard").parse().expect("shard"),
        f("user").parse().expect("user"),
        f("position").parse().expect("position"),
        f("minute").parse().expect("minute"),
        likelihood,
        f("trend").parse().expect("trend"),
        f("kind").trim_matches('"').to_string(),
    )
}

/// The same canonical form from an in-process `MergedAlarm`.
fn direct_alarm_key(m: &MergedAlarm) -> AlarmKey {
    let kind = match m.alarm.kind {
        ibcm::StreamAlarmKind::Score => "score",
        ibcm::StreamAlarmKind::Shed => "shed",
    };
    (
        m.seq,
        m.shard,
        m.alarm.user.index(),
        m.alarm.position,
        m.alarm.minute,
        m.alarm.windowed_likelihood.map(f32::to_bits),
        m.alarm.trend,
        kind.to_string(),
    )
}

fn event_line(e: &SessionEvent) -> String {
    format!(
        "{{\"user\":{},\"action\":{},\"minute\":{}}}",
        e.user.index(),
        e.action.index(),
        e.minute
    )
}

/// Posts `events` as NDJSON, retrying the unaccepted suffix on 429 until
/// everything is admitted. Panics on any 5xx. Returns how many 429s were
/// seen.
fn post_until_accepted(addr: std::net::SocketAddr, events: &[SessionEvent], batch: usize) -> usize {
    let mut rejections = 0usize;
    let mut remaining: &[SessionEvent] = events;
    while !remaining.is_empty() {
        let take = remaining.len().min(batch);
        let body: String = remaining[..take]
            .iter()
            .map(|e| event_line(e) + "\n")
            .collect();
        let resp = request(addr, "POST", "/v1/events", Some(&body));
        match resp.status {
            200 => {
                let accepted: usize = json_field(&resp.body, "accepted")
                    .expect("accepted")
                    .parse()
                    .expect("accepted count");
                assert_eq!(accepted, take, "complete batch must accept all events");
                remaining = &remaining[take..];
            }
            429 => {
                rejections += 1;
                assert!(
                    resp.header("Retry-After").is_some(),
                    "429 must carry Retry-After"
                );
                // The envelope carries the accepted count in machine
                // form: the prefix is in the daemon, the suffix starting
                // at `accepted` must be resubmitted.
                let accepted: usize = json_field(&resp.body, "accepted")
                    .expect("429 must carry an accepted field")
                    .parse()
                    .expect("accepted count");
                assert!(accepted < take, "a 429 must reject at least one event");
                remaining = &remaining[accepted..];
                std::thread::yield_now();
            }
            other => panic!("unexpected status {other}: {}", resp.body),
        }
    }
    rejections
}

/// Drains every page of /v1/alarms (page size `page`) until a page comes
/// back empty; returns canonical keys.
fn page_all_alarms(
    addr: std::net::SocketAddr,
    page: usize,
) -> Vec<AlarmKey> {
    let mut cursor = 0u64;
    let mut keys = Vec::new();
    loop {
        let resp = request(addr, "GET", &format!("/v1/alarms?cursor={cursor}&max={page}"), None);
        assert_eq!(resp.status, 200, "{}", resp.body);
        let objects = alarm_objects(&resp.body);
        let next: u64 = json_field(&resp.body, "next_cursor")
            .expect("next_cursor")
            .parse()
            .expect("numeric cursor");
        if objects.is_empty() {
            assert_eq!(next, cursor, "empty page must not advance the cursor");
            return keys;
        }
        for o in &objects {
            keys.push(wire_alarm_key(o));
        }
        assert!(next > cursor, "pages must advance");
        cursor = next;
    }
}

/// Reference: the same events through a daemon driven directly.
fn reference_alarms(events: &[SessionEvent]) -> Vec<MergedAlarm> {
    let (_, detector) = fixture();
    let mut daemon = Daemon::new(
        Arc::new(detector.clone()),
        served_config(1024),
        CheckpointStore::memory(),
    )
    .expect("reference daemon");
    let mut merged = Vec::new();
    for e in events {
        daemon.ingest(*e).expect("reference ingest");
        merged.extend(daemon.poll_alarms());
    }
    let report = daemon.drain().expect("reference drain");
    merged.extend(report.alarms);
    merged
}

// ---------------------------------------------------------------------------
// 1. Byte-identity.
// ---------------------------------------------------------------------------

#[test]
fn alarm_stream_over_http_is_byte_identical() {
    let (dataset, _) = fixture();
    let events = ibcm::chaos::event_stream(dataset);
    let reference = reference_alarms(&events);
    assert!(
        !reference.is_empty(),
        "fixture must produce alarms for the identity check to mean anything"
    );

    let (mut server, service) = serve(1024);
    let addr = server.local_addr();

    // Mixed single-event and batched NDJSON posts, with alarm pages and a
    // checkpoint request interleaved mid-stream.
    let mut wire_keys = Vec::new();
    let mut cursor = 0u64;
    let mut i = 0usize;
    let mut toggle = false;
    while i < events.len() {
        let take = if toggle { 1 } else { 7.min(events.len() - i) };
        toggle = !toggle;
        let body: String = events[i..i + take].iter().map(|e| event_line(e) + "\n").collect();
        let resp = request(addr, "POST", "/v1/events", Some(&body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        i += take;

        if i % 64 < take {
            // Page with a deliberately small page size to exercise paging.
            let resp = request(addr, "GET", &format!("/v1/alarms?cursor={cursor}&max=3"), None);
            assert_eq!(resp.status, 200);
            for o in alarm_objects(&resp.body) {
                wire_keys.push(wire_alarm_key(&o));
            }
            cursor = json_field(&resp.body, "next_cursor")
                .expect("next_cursor")
                .parse()
                .expect("cursor");
        }
        if i == events.len() / 2 {
            let resp = request(addr, "POST", "/v1/checkpoint", None);
            assert_eq!(resp.status, 202, "{}", resp.body);
        }
    }
    // Page out everything still buffered.
    let mut rest = {
        let mut keys = Vec::new();
        loop {
            let resp = request(addr, "GET", &format!("/v1/alarms?cursor={cursor}&max=50"), None);
            assert_eq!(resp.status, 200);
            let objects = alarm_objects(&resp.body);
            if objects.is_empty() {
                break;
            }
            for o in &objects {
                keys.push(wire_alarm_key(o));
            }
            cursor = json_field(&resp.body, "next_cursor")
                .expect("next_cursor")
                .parse()
                .expect("cursor");
        }
        keys
    };
    wire_keys.append(&mut rest);

    // The drain report holds alarms never released to a page (sessions
    // still open at drain); the wire stream plus the drain leftovers must
    // equal the reference stream exactly.
    server.shutdown();
    let report = service.drain().expect("drain");
    wire_keys.extend(report.alarms.iter().map(direct_alarm_key));

    let reference_keys: Vec<_> = reference.iter().map(direct_alarm_key).collect();
    assert_eq!(
        wire_keys, reference_keys,
        "alarms over HTTP must be byte-identical to the in-process stream"
    );
}

#[test]
fn score_over_http_is_bit_identical() {
    let (dataset, detector) = fixture();
    let (mut server, _service) = serve(1024);
    let addr = server.local_addr();

    let vocab = detector.vocab_size();
    let mut sessions: Vec<Vec<usize>> = dataset
        .sessions()
        .iter()
        .take(8)
        .map(|s| s.actions().iter().map(|a| a.index()).collect())
        .collect();
    sessions.push(Vec::new()); // empty session
    sessions.push(vec![vocab + 5, vocab + 9]); // all-OOV session

    for actions in &sessions {
        let direct = detector.score_session(
            &actions.iter().copied().map(ibcm::ActionId).collect::<Vec<_>>(),
        );
        let body = format!(
            "{{\"actions\":[{}]}}",
            actions
                .iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
        let resp = request(addr, "POST", "/v1/score", Some(&body));
        assert_eq!(resp.status, 200, "{}", resp.body);
        let cluster: usize = json_field(&resp.body, "cluster")
            .expect("cluster")
            .parse()
            .expect("cluster id");
        assert_eq!(cluster, direct.cluster.index());
        let bits = |key: &str, want: f32| {
            let raw = json_field(&resp.body, key).unwrap_or_else(|| panic!("{key}"));
            if raw == "null" {
                assert!(!want.is_finite(), "{key}: wire null for finite {want}");
            } else {
                let got: f32 = raw.parse().expect("f32");
                assert_eq!(got.to_bits(), want.to_bits(), "{key} bits differ");
            }
        };
        bits("avg_likelihood", direct.score.avg_likelihood);
        bits("avg_loss", direct.score.avg_loss);
        bits("perplexity", direct.score.perplexity());
        let n: usize = json_field(&resp.body, "n_predictions")
            .expect("n_predictions")
            .parse()
            .expect("count");
        assert_eq!(n, direct.score.n_predictions);
    }
    server.shutdown();
}

#[test]
fn health_ready_metrics_and_checkpoint_endpoints() {
    let (mut server, _service) = serve(1024);
    let addr = server.local_addr();

    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let ready = request(addr, "GET", "/readyz", None);
    assert_eq!(ready.status, 200, "{}", ready.body);
    assert_eq!(json_field(&ready.body, "ready"), Some("true"));
    assert_eq!(json_field(&ready.body, "drained"), Some("false"));

    let checkpoint = request(addr, "POST", "/v1/checkpoint", None);
    assert_eq!(checkpoint.status, 202, "{}", checkpoint.body);
    assert_eq!(json_field(&checkpoint.body, "signalled"), Some("4"));

    // Exercise at least one request first so labeled series exist.
    let metrics = request(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.header("Content-Type"),
        Some("text/plain; version=0.0.4")
    );
    for needle in [
        "# TYPE ibcm_http_requests_total counter",
        "# TYPE ibcm_http_request_seconds histogram",
        "# TYPE ibcm_http_connections gauge",
        "route=\"/healthz\"",
        "ibcm_served_shards",
    ] {
        assert!(
            metrics.body.contains(needle),
            "metrics exposition is missing {needle:?}"
        );
    }
    server.shutdown();
}

/// Requests after the first on a keep-alive connection must not wait on
/// the peer's delayed ACK (40 ms minimum on Linux), which is what a
/// response written as a head and a separate small body costs under
/// Nagle's algorithm.
#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let (dataset, _) = fixture();
    let events = ibcm::chaos::event_stream(dataset);
    let (mut server, _service) = serve(1024);
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut rtts_ms = Vec::new();
    for (i, batch) in events.chunks(8).take(7).enumerate() {
        let body: String = batch.iter().map(|e| event_line(e) + "\n").collect();
        let requests = [
            ("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), "ok\n"),
            (
                format!(
                    "POST /v1/events HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                ),
                "\"status\":\"complete\"",
            ),
            ("GET /v1/alarms HTTP/1.1\r\nHost: t\r\n\r\n".to_string(), "\"alarms\":["),
        ];
        for (raw, needle) in &requests {
            let clock = ibcm::obs::Stopwatch::start();
            stream.write_all(raw.as_bytes()).expect("write");
            let resp = read_response(&mut stream);
            rtts_ms.push(clock.elapsed_seconds() * 1e3);
            assert_eq!(resp.status, 200, "round {i}: {}", resp.body);
            assert!(resp.body.contains(needle), "round {i}: {}", resp.body);
            assert_eq!(resp.header("Connection"), Some("keep-alive"));
        }
    }
    assert_eq!(rtts_ms.len(), 21);
    rtts_ms.sort_by(f64::total_cmp);
    let median = rtts_ms[rtts_ms.len() / 2];
    assert!(
        median < 20.0,
        "median keep-alive round trip {median:.1} ms (all: {rtts_ms:.1?})"
    );
    server.shutdown();
}

/// Three requests pipelined in one write on a keep-alive connection get
/// three complete responses, in request order, and the POST's events are
/// admitted: the server keeps the bytes it read past one request for the
/// next.
#[test]
fn pipelined_requests_get_complete_responses_in_order() {
    let (dataset, _) = fixture();
    let events = ibcm::chaos::event_stream(dataset);
    let (mut server, _service) = serve(1024);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let body: String = events[..8].iter().map(|e| event_line(e) + "\n").collect();
    let pipelined = format!(
        "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n\
         POST /v1/events HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}\
         GET /readyz HTTP/1.1\r\nHost: t\r\n\r\n",
        body.len()
    );
    stream.write_all(pipelined.as_bytes()).expect("write");

    let health = read_response(&mut stream);
    assert_eq!((health.status, health.body.as_str()), (200, "ok\n"));
    let posted = read_response(&mut stream);
    assert_eq!(posted.status, 200, "{}", posted.body);
    assert_eq!(json_field(&posted.body, "accepted"), Some("8"));
    assert_eq!(json_field(&posted.body, "status"), Some("\"complete\""));
    let ready = read_response(&mut stream);
    assert_eq!(ready.status, 200, "{}", ready.body);
    assert_eq!(json_field(&ready.body, "ready"), Some("true"));
    for resp in [&health, &posted, &ready] {
        assert_eq!(resp.header("Connection"), Some("keep-alive"));
    }
    server.shutdown();
}

/// A request head that arrives in three writes, split mid-line, is read
/// whole and served.
#[test]
fn request_head_split_across_writes_is_served() {
    let (mut server, _service) = serve(1024);
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let parts = [
        "GET /hea",
        "lthz HTTP/1.1\r\nHo",
        "st: t\r\nConnection: close\r\n\r\n",
    ];
    for part in parts {
        stream.write_all(part.as_bytes()).expect("write");
        std::thread::sleep(Duration::from_millis(30));
    }
    let resp = read_response(&mut stream);
    assert_eq!((resp.status, resp.body.as_str()), (200, "ok\n"));
    server.shutdown();
}

/// A client that trickles its head one byte at a time must lose its
/// connection slot once the read timeout has passed since the request's
/// first byte, not only when a single read stalls that long.
#[test]
fn slow_client_cannot_hold_a_connection_slot() {
    let (_, detector) = fixture();
    let detector = Arc::new(detector.clone());
    let daemon = Daemon::new(
        Arc::clone(&detector),
        served_config(1024),
        CheckpointStore::memory(),
    )
    .expect("daemon");
    let config = HttpConfig::new()
        .with_max_connections(1)
        .with_read_timeout_ms(300);
    let service = Arc::new(HttpService::new(detector, daemon, 1024, 1024));
    let mut server = HttpServer::bind(config, Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();

    // Connected first, so it takes the only slot; a head byte every 50 ms
    // for at most 4 s, never finishing the head.
    let mut slow = TcpStream::connect(addr).expect("connect");
    let trickler = std::thread::spawn(move || {
        let head = b"GET /healthz HTTP/1.1\r\nHost: t\r\nX-Padding: ";
        for byte in head.iter().chain(std::iter::repeat(&b'a')).take(80) {
            if slow.write_all(std::slice::from_ref(byte)).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    });

    let clock = ibcm::obs::Stopwatch::start();
    let mut last = String::new();
    let served = loop {
        if clock.elapsed_seconds() > 3.0 {
            break false;
        }
        // A 503 can arrive as a reset (the acceptor closes without reading
        // the request), so read whatever comes and retry on anything else.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
        let mut reply = Vec::new();
        let _ = stream.read_to_end(&mut reply);
        last = String::from_utf8_lossy(&reply).into_owned();
        if last.starts_with("HTTP/1.1 200 ") {
            break true;
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(
        served,
        "a trickling client held the only slot for 3 s; last reply: {last:?}"
    );
    trickler.join().expect("trickler");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 2. Malformed-request fuzz.
// ---------------------------------------------------------------------------

#[test]
fn malformed_requests_get_typed_4xx_and_never_kill_the_server() {
    let (mut server, _service) = serve(1024);
    let addr = server.local_addr();

    // (request bytes, expected status) — each on its own connection.
    let cases: Vec<(Vec<u8>, u16)> = vec![
        // Garbage instead of a request line.
        (b"\x00\x01\x02\x03\r\n\r\n".to_vec(), 400),
        // Truncated head: header line without a colon.
        (b"GET /healthz HTTP/1.1\r\nHost\r\n\r\n".to_vec(), 400),
        // Missing Content-Length on POST.
        (b"POST /v1/events HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(), 411),
        // Bad Content-Length.
        (
            b"POST /v1/events HTTP/1.1\r\nContent-Length: banana\r\n\r\n".to_vec(),
            400,
        ),
        // Oversized declared body.
        (
            b"POST /v1/events HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n".to_vec(),
            413,
        ),
        // Chunked transfer encoding is not implemented.
        (
            b"POST /v1/events HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
            501,
        ),
        // Unsupported version.
        (b"GET /healthz HTTP/9.9\r\n\r\n".to_vec(), 501),
        // Unknown route.
        (b"GET /v1/nonsense HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(), 404),
        // Known route, wrong method.
        (b"DELETE /v1/events HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(), 405),
        // Bad NDJSON line.
        (
            b"POST /v1/events HTTP/1.1\r\nContent-Length: 15\r\n\r\n{\"user\":oops}\r\n".to_vec(),
            400,
        ),
        // Valid JSON, missing fields.
        (
            b"POST /v1/events HTTP/1.1\r\nContent-Length: 12\r\n\r\n{\"user\":123}".to_vec(),
            400,
        ),
        // Score body that is not an object.
        (
            b"POST /v1/score HTTP/1.1\r\nContent-Length: 7\r\n\r\n[1,2,3]".to_vec(),
            400,
        ),
        // Absurd nesting depth in the score body.
        (
            {
                let body = format!("{}1{}", "[".repeat(64), "]".repeat(64));
                format!(
                    "POST /v1/score HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                )
                .into_bytes()
            },
            400,
        ),
        // Bad query parameter.
        (
            b"GET /v1/alarms?cursor=minus-one HTTP/1.1\r\nHost: t\r\n\r\n".to_vec(),
            400,
        ),
        // Two conflicting Content-Length headers: framed by the first, the
        // trailing GET would be answered as a second, smuggled request.
        (
            [
                &b"POST /v1/events HTTP/1.1\r\nContent-Length: 32\r\nContent-Length: 70\r\n\r\n"[..],
                b"{\"user\":1,\"action\":2,\"minute\":3}",
                b"GET /v1/nonsense HTTP/1.1\r\nHost: t\r\n\r\n",
            ]
            .concat(),
            400,
        ),
        // A signed Content-Length is not a digit string.
        (
            b"POST /v1/events HTTP/1.1\r\nContent-Length: +33\r\n\r\n{\"user\":1,\"action\":2,\"minute\":3}\n"
                .to_vec(),
            400,
        ),
    ];

    for (raw, want) in &cases {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw).expect("write");
        // Half-close so a parser waiting for more bytes sees EOF instead
        // of hanging until the read timeout.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let resp = read_response(&mut stream);
        assert_eq!(
            resp.status,
            *want,
            "request {:?} -> {}",
            String::from_utf8_lossy(raw),
            resp.body
        );
        assert!(
            resp.body.contains("\"error\"") || resp.status < 400,
            "4xx must carry the error envelope: {}",
            resp.body
        );
        let mut rest = Vec::new();
        let _ = stream.read_to_end(&mut rest);
        assert!(
            rest.is_empty(),
            "request {:?} got a second response: {:?}",
            String::from_utf8_lossy(raw),
            String::from_utf8_lossy(&rest)
        );
    }

    // A truncated head that just stops (no terminator, no close) must be
    // cut off by the read timeout, not wedge a handler slot forever.
    // (Covered implicitly: the server still answers below.)
    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200, "server must survive the fuzz battery");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 3. Seeded backpressure flood.
// ---------------------------------------------------------------------------

#[test]
fn overload_returns_429_and_retries_converge_to_the_reference_stream() {
    let (dataset, _) = fixture();
    let events = ibcm::chaos::event_stream(dataset);
    let reference = reference_alarms(&events);

    // Queue capacity 2, batched posts: each request hands the supervisor
    // a 64-event burst to push in a tight loop, so a shard queue
    // overflows long before its worker (which pays full monitor compute
    // per event) can drain — unlike single-event posts, where a whole
    // HTTP round-trip elapses between pushes and the queue may never
    // fill on a fast machine.
    let (mut server, service) = serve(2);
    let addr = server.local_addr();
    let rejections = post_until_accepted(addr, &events, 64);
    assert!(
        rejections > 0,
        "a capacity-2 queue under 64-event bursts must produce 429s"
    );

    let mut wire_keys = page_all_alarms(addr, 100);
    server.shutdown();
    let report = service.drain().expect("drain");
    wire_keys.extend(report.alarms.iter().map(direct_alarm_key));

    let reference_keys: Vec<_> = reference.iter().map(direct_alarm_key).collect();
    assert_eq!(
        wire_keys, reference_keys,
        "retry-to-completion under backpressure must lose nothing and \
         reorder nothing"
    );

    // The 429s must be visible in the exposition (never a silent drop).
    let metrics = ibcm::obs::global().render_prometheus();
    assert!(
        metrics.contains("ibcm_http_backpressure_total"),
        "backpressure counter missing from exposition"
    );
}

#[test]
fn connection_admission_control_rejects_with_503() {
    let (_, detector) = fixture();
    let detector = Arc::new(detector.clone());
    let daemon = Daemon::new(
        Arc::clone(&detector),
        served_config(1024),
        CheckpointStore::memory(),
    )
    .expect("daemon");
    let config = HttpConfig::new().with_max_connections(1);
    let service = Arc::new(HttpService::new(detector, daemon, 1024, 1024));
    let mut server = HttpServer::bind(config, Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();

    // Hold one connection open (it occupies the only slot)...
    let mut held = TcpStream::connect(addr).expect("connect");
    held.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("write");
    let first = read_response(&mut held);
    assert_eq!(first.status, 200);

    // ...then new connections must be turned away, possibly after a few
    // tries (the acceptor races the handler's slot release).
    let mut saw_503 = false;
    for _ in 0..50 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .expect("write");
        let resp = read_response(&mut stream);
        if resp.status == 503 {
            assert!(resp.body.contains("\"overloaded\""), "{}", resp.body);
            saw_503 = true;
            break;
        }
        assert_eq!(resp.status, 200, "only 200 or 503 are acceptable here");
    }
    assert!(saw_503, "a held connection must eventually trip admission control");
    drop(held);
    server.shutdown();
}

// ---------------------------------------------------------------------------
// 4. The other two stop statuses: 409 after a drain, 503 from a shard out
//    of service. Both report how much of the batch was accepted.
// ---------------------------------------------------------------------------

fn ndjson(events: &[SessionEvent]) -> String {
    events.iter().map(|e| event_line(e) + "\n").collect()
}

#[test]
fn ingest_after_drain_returns_409_with_its_accepted_count() {
    let (dataset, _) = fixture();
    let events = ibcm::chaos::event_stream(dataset);
    let batch = &events[..3];
    let (mut server, service) = serve(1024);
    let addr = server.local_addr();
    let before = request(addr, "POST", "/v1/events", Some(&ndjson(batch)));
    assert_eq!(before.status, 200, "{}", before.body);
    service.drain().expect("drain");

    assert_eq!(
        service.ingest(batch),
        ibcm::http::IngestOutcome {
            accepted: 0,
            total: 3,
            status: ibcm::http::IngestStatus::Drained,
        }
    );
    let resp = request(addr, "POST", "/v1/events", Some(&ndjson(batch)));
    assert_eq!(resp.status, 409, "{}", resp.body);
    assert_eq!(json_field(&resp.body, "code"), Some("\"drained\""));
    assert_eq!(json_field(&resp.body, "accepted"), Some("0"));
    assert_eq!(json_field(&resp.body, "total"), Some("3"));
    server.shutdown();
}

#[test]
fn event_owned_by_a_failed_shard_returns_503_with_its_accepted_count() {
    let (_, detector) = fixture();
    let detector = Arc::new(detector.clone());
    // A restart budget of zero: the first crash takes the shard out of
    // service.
    let mut daemon = Daemon::new(
        Arc::clone(&detector),
        served_config(1024).with_supervision(0, 0, 0),
        CheckpointStore::memory(),
    )
    .expect("daemon construction");
    let dead = 1usize;
    let owned_by = |wanted: bool| {
        (0..)
            .map(ibcm::UserId)
            .find(|&u| (daemon.shard_for(u) == dead) == wanted)
            .expect("a user for every shard")
    };
    let event = |user| SessionEvent {
        user,
        action: ibcm::ActionId(0),
        minute: 0,
    };
    let batch = [
        event(owned_by(false)),
        event(owned_by(true)),
        event(owned_by(false)),
    ];

    daemon.kill_shard(dead).expect("kill");
    // The worker panics at its next command; supervision, which runs on
    // every daemon call, then finds the budget spent.
    let mut polls = 0;
    while daemon.failed_shards() != [dead] {
        polls += 1;
        assert!(polls < 6_000, "shard {dead} never failed");
        daemon.poll_alarms();
        std::thread::sleep(Duration::from_millis(5));
    }

    let service = Arc::new(HttpService::new(detector, daemon, 1024, 1024));
    assert_eq!(
        service.ingest(&batch),
        ibcm::http::IngestOutcome {
            accepted: 1,
            total: 3,
            status: ibcm::http::IngestStatus::ShardFailed { shard: dead },
        }
    );
    let mut server =
        HttpServer::bind(HttpConfig::new(), Arc::clone(&service)).expect("bind loopback");
    let addr = server.local_addr();
    let resp = request(addr, "POST", "/v1/events", Some(&ndjson(&batch)));
    assert_eq!(resp.status, 503, "{}", resp.body);
    assert_eq!(json_field(&resp.body, "code"), Some("\"shard_failed\""));
    assert_eq!(json_field(&resp.body, "accepted"), Some("1"));
    assert_eq!(json_field(&resp.body, "total"), Some("3"));
    server.shutdown();
    service.drain().expect("drain");
}
