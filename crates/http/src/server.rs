//! The transport: a blocking acceptor on an [`ibcm_par::spawn_managed`]
//! thread, one managed handler thread per admitted connection, and the
//! routing table mapping `(method, path)` onto [`HttpService`] calls.
//!
//! Admission control happens *before* any request byte is read: past
//! [`HttpConfig::max_connections`] the acceptor writes a `503` and closes.
//! This file is on the workspace's panic-free lint path — handler threads
//! turn every malformed request into a typed response, and a handler
//! thread can only die with the connection it owns.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use std::io::{BufReader, ErrorKind, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use ibcm_obs::Stopwatch;
use ibcm_par::{spawn_managed, ManagedHandle};
use ibcm_served::ServeError;

use crate::config::HttpConfig;
use crate::error::ApiError;
use crate::metrics::observe_request;
use crate::service::{
    alarms_page_json, parse_events, parse_score, ready_json, verdict_json, HttpService,
    IngestStatus,
};
use crate::wire::{read_request, Limits, Request, Response, WireError};

/// Default page size for `GET /v1/alarms` when `max` is absent.
pub const DEFAULT_ALARM_PAGE: usize = 1000;

/// The running server. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops the acceptor; in-flight handler
/// threads finish their current response and exit.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<ManagedHandle>,
}

struct Shared {
    service: Arc<HttpService>,
    config: HttpConfig,
    stop: Arc<AtomicBool>,
    active: AtomicUsize,
}

impl HttpServer {
    /// Binds `config.addr` and starts the acceptor thread.
    pub fn bind(config: HttpConfig, service: Arc<HttpService>) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            service,
            config,
            stop: Arc::clone(&stop),
            active: AtomicUsize::new(0),
        });
        let acceptor = spawn_managed("ibcm-http-accept", move || accept_loop(listener, shared))?;
        Ok(HttpServer {
            addr,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (resolves port `0` to the real ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the blocked acceptor, and joins it.
    /// Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The acceptor blocks in accept(); a throwaway connection to our
        // own port wakes it so it can observe the stop flag.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Admission control: reserve a slot before reading anything.
        let admitted = shared.active.fetch_add(1, Ordering::SeqCst) < shared.config.max_connections;
        if !admitted {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.service.metrics.connections_rejected.inc();
            let mut stream = stream;
            let _ = ApiError::new(
                503,
                "overloaded",
                "connection limit reached; retry shortly",
            )
            .with_retry_after(1)
            .into_response()
            .write_to(&mut stream, true);
            continue;
        }
        shared.service.metrics.connections.add(1);
        let conn_shared = Arc::clone(&shared);
        let spawned = spawn_managed("ibcm-http-conn", move || {
            handle_connection(stream, &conn_shared);
            conn_shared.active.fetch_sub(1, Ordering::SeqCst);
            conn_shared.service.metrics.connections.add(-1);
        });
        if spawned.is_err() {
            // Thread spawn failed (resource exhaustion): release the slot
            // — the closure that would have released it never ran.
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.service.metrics.connections.add(-1);
        }
        // On success the handle is dropped: handler threads are detached
        // and bounded by the admission counter, not by joins.
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared) {
    let limits = Limits {
        max_head_bytes: shared.config.max_head_bytes,
        max_body_bytes: shared.config.max_body_bytes,
    };
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(RequestReader {
        stream,
        timeout: Duration::from_millis(shared.config.read_timeout_ms),
        request: None,
    });
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        reader.get_mut().request = None;
        let request = match read_request(&mut reader, &limits) {
            Ok(request) => request,
            // Clean close, idle or request timeout: nothing to answer.
            Err(WireError::Closed) | Err(WireError::Timeout) | Err(WireError::Io(_)) => return,
            Err(e) => {
                let api = match e {
                    WireError::BadRequest(msg) => ApiError::bad_request(msg),
                    WireError::HeadTooLarge => {
                        ApiError::new(431, "head_too_large", "request head exceeds the limit")
                    }
                    WireError::BodyTooLarge => {
                        ApiError::new(413, "body_too_large", "request body exceeds the limit")
                    }
                    WireError::LengthRequired => {
                        ApiError::new(411, "length_required", "Content-Length is required")
                    }
                    WireError::Unsupported(msg) => ApiError::new(501, "unsupported", msg),
                    // Handled by the early return above.
                    WireError::Closed | WireError::Timeout | WireError::Io(_) => return,
                };
                let status = api.status;
                let _ = api.into_response().write_to(&mut writer, true);
                observe_request("error", status, 0.0);
                return;
            }
        };
        let close = request.close;
        let stopwatch = Stopwatch::start();
        let (route, response) = route(&shared.service, &request);
        let ok = response.write_to(&mut writer, close).is_ok();
        observe_request(route, response.status, stopwatch.elapsed_seconds());
        if close || !ok {
            return;
        }
    }
}

/// The socket under a connection's `BufReader`. The read timeout bounds
/// every read and, once a request's first byte has been read, the whole
/// request: each later read may wait only for what is left of that budget,
/// so a client trickling bytes cannot hold a connection slot past it.
/// The clock decides only when to give up on an incomplete request; it
/// never touches a response byte.
struct RequestReader {
    stream: TcpStream,
    timeout: Duration,
    /// Started at the current request's first byte; `None` while idle.
    request: Option<Stopwatch>,
}

impl Read for RequestReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let wait = match &self.request {
            None => self.timeout,
            Some(clock) => {
                let left = self.timeout.as_secs_f64() - clock.elapsed_seconds();
                match Duration::try_from_secs_f64(left) {
                    Ok(left) if !left.is_zero() => left,
                    _ => return Err(ErrorKind::TimedOut.into()),
                }
            }
        };
        self.stream.set_read_timeout(Some(wait))?;
        let n = self.stream.read(buf)?;
        if n > 0 && self.request.is_none() {
            self.request = Some(Stopwatch::start());
        }
        Ok(n)
    }
}

/// Routes one request. Returns the normalized route label (for metrics)
/// and the response.
fn route(service: &HttpService, request: &Request) -> (&'static str, Response) {
    let method = request.method.as_str();
    match request.path.as_str() {
        "/v1/events" => match method {
            "POST" => ("/v1/events", post_events(service, request)),
            _ => ("/v1/events", method_not_allowed("POST")),
        },
        "/v1/score" => match method {
            "POST" => ("/v1/score", post_score(service, request)),
            _ => ("/v1/score", method_not_allowed("POST")),
        },
        "/v1/alarms" => match method {
            "GET" => ("/v1/alarms", get_alarms(service, request)),
            _ => ("/v1/alarms", method_not_allowed("GET")),
        },
        "/v1/checkpoint" => match method {
            "POST" => ("/v1/checkpoint", post_checkpoint(service)),
            _ => ("/v1/checkpoint", method_not_allowed("POST")),
        },
        "/healthz" => match method {
            "GET" => ("/healthz", Response::text(200, "text/plain", "ok\n".to_string())),
            _ => ("/healthz", method_not_allowed("GET")),
        },
        "/readyz" => match method {
            "GET" => ("/readyz", get_ready(service)),
            _ => ("/readyz", method_not_allowed("GET")),
        },
        "/metrics" => match method {
            "GET" => (
                "/metrics",
                Response::text(
                    200,
                    "text/plain; version=0.0.4",
                    service.metrics_text(),
                ),
            ),
            _ => ("/metrics", method_not_allowed("GET")),
        },
        _ => (
            "other",
            ApiError::new(404, "not_found", format!("no route for {}", request.path))
                .into_response(),
        ),
    }
}

fn method_not_allowed(allow: &str) -> Response {
    ApiError::new(405, "method_not_allowed", format!("allowed: {allow}"))
        .into_response()
        .with_header("Allow", allow.to_string())
}

fn post_events(service: &HttpService, request: &Request) -> Response {
    let events = match parse_events(&request.body, service.max_batch_events()) {
        Ok(events) => events,
        Err(e) => return e.into_response(),
    };
    let outcome = service.ingest(&events);
    match outcome.status {
        IngestStatus::Complete => Response::json(
            200,
            format!("{{\"accepted\":{},\"status\":\"complete\"}}\n", outcome.accepted),
        ),
        IngestStatus::Backpressure { shard } => ApiError::new(
            429,
            "backpressure",
            format!(
                "shard {shard} ingest queue full; {} of {} events accepted — \
                 resubmit the suffix starting at index `accepted` after the \
                 delay",
                outcome.accepted, outcome.total
            ),
        )
        .with_retry_after(1)
        .with_field("accepted", outcome.accepted as u64)
        .with_field("total", outcome.total as u64)
        .into_response(),
        IngestStatus::ShardFailed { shard } => ApiError::new(
            503,
            "shard_failed",
            format!(
                "shard {shard} is out of service; {} of {} events accepted",
                outcome.accepted, outcome.total
            ),
        )
        .with_field("accepted", outcome.accepted as u64)
        .with_field("total", outcome.total as u64)
        .into_response(),
        IngestStatus::Drained => ApiError::new(
            409,
            "drained",
            format!(
                "daemon is drained; {} of {} events accepted",
                outcome.accepted, outcome.total
            ),
        )
        .with_field("accepted", outcome.accepted as u64)
        .with_field("total", outcome.total as u64)
        .into_response(),
    }
}

fn post_score(service: &HttpService, request: &Request) -> Response {
    match parse_score(&request.body) {
        Ok(actions) => Response::json(200, verdict_json(&service.score(&actions))),
        Err(e) => e.into_response(),
    }
}

fn get_alarms(service: &HttpService, request: &Request) -> Response {
    let cursor = match parse_query_u64(request, "cursor", 0) {
        Ok(v) => v,
        Err(e) => return e.into_response(),
    };
    let max = match parse_query_u64(request, "max", DEFAULT_ALARM_PAGE as u64) {
        Ok(v) => v,
        Err(e) => return e.into_response(),
    };
    let max = usize::try_from(max).unwrap_or(usize::MAX).min(DEFAULT_ALARM_PAGE);
    let page = service.alarms(cursor, max.max(1));
    Response::json(200, alarms_page_json(&page))
}

fn parse_query_u64(request: &Request, name: &str, default: u64) -> Result<u64, ApiError> {
    match request.query_param(name) {
        None => Ok(default),
        Some(raw) => raw.parse::<u64>().map_err(|_| {
            ApiError::bad_request(format!("query parameter {name:?} must be a non-negative integer"))
        }),
    }
}

fn post_checkpoint(service: &HttpService) -> Response {
    match service.checkpoint() {
        Ok(signalled) => Response::json(
            202,
            format!("{{\"signalled\":{signalled},\"status\":\"requested\"}}\n"),
        ),
        Err(ServeError::Drained) => {
            ApiError::new(409, "drained", "daemon is drained").into_response()
        }
        Err(e) => ApiError::new(503, "daemon_error", format!("{e}")).into_response(),
    }
}

fn get_ready(service: &HttpService) -> Response {
    let report = service.readiness();
    let status = if report.ready { 200 } else { 503 };
    Response::json(status, ready_json(&report))
}
