//! Zero-dependency HTTP/1.1 front end for the `ibcm-served` daemon.
//!
//! This crate is a *transport*, not a second implementation of the
//! detector: every request is a thin mapping onto the library API —
//! [`Daemon::try_ingest`](ibcm_served::Daemon::try_ingest),
//! [`MisuseDetector::score_session`](ibcm_core::MisuseDetector::score_session),
//! [`Daemon::poll_alarms`](ibcm_served::Daemon::poll_alarms) — and the
//! conformance suite (`tests/http_conformance.rs` at the workspace root)
//! proves the bytes that come back over the socket are identical to the
//! values those calls return in-process.
//!
//! # Endpoints
//!
//! | Method + path       | Library call                         |
//! |---------------------|--------------------------------------|
//! | `POST /v1/events`   | `Daemon::try_ingest` per NDJSON line |
//! | `POST /v1/score`    | `MisuseDetector::score_session`      |
//! | `GET /v1/alarms`    | `Daemon::poll_alarms`, cursor-paged  |
//! | `POST /v1/checkpoint` | `Daemon::request_checkpoint`          |
//! | `GET /healthz`      | liveness (no daemon state touched)   |
//! | `GET /readyz`       | failed-shard / drained readiness     |
//! | `GET /metrics`      | `ibcm_obs::global().render_prometheus()` |
//!
//! `API.md` at the repository root is the complete wire reference.
//!
//! # Architecture
//!
//! One acceptor thread (an [`ibcm_par::spawn_managed`] thread) blocks on
//! `TcpListener::accept` and hands each admitted connection to its own
//! managed handler thread. Admission control is a connection bound
//! ([`HttpConfig::max_connections`]): together with the per-request head
//! and body caps it bounds in-flight request bytes at
//! `max_connections * (max_head_bytes + max_body_bytes)`. Connections
//! beyond the bound are answered `503` and closed without reading the
//! request.
//!
//! The request parser ([`wire`]) and the JSON codec ([`json`]) are
//! hand-rolled over `std` only, and — together with the routing layer —
//! sit on the workspace's panic-free lint paths: malformed input maps to
//! typed `4xx` responses, never a worker panic.
//!
//! # Determinism boundary
//!
//! Everything *inside* a response body is deterministic: alarm pages
//! replay the daemon's merged stream in `seq` order, and floats are
//! serialized with Rust's shortest-roundtrip `Display`, so parsing them
//! back yields bit-identical `f32`s. What the socket does **not**
//! preserve is *interleaving*: concurrent clients race for the service
//! lock, so the assignment of events to arrival order (and therefore
//! alarm sequence numbers) is deterministic only per totally-ordered
//! client history, exactly like interleaved `ingest` calls in-process.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod json;
mod metrics;
pub mod server;
pub mod service;
pub mod wire;

pub use config::HttpConfig;
pub use error::ApiError;
pub use server::HttpServer;
pub use service::{AlarmsPage, HttpService, IngestOutcome, IngestStatus, ReadyReport};
