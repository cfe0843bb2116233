//! The semantic layer between routes and the library: request bodies are
//! decoded into library types here, library results are serialized here,
//! and the daemon sits behind one service lock.
//!
//! Nothing in this module makes a detection decision — every method is a
//! mapping onto [`Daemon`] / [`MisuseDetector`] calls, which is what lets
//! the conformance suite assert byte-identity between wire results and
//! in-process results. This file is on the workspace's panic-free lint
//! path: malformed bodies are typed errors, and the service lock is
//! recovered (not unwrapped) on poisoning.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing)]

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use ibcm_core::{MisuseDetector, SessionEvent, SessionVerdict, StreamAlarmKind};
use ibcm_logsim::{ActionId, UserId};
use ibcm_served::{Daemon, DrainReport, MergedAlarm, ServeError};

use crate::error::ApiError;
use crate::json::{self, fmt_f32, JsonValue};
use crate::metrics::HttpMetrics;

/// Outcome of one ingest batch. `accepted` events are in the daemon;
/// on a non-[`IngestStatus::Complete`] status the remaining
/// `total - accepted` events were *not* ingested and the client must
/// resubmit them (the batch is applied strictly in order, so the suffix
/// starting at `accepted` is exactly what is missing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestOutcome {
    /// Events handed to the daemon.
    pub accepted: usize,
    /// Events in the request.
    pub total: usize,
    /// Why ingestion stopped (or didn't).
    pub status: IngestStatus,
}

/// Why an ingest batch stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestStatus {
    /// Every event was admitted.
    Complete,
    /// A shard's ingest queue was full → `429` + `Retry-After`.
    Backpressure {
        /// The shard whose queue was full.
        shard: usize,
    },
    /// A shard is out of service (restart budget exhausted) → `503`.
    ShardFailed {
        /// The failed shard.
        shard: usize,
    },
    /// The daemon has been drained and accepts no more events → `409`.
    Drained,
}

/// One page of the merged alarm stream.
#[derive(Debug, Clone)]
pub struct AlarmsPage {
    /// Alarms with `seq > cursor`, in `seq` order.
    pub alarms: Vec<MergedAlarm>,
    /// Pass this as the next request's `cursor` to continue.
    pub next_cursor: u64,
    /// Alarms discarded from the paging buffer since the server started
    /// (clients that fall more than `alarm_buffer` alarms behind lose the
    /// oldest; the count makes that loss visible, never silent).
    pub dropped: u64,
}

/// The readiness snapshot behind `GET /readyz`.
#[derive(Debug, Clone)]
pub struct ReadyReport {
    /// Ready to serve: no failed shards and not drained.
    pub ready: bool,
    /// Shards out of service.
    pub failed_shards: Vec<usize>,
    /// Whether the daemon has been drained.
    pub drained: bool,
    /// Worker restarts so far (supervision is working, not a readiness
    /// failure — surfaced for operators).
    pub restarts: u64,
}

struct DaemonState {
    daemon: Daemon,
    /// Alarms already pulled from the daemon, retained for cursor paging.
    log: VecDeque<MergedAlarm>,
    /// Oldest alarms discarded to honor the buffer bound.
    dropped: u64,
}

/// The shared service: one detector (lock-free scoring) and one daemon
/// behind a lock (ingest, alarms, checkpoints, readiness).
pub struct HttpService {
    detector: Arc<MisuseDetector>,
    state: Mutex<DaemonState>,
    alarm_buffer: usize,
    max_batch_events: usize,
    pub(crate) metrics: HttpMetrics,
}

impl HttpService {
    /// Wraps a daemon and its detector. `alarm_buffer` bounds the paging
    /// log; `max_batch_events` bounds one `POST /v1/events` request.
    pub fn new(
        detector: Arc<MisuseDetector>,
        daemon: Daemon,
        alarm_buffer: usize,
        max_batch_events: usize,
    ) -> HttpService {
        HttpService {
            detector,
            state: Mutex::new(DaemonState {
                daemon,
                log: VecDeque::new(),
                dropped: 0,
            }),
            alarm_buffer: alarm_buffer.max(1),
            max_batch_events: max_batch_events.max(1),
            metrics: HttpMetrics::resolve(),
        }
    }

    /// The events-per-request bound (for error messages and docs).
    pub fn max_batch_events(&self) -> usize {
        self.max_batch_events
    }

    fn lock(&self) -> MutexGuard<'_, DaemonState> {
        // A poisoned lock means a handler thread panicked mid-request;
        // the daemon itself is crash-isolated per shard, so recovering
        // the guard is safe and keeps the front end serving.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Ingests `events` in order via [`Daemon::try_ingest`], stopping at
    /// the first rejection. Never blocks on a full queue — backpressure
    /// is reported, not absorbed.
    pub fn ingest(&self, events: &[SessionEvent]) -> IngestOutcome {
        let mut state = self.lock();
        let mut accepted = 0usize;
        let mut status = IngestStatus::Complete;
        for event in events {
            let Err(err) = state.daemon.try_ingest(*event) else {
                accepted += 1;
                continue;
            };
            status = match err {
                ServeError::Backpressure { shard } => {
                    self.metrics.backpressure.inc();
                    IngestStatus::Backpressure { shard }
                }
                ServeError::Drained => IngestStatus::Drained,
                ServeError::ShardFailed { shard } | ServeError::UnknownShard { shard } => {
                    IngestStatus::ShardFailed { shard }
                }
                // Spawn/Io/Core failures surface as a failed shard on the
                // event's own shard.
                _ => IngestStatus::ShardFailed {
                    shard: state.daemon.shard_for(event.user),
                },
            };
            break;
        }
        self.metrics.events_ingested.add(accepted as u64);
        IngestOutcome {
            accepted,
            total: events.len(),
            status,
        }
    }

    /// Scores a completed session. Pure and lock-free: goes straight to
    /// [`MisuseDetector::score_session`] (OOV-safe, empty-safe).
    pub fn score(&self, actions: &[ActionId]) -> SessionVerdict {
        self.detector.score_session(actions)
    }

    /// Returns alarms with `seq > cursor`, at most `max`. Newly released
    /// daemon alarms are pulled into the paging log first, so a page is
    /// always up to date with what the daemon has merged.
    pub fn alarms(&self, cursor: u64, max: usize) -> AlarmsPage {
        let mut state = self.lock();
        let fresh = state.daemon.poll_alarms();
        state.log.extend(fresh);
        while state.log.len() > self.alarm_buffer {
            state.log.pop_front();
            state.dropped += 1;
        }
        let alarms: Vec<MergedAlarm> = state
            .log
            .iter()
            .filter(|m| m.seq > cursor)
            .take(max)
            .cloned()
            .collect();
        let next_cursor = alarms.last().map_or(cursor, |m| m.seq);
        AlarmsPage {
            alarms,
            next_cursor,
            dropped: state.dropped,
        }
    }

    /// Requests an on-demand checkpoint from every live shard. Returns
    /// how many shards were signalled; the write itself completes when
    /// each worker next drains its queue (hence `202` on the wire).
    pub fn checkpoint(&self) -> Result<usize, ServeError> {
        self.lock().daemon.request_checkpoint()
    }

    /// The readiness snapshot.
    pub fn readiness(&self) -> ReadyReport {
        let state = self.lock();
        let failed_shards = state.daemon.failed_shards();
        let drained = state.daemon.is_drained();
        ReadyReport {
            ready: failed_shards.is_empty() && !drained,
            failed_shards,
            drained,
            restarts: state.daemon.restarts(),
        }
    }

    /// Renders the process-wide Prometheus exposition.
    pub fn metrics_text(&self) -> String {
        ibcm_obs::global().render_prometheus()
    }

    /// Drains the daemon (final checkpoints, merged-stream close). The
    /// report's `alarms` are the leftovers never returned by a page.
    pub fn drain(&self) -> Result<DrainReport, ServeError> {
        self.lock().daemon.drain()
    }
}

// ---------------------------------------------------------------------------
// Body decoding: wire JSON -> library types.
// ---------------------------------------------------------------------------

fn event_from_json(value: &JsonValue, line: usize) -> Result<SessionEvent, ApiError> {
    let field = |key: &str| {
        value.get(key).and_then(JsonValue::as_u64).ok_or_else(|| {
            ApiError::bad_request(format!(
                "line {line}: expected an object with non-negative integer \
                 fields \"user\", \"action\", \"minute\""
            ))
        })
    };
    let user = field("user")?;
    let action = field("action")?;
    let minute = field("minute")?;
    let narrow = |v: u64| {
        usize::try_from(v).map_err(|_| {
            ApiError::bad_request(format!("line {line}: id {v} exceeds the platform word size"))
        })
    };
    Ok(SessionEvent {
        user: UserId(narrow(user)?),
        action: ActionId(narrow(action)?),
        minute,
    })
}

/// Decodes a `POST /v1/events` body: NDJSON, one event object per line
/// (a single-line body is the single-event case). The whole body is
/// validated before anything is ingested — a bad line anywhere means a
/// `400` and zero events admitted.
pub fn parse_events(body: &[u8], max_batch: usize) -> Result<Vec<SessionEvent>, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("body is not valid utf-8"))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if events.len() == max_batch {
            return Err(ApiError::new(
                400,
                "batch_too_large",
                format!("more than {max_batch} events in one request"),
            ));
        }
        let value = json::parse(line.as_bytes()).map_err(|e| {
            ApiError::bad_request(format!("line {}: invalid JSON: {}", i + 1, e.message))
        })?;
        events.push(event_from_json(&value, i + 1)?);
    }
    if events.is_empty() {
        return Err(ApiError::bad_request("no events in request body"));
    }
    Ok(events)
}

/// Decodes a `POST /v1/score` body: `{"actions": [id, ...]}`.
pub fn parse_score(body: &[u8]) -> Result<Vec<ActionId>, ApiError> {
    let value = json::parse(body)
        .map_err(|e| ApiError::bad_request(format!("invalid JSON: {}", e.message)))?;
    let actions = value
        .get("actions")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| ApiError::bad_request("expected {\"actions\": [id, ...]}"))?;
    let mut ids = Vec::with_capacity(actions.len());
    for (i, a) in actions.iter().enumerate() {
        let id = a.as_usize().ok_or_else(|| {
            ApiError::bad_request(format!("actions[{i}] is not a non-negative integer"))
        })?;
        ids.push(ActionId(id));
    }
    Ok(ids)
}

// ---------------------------------------------------------------------------
// Result serialization: library types -> wire JSON.
// ---------------------------------------------------------------------------

/// Serializes a verdict. Floats use shortest-roundtrip `Display`
/// ([`fmt_f32`]), so parsing them back yields bit-identical values.
pub fn verdict_json(verdict: &SessionVerdict) -> String {
    format!(
        "{{\"cluster\":{},\"score\":{{\"avg_likelihood\":{},\"avg_loss\":{},\
         \"n_predictions\":{},\"perplexity\":{}}}}}\n",
        verdict.cluster.index(),
        fmt_f32(verdict.score.avg_likelihood),
        fmt_f32(verdict.score.avg_loss),
        verdict.score.n_predictions,
        fmt_f32(verdict.score.perplexity()),
    )
}

/// Serializes one merged alarm.
pub fn alarm_json(m: &MergedAlarm) -> String {
    let likelihood = match m.alarm.windowed_likelihood {
        Some(v) => fmt_f32(v),
        None => "null".to_string(),
    };
    let kind = match m.alarm.kind {
        StreamAlarmKind::Score => "score",
        StreamAlarmKind::Shed => "shed",
    };
    format!(
        "{{\"seq\":{},\"shard\":{},\"user\":{},\"position\":{},\"minute\":{},\
         \"windowed_likelihood\":{},\"trend\":{},\"kind\":\"{}\"}}",
        m.seq,
        m.shard,
        m.alarm.user.index(),
        m.alarm.position,
        m.alarm.minute,
        likelihood,
        m.alarm.trend,
        kind,
    )
}

/// Serializes an alarm page.
pub fn alarms_page_json(page: &AlarmsPage) -> String {
    let mut out = String::from("{\"alarms\":[");
    for (i, m) in page.alarms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&alarm_json(m));
    }
    out.push_str(&format!(
        "],\"next_cursor\":{},\"dropped\":{}}}\n",
        page.next_cursor, page.dropped
    ));
    out
}

/// Serializes the readiness report.
pub fn ready_json(report: &ReadyReport) -> String {
    let mut out = format!(
        "{{\"ready\":{},\"failed_shards\":[",
        report.ready
    );
    for (i, s) in report.failed_shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&s.to_string());
    }
    out.push_str(&format!(
        "],\"drained\":{},\"restarts\":{}}}\n",
        report.drained, report.restarts
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_single_and_batch() {
        let one = parse_events(br#"{"user":1,"action":2,"minute":3}"#, 10).unwrap();
        assert_eq!(
            one,
            vec![SessionEvent {
                user: UserId(1),
                action: ActionId(2),
                minute: 3
            }]
        );
        let batch = parse_events(
            b"{\"user\":1,\"action\":2,\"minute\":3}\n\n{\"user\":4,\"action\":5,\"minute\":6}\n",
            10,
        )
        .unwrap();
        assert_eq!(batch.len(), 2);
    }

    #[test]
    fn bad_lines_reject_whole_batch() {
        let body = b"{\"user\":1,\"action\":2,\"minute\":3}\n{\"user\":}\n";
        let err = parse_events(body, 10).unwrap_err();
        assert_eq!(err.status, 400);
        assert!(err.message.contains("line 2"));

        let missing = parse_events(br#"{"user":1,"minute":3}"#, 10).unwrap_err();
        assert!(missing.message.contains("line 1"));

        let negative = parse_events(br#"{"user":-1,"action":2,"minute":3}"#, 10).unwrap_err();
        assert_eq!(negative.status, 400);

        assert_eq!(parse_events(b"", 10).unwrap_err().status, 400);
        assert_eq!(
            parse_events(b"{\"user\":1,\"action\":2,\"minute\":3}\n{\"user\":1,\"action\":2,\"minute\":3}", 1)
                .unwrap_err()
                .code,
            "batch_too_large"
        );
    }

    #[test]
    fn parses_score_body() {
        assert_eq!(
            parse_score(br#"{"actions":[0,1,2]}"#).unwrap(),
            vec![ActionId(0), ActionId(1), ActionId(2)]
        );
        assert_eq!(parse_score(br#"{"actions":[]}"#).unwrap(), Vec::new());
        assert!(parse_score(br#"{"actions":[1.5]}"#).is_err());
        assert!(parse_score(br#"[1,2]"#).is_err());
    }
}
