//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans stay in memory: per-name aggregates of every span, plus the
//! whole span tree under every [`SAMPLE_EVERY`]th root span. They are
//! written as JSON lines when the run ends. A disabled tracer reads no
//! clock and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ibcm_obs::Stopwatch;

/// Root spans whose tree is kept in full: the first and every
/// this-many-th after it.
pub const SAMPLE_EVERY: u64 = 1000;

/// An open span.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    start: f64,
    sampled: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct Aggregate {
    count: u64,
    total_s: f64,
    self_s: f64,
    max_s: f64,
}

#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: f64,
    end: f64,
}

/// A span recorder for one thread; merge recorders with [`Tracer::merge`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Stopwatch,
    next_id: u64,
    roots: u64,
    child_time: BTreeMap<u64, f64>,
    aggregates: BTreeMap<&'static str, Aggregate>,
    sampled: Vec<Span>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Stopwatch::start(),
            next_id: 1,
            roots: 0,
            child_time: BTreeMap::new(),
            aggregates: BTreeMap::new(),
            sampled: Vec::new(),
        }
    }

    /// A recorder for another thread: same switch and clock origin, span
    /// ids disjoint from this one's.
    pub fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            next_id: self.next_id + (1 << 40),
            ..Tracer::new(self.enabled)
        }
    }

    /// Opens a root span now; its tree is kept if it is the first or
    /// every [`SAMPLE_EVERY`]th root.
    pub fn open(&mut self) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                start: 0.0,
                sampled: false,
            };
        }
        let sampled = self.roots.is_multiple_of(SAMPLE_EVERY);
        self.roots += 1;
        self.open_with(self.origin.elapsed_seconds(), sampled)
    }

    fn open_with(&mut self, start: f64, sampled: bool) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open { id, start, sampled }
    }

    /// Closes `span` now as `name`, child of `parent`; `request` identifies
    /// the request or event the span belongs to.
    pub fn close(&mut self, span: Open, name: &'static str, parent: Option<&Open>, request: u64) {
        if self.enabled {
            let end = self.origin.elapsed_seconds();
            self.finish(span, end, name, parent, request);
        }
    }

    /// Records a finished child of `parent` covering `from_s..to_s`
    /// seconds after the parent opened. Children must be recorded before
    /// their parent closes.
    pub fn child(
        &mut self,
        parent: &Open,
        name: &'static str,
        request: u64,
        from_s: f64,
        to_s: f64,
    ) {
        if self.enabled {
            let span = self.open_with(parent.start + from_s, parent.sampled);
            self.finish(span, parent.start + to_s, name, Some(parent), request);
        }
    }

    fn finish(
        &mut self,
        span: Open,
        end: f64,
        name: &'static str,
        parent: Option<&Open>,
        request: u64,
    ) {
        let duration = end - span.start;
        let children = self.child_time.remove(&span.id).unwrap_or(0.0);
        if let Some(p) = parent {
            *self.child_time.entry(p.id).or_insert(0.0) += duration;
        }
        let agg = self.aggregates.entry(name).or_default();
        agg.count += 1;
        agg.total_s += duration;
        agg.self_s += duration - children;
        agg.max_s = agg.max_s.max(duration);
        if span.sampled {
            self.sampled.push(Span {
                id: span.id,
                parent: parent.map(|p| p.id),
                request,
                name,
                start: span.start,
                end,
            });
        }
    }

    /// Folds another thread's recorder into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, agg) in other.aggregates {
            let mine = self.aggregates.entry(name).or_default();
            mine.count += agg.count;
            mine.total_s += agg.total_s;
            mine.self_s += agg.self_s;
            mine.max_s = mine.max_s.max(agg.max_s);
        }
        self.sampled.extend(other.sampled);
    }

    /// The aggregates and sampled span trees as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (name, a) in &self.aggregates {
            let _ = writeln!(
                out,
                "{{\"type\":\"aggregate\",\"name\":\"{name}\",\"count\":{},\"total_s\":{},\
                 \"self_s\":{},\"mean_s\":{},\"max_s\":{}}}",
                a.count,
                a.total_s,
                a.self_s,
                a.total_s / a.count.max(1) as f64,
                a.max_s
            );
        }
        let mut spans = self.sampled.clone();
        spans.sort_by(|a, b| a.start.total_cmp(&b.start));
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"type\":\"span\",\"id\":{},\"parent\":{parent},\"request\":{},\
                 \"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.id, s.request, s.name, s.start, s.end
            );
        }
        out
    }
}
