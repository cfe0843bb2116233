//! Persistence for trained [`MisuseDetector`]s and live [`StreamMonitor`]
//! checkpoints.
//!
//! Two single-file binary formats live here:
//!
//! * **`IBCD`** — a trained detector. Version 2 wraps the payload (lock-in
//!   horizon, length-prefixed router bytes, length-prefixed per-cluster
//!   model bytes, optional fallback model) in a length + FNV-1a checksum
//!   envelope, so any truncation or single-byte corruption is rejected with
//!   [`CoreError::Persist`] instead of being parsed into garbage. Version 1
//!   files (no envelope, no fallback) are still readable.
//!
//!   [`MisuseDetector::from_bytes`] reads the bundle **zero-copy**: the
//!   checksum is verified over the borrowed payload in place, every inner
//!   block (router, each model) is handed to its decoder as a sub-slice of
//!   the input, and each tensor is materialized with one bulk conversion —
//!   so loading from a memory-mapped file allocates nothing but the final
//!   model parameters.
//! * **`IBCS`** — a checkpoint of a live [`StreamMonitor`]: the stream
//!   configuration, clock, fault counters and, per active session, the full
//!   prefix of fed actions. Restoring replays each prefix through a fresh
//!   per-session monitor, which is deterministic, so a restored monitor
//!   produces byte-identical downstream alarms to one that was never
//!   interrupted. The checkpoint stores a fingerprint of the detector it
//!   was taken against (cluster count, vocabulary, lock-in) and refuses to
//!   restore against a different one.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use ibcm_lm::LstmLm;
use ibcm_logsim::{ActionId, UserId};
use ibcm_ocsvm::ClusterRouter;

use crate::detector::MisuseDetector;
use crate::error::CoreError;
use crate::monitor::AlarmPolicy;
use crate::stream::{
    ClockPolicy, FaultAction, FaultCounters, FaultPolicy, SessionSnapshot, StreamConfig,
    StreamMonitor, StreamSnapshot,
};

const MAGIC: &[u8; 4] = b"IBCD";
const VERSION: u32 = 2;

const CKPT_MAGIC: &[u8; 4] = b"IBCS";
const CKPT_VERSION: u32 = 1;

/// FNV-1a over the payload. Multiplication by the odd FNV prime is a
/// bijection modulo 2^64, so two equal-length payloads differing in any
/// single byte always hash differently — exactly the corruption class the
/// envelope must catch.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn persist_err(msg: impl Into<String>) -> CoreError {
    CoreError::Persist(msg.into())
}

/// Wraps `payload` in the magic/version/length/checksum envelope.
fn envelope(magic: &[u8; 4], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(payload.len() + 24);
    buf.put_slice(magic);
    buf.put_u32_le(version);
    buf.put_u64_le(payload.len() as u64);
    buf.put_slice(payload);
    buf.put_u64_le(fnv1a(payload));
    buf.to_vec()
}

/// Opens a checksummed envelope: verifies the magic, version, length, and
/// FNV-1a checksum **in place** and returns `(version, payload)` with the
/// payload as a sub-slice of `data`. Nothing is copied, so the input can
/// be a memory-mapped region.
fn open_envelope<'a>(
    data: &'a [u8],
    magic: &[u8; 4],
    what: &str,
    versioned: impl Fn(u32) -> bool,
) -> Result<(u32, &'a [u8]), CoreError> {
    let header = data
        .split_first_chunk::<4>()
        .and_then(|(m, rest)| Some((m, rest.split_first_chunk::<4>()?)));
    let Some((m, (version, rest))) = header else {
        return Err(persist_err(format!("{what} header truncated")));
    };
    if m != magic {
        return Err(persist_err(format!("bad {what} magic {m:?}")));
    }
    let version = u32::from_le_bytes(*version);
    if !versioned(version) {
        return Err(persist_err(format!(
            "unsupported {what} format version {version}"
        )));
    }
    if version == 1 && magic == MAGIC {
        // Legacy detector files: no envelope; the rest is the payload.
        return Ok((version, rest));
    }
    let Some((len, rest)) = rest.split_first_chunk::<8>() else {
        return Err(persist_err(format!("{what} length truncated")));
    };
    let len = u64::from_le_bytes(*len) as usize;
    let (payload, stored) = match rest.split_last_chunk::<8>() {
        Some((payload, stored)) if payload.len() == len => (payload, u64::from_le_bytes(*stored)),
        _ => {
            return Err(persist_err(format!(
                "{what} payload length mismatch: header says {len}, {} bytes follow",
                rest.len().saturating_sub(8)
            )))
        }
    };
    if fnv1a(payload) != stored {
        return Err(persist_err(format!("{what} checksum mismatch")));
    }
    Ok((version, payload))
}

/// Borrowed cursor over an already-validated payload slice: every read is
/// bounds-checked into a typed [`CoreError::Persist`], and [`take`] /
/// [`block`] return sub-slices of the original input rather than copies.
///
/// [`take`]: SliceCursor::take
/// [`block`]: SliceCursor::block
struct SliceCursor<'a> {
    buf: &'a [u8],
}

impl<'a> SliceCursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        SliceCursor { buf }
    }

    fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CoreError> {
        if self.buf.len() < n {
            return Err(persist_err(format!("{what} truncated")));
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32_le(&mut self, what: &str) -> Result<u32, CoreError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A length-prefixed block, borrowed from the input.
    fn block(&mut self, what: &str) -> Result<&'a [u8], CoreError> {
        let len = self
            .take(8, &format!("{what} block header"))
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")) as usize)?;
        if self.buf.len() < len {
            return Err(persist_err(format!("{what} block body truncated")));
        }
        self.take(len, what)
    }
}

fn need(buf: &Bytes, bytes: usize, what: &str) -> Result<(), CoreError> {
    if buf.remaining() < bytes {
        return Err(persist_err(format!("{what} truncated")));
    }
    Ok(())
}

/// What [`MisuseDetector::from_bytes_lenient`] had to do to load the file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Clusters whose model bytes failed to deserialize; each now scores
    /// with the detector's fallback model instead.
    pub degraded_clusters: Vec<usize>,
}

impl LoadReport {
    /// `true` when every cluster model loaded from its own bytes.
    pub fn is_clean(&self) -> bool {
        self.degraded_clusters.is_empty()
    }
}

impl MisuseDetector {
    /// Serializes the detector to bytes (`IBCD` version 2).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = BytesMut::new();
        payload.put_u32_le(self.lock_in() as u32);
        let router_bytes = self.router().to_bytes();
        payload.put_u64_le(router_bytes.len() as u64);
        payload.put_slice(&router_bytes);
        payload.put_u32_le(self.n_clusters() as u32);
        for c in 0..self.n_clusters() {
            let model_bytes = self.model(ibcm_logsim::ClusterId(c)).to_bytes();
            payload.put_u64_le(model_bytes.len() as u64);
            payload.put_slice(&model_bytes);
        }
        match self.fallback() {
            Some(model) => {
                payload.put_u8(1);
                let bytes = model.to_bytes();
                payload.put_u64_le(bytes.len() as u64);
                payload.put_slice(&bytes);
            }
            None => payload.put_u8(0),
        }
        envelope(MAGIC, VERSION, &payload)
    }

    /// Reconstructs a detector from [`MisuseDetector::to_bytes`] output
    /// (version 2, checksummed) or a legacy version-1 file.
    ///
    /// The load is zero-copy end to end: the envelope checksum is verified
    /// over the borrowed input, each inner block is decoded from a
    /// sub-slice, and the LM tensors inside are bulk-converted straight
    /// into their final allocations ([`ibcm_lm::LstmLm::from_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] on malformed, truncated, or corrupted
    /// bytes — including any single-byte corruption of a version-2 file,
    /// which the envelope checksum catches.
    pub fn from_bytes(data: &[u8]) -> Result<Self, CoreError> {
        let (detector, report) = Self::parse(data, false)?;
        debug_assert!(report.is_clean());
        Ok(detector)
    }

    /// Like [`MisuseDetector::from_bytes`], but degrades instead of failing
    /// when a per-cluster model's bytes do not deserialize: the cluster is
    /// given the file's fallback model and listed in the returned
    /// [`LoadReport`]. Routing is unaffected.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] when the envelope, router, or
    /// fallback itself is corrupt, or when a cluster model is corrupt and
    /// the file carries no fallback to stand in for it.
    pub fn from_bytes_lenient(data: &[u8]) -> Result<(Self, LoadReport), CoreError> {
        Self::parse(data, true)
    }

    fn parse(data: &[u8], lenient: bool) -> Result<(Self, LoadReport), CoreError> {
        let (version, payload) = open_envelope(data, MAGIC, "detector", |v| v == 1 || v == 2)?;
        let mut payload = SliceCursor::new(payload);
        let lock_in = payload.u32_le("detector lock-in")? as usize;
        if lock_in == 0 {
            return Err(persist_err("lock_in must be positive"));
        }
        let router = ClusterRouter::from_bytes(payload.block("router")?)
            .map_err(|e| persist_err(e.to_string()))?;
        let n = payload.u32_le("model count")? as usize;
        if n != router.n_clusters() {
            return Err(persist_err(
                "model count disagrees with router clusters",
            ));
        }
        let mut models: Vec<Option<LstmLm>> = Vec::with_capacity(n);
        let mut report = LoadReport::default();
        for i in 0..n {
            let block = payload.block("model")?;
            match LstmLm::from_bytes(block) {
                Ok(model) => models.push(Some(model)),
                Err(e) if lenient => {
                    report.degraded_clusters.push(i);
                    models.push(None);
                    let _ = e;
                }
                Err(e) => return Err(persist_err(e.to_string())),
            }
        }
        let fallback = if version >= 2 {
            if payload.u8("fallback flag")? == 1 {
                let block = payload.block("fallback")?;
                Some(LstmLm::from_bytes(block).map_err(|e| persist_err(e.to_string()))?)
            } else {
                None
            }
        } else {
            None
        };
        if version >= 2 && payload.remaining() != 0 {
            return Err(persist_err(format!(
                "{} trailing bytes after detector payload",
                payload.remaining()
            )));
        }
        let models: Vec<LstmLm> = models
            .into_iter()
            .map(|m| match m {
                Some(model) => Ok(model),
                None => fallback.clone().ok_or_else(|| {
                    persist_err("cluster model corrupt and no fallback model present")
                }),
            })
            .collect::<Result<_, CoreError>>()?;
        let mut detector = MisuseDetector::new(router, models, lock_in);
        if let Some(fb) = fallback {
            detector = detector.with_fallback(fb);
        }
        Ok((detector, report))
    }

    /// Writes the detector to a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), CoreError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a detector written with [`MisuseDetector::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] or [`CoreError::Persist`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, CoreError> {
        let data = std::fs::read(path)?;
        MisuseDetector::from_bytes(&data)
    }
}

fn put_opt_u64(buf: &mut BytesMut, value: Option<u64>) {
    match value {
        Some(v) => {
            buf.put_u8(1);
            buf.put_u64_le(v);
        }
        None => buf.put_u8(0),
    }
}

fn get_opt_u64(buf: &mut Bytes, what: &str) -> Result<Option<u64>, CoreError> {
    need(buf, 1, what)?;
    if buf.get_u8() == 1 {
        need(buf, 8, what)?;
        Ok(Some(buf.get_u64_le()))
    } else {
        Ok(None)
    }
}

fn put_fault_action(buf: &mut BytesMut, action: FaultAction) {
    buf.put_u8(match action {
        FaultAction::Process => 0,
        FaultAction::Drop => 1,
    });
}

fn get_fault_action(buf: &mut Bytes, what: &str) -> Result<FaultAction, CoreError> {
    need(buf, 1, what)?;
    match buf.get_u8() {
        0 => Ok(FaultAction::Process),
        1 => Ok(FaultAction::Drop),
        x => Err(persist_err(format!("unknown {what} tag {x}"))),
    }
}

impl StreamMonitor<'_> {
    /// Serializes the monitor's full live state to `IBCS` checkpoint bytes.
    ///
    /// Active sessions are written in user-index order, so checkpoints of
    /// equal state are byte-identical.
    pub fn checkpoint(&self) -> Vec<u8> {
        let snap = self.snapshot();
        let detector = self.detector();
        let mut p = BytesMut::new();
        // Detector fingerprint: restoring against a different detector
        // would silently produce different alarms, so refuse instead.
        p.put_u32_le(detector.n_clusters() as u32);
        p.put_u32_le(detector.vocab_size() as u32);
        p.put_u32_le(detector.lock_in() as u32);
        // Stream configuration.
        p.put_u64_le(snap.config.session_timeout_minutes);
        p.put_u32_le(snap.config.end_actions.len() as u32);
        for a in &snap.config.end_actions {
            p.put_u64_le(a.index() as u64);
        }
        let pol = &snap.config.policy;
        p.put_f32_le(pol.likelihood_threshold);
        p.put_u32_le(pol.window as u32);
        p.put_u32_le(pol.warmup as u32);
        p.put_u32_le(pol.trend_window as u32);
        p.put_f32_le(pol.trend_drop_ratio);
        let f = &snap.config.faults;
        p.put_u8(match f.non_monotonic {
            ClockPolicy::Clamp => 0,
            ClockPolicy::Drop => 1,
        });
        put_fault_action(&mut p, f.duplicates);
        put_fault_action(&mut p, f.unknown_actions);
        put_fault_action(&mut p, f.unknown_users);
        put_opt_u64(&mut p, f.known_users.map(|v| v as u64));
        put_opt_u64(&mut p, f.max_active_sessions.map(|v| v as u64));
        // Live counters and clock.
        p.put_u64_le(snap.clock);
        let c = &snap.counters;
        for v in [
            c.non_monotonic,
            c.duplicate,
            c.unknown_action,
            c.unknown_user,
            c.dropped,
            c.shed,
        ] {
            p.put_u64_le(v);
        }
        p.put_u64_le(snap.sessions_started as u64);
        p.put_u64_le(snap.sessions_ended as u64);
        // Active sessions: bookkeeping plus the full fed-action prefix.
        p.put_u32_le(snap.sessions.len() as u32);
        for s in &snap.sessions {
            p.put_u64_le(s.user.index() as u64);
            p.put_u64_le(s.last_minute);
            put_opt_u64(&mut p, s.last_action.map(|a| a.index() as u64));
            p.put_u64_le(s.prefix.len() as u64);
            for a in &s.prefix {
                p.put_u64_le(a.index() as u64);
            }
        }
        envelope(CKPT_MAGIC, CKPT_VERSION, &p)
    }

    /// Writes an `IBCS` checkpoint to a file.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] on filesystem failures.
    pub fn save_checkpoint(&self, path: impl AsRef<std::path::Path>) -> Result<(), CoreError> {
        std::fs::write(path, self.checkpoint())?;
        Ok(())
    }
}

impl MisuseDetector {
    /// Rebuilds a live [`StreamMonitor`] from `IBCS` checkpoint bytes.
    ///
    /// Each session's fed-action prefix is replayed through a fresh
    /// per-session monitor; replay is deterministic, so the restored
    /// monitor's downstream alarms are byte-identical to those of a monitor
    /// that was never interrupted.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] on truncated or corrupted bytes (the
    /// envelope checksum catches any single-byte corruption) and when the
    /// checkpoint's detector fingerprint does not match this detector.
    pub fn restore_stream_monitor(&self, data: &[u8]) -> Result<StreamMonitor<'_>, CoreError> {
        let (_, payload) = open_envelope(data, CKPT_MAGIC, "checkpoint", |v| v == CKPT_VERSION)?;
        let mut p = Bytes::copy_from_slice(payload);
        need(&p, 12, "checkpoint fingerprint")?;
        let (n_clusters, vocab, lock_in) = (
            p.get_u32_le() as usize,
            p.get_u32_le() as usize,
            p.get_u32_le() as usize,
        );
        if n_clusters != self.n_clusters()
            || vocab != self.vocab_size()
            || lock_in != self.lock_in()
        {
            return Err(persist_err(format!(
                "checkpoint fingerprint ({n_clusters} clusters, vocab {vocab}, \
                 lock-in {lock_in}) does not match this detector \
                 ({} clusters, vocab {}, lock-in {})",
                self.n_clusters(),
                self.vocab_size(),
                self.lock_in()
            )));
        }
        need(&p, 8 + 4, "checkpoint config")?;
        let session_timeout_minutes = p.get_u64_le();
        let n_end = p.get_u32_le() as usize;
        let end_bytes = n_end
            .checked_mul(8)
            .ok_or_else(|| persist_err("end-action count overflow"))?;
        need(&p, end_bytes, "end actions")?;
        let mut end_actions = Vec::with_capacity(n_end);
        for _ in 0..n_end {
            end_actions.push(ActionId(p.get_u64_le() as usize));
        }
        need(&p, 4 + 4 * 4, "alarm policy")?;
        let policy = AlarmPolicy {
            likelihood_threshold: p.get_f32_le(),
            window: p.get_u32_le() as usize,
            warmup: p.get_u32_le() as usize,
            trend_window: p.get_u32_le() as usize,
            trend_drop_ratio: p.get_f32_le(),
        };
        need(&p, 1, "clock policy")?;
        let non_monotonic = match p.get_u8() {
            0 => ClockPolicy::Clamp,
            1 => ClockPolicy::Drop,
            x => return Err(persist_err(format!("unknown clock policy tag {x}"))),
        };
        let faults = FaultPolicy {
            non_monotonic,
            duplicates: get_fault_action(&mut p, "duplicate policy")?,
            unknown_actions: get_fault_action(&mut p, "unknown-action policy")?,
            unknown_users: get_fault_action(&mut p, "unknown-user policy")?,
            known_users: get_opt_u64(&mut p, "known-user bound")?.map(|v| v as usize),
            max_active_sessions: get_opt_u64(&mut p, "session cap")?.map(|v| v as usize),
        };
        need(&p, 8 * 9, "checkpoint counters")?;
        let clock = p.get_u64_le();
        let counters = FaultCounters {
            non_monotonic: p.get_u64_le(),
            duplicate: p.get_u64_le(),
            unknown_action: p.get_u64_le(),
            unknown_user: p.get_u64_le(),
            dropped: p.get_u64_le(),
            shed: p.get_u64_le(),
        };
        let sessions_started = p.get_u64_le() as usize;
        let sessions_ended = p.get_u64_le() as usize;
        need(&p, 4, "session count")?;
        let n_sessions = p.get_u32_le() as usize;
        let mut sessions = Vec::new();
        for _ in 0..n_sessions {
            need(&p, 8 + 8 + 1, "session record")?;
            let user = UserId(p.get_u64_le() as usize);
            let last_minute = p.get_u64_le();
            let last_action = get_opt_u64(&mut p, "session last action")?
                .map(|v| ActionId(v as usize));
            need(&p, 8, "session prefix length")?;
            let n_prefix = p.get_u64_le() as usize;
            let prefix_bytes = n_prefix
                .checked_mul(8)
                .ok_or_else(|| persist_err("session prefix overflow"))?;
            need(&p, prefix_bytes, "session prefix")?;
            let mut prefix = Vec::with_capacity(n_prefix);
            for _ in 0..n_prefix {
                prefix.push(ActionId(p.get_u64_le() as usize));
            }
            sessions.push(SessionSnapshot {
                user,
                last_minute,
                last_action,
                prefix,
            });
        }
        if p.remaining() != 0 {
            return Err(persist_err(format!(
                "{} trailing bytes after checkpoint payload",
                p.remaining()
            )));
        }
        Ok(self.stream_from_snapshot(StreamSnapshot {
            config: StreamConfig {
                session_timeout_minutes,
                end_actions,
                policy,
                faults,
            },
            clock,
            counters,
            sessions_started,
            sessions_ended,
            sessions,
        }))
    }

    /// Loads an `IBCS` checkpoint written with
    /// [`StreamMonitor::save_checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Io`] or [`CoreError::Persist`].
    pub fn load_stream_monitor(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<StreamMonitor<'_>, CoreError> {
        let data = std::fs::read(path)?;
        self.restore_stream_monitor(&data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::SessionEvent;
    use ibcm_lm::LmTrainConfig;
    use ibcm_logsim::ActionId;
    use ibcm_ocsvm::{OcSvm, OcSvmConfig, SessionFeaturizer};

    fn detector() -> MisuseDetector {
        let vocab = 4;
        let featurizer = SessionFeaturizer::new(vocab, true);
        let seqs: Vec<Vec<usize>> = (0..15).map(|_| vec![0, 1, 2, 3, 0, 1]).collect();
        let feats: Vec<Vec<f64>> = seqs
            .iter()
            .map(|s| {
                let acts: Vec<ActionId> = s.iter().map(|&t| ActionId(t)).collect();
                featurizer.features(&acts)
            })
            .collect();
        let svm = OcSvm::train(&feats, &OcSvmConfig::default()).unwrap();
        let router = ibcm_ocsvm::ClusterRouter::new(vec![svm], featurizer);
        let lm = LstmLm::train(
            &LmTrainConfig {
                vocab,
                hidden: 6,
                epochs: 4,
                batch_size: 4,
                patience: 0,
                ..LmTrainConfig::default()
            },
            &seqs,
            &[],
        )
        .unwrap();
        MisuseDetector::new(router, vec![lm], 15)
    }

    fn fallback_lm() -> LstmLm {
        let seqs: Vec<Vec<usize>> = (0..15).map(|_| vec![3, 2, 1, 0, 3, 2]).collect();
        LstmLm::train(
            &LmTrainConfig {
                vocab: 4,
                hidden: 6,
                epochs: 4,
                batch_size: 4,
                patience: 0,
                seed: 99,
                ..LmTrainConfig::default()
            },
            &seqs,
            &[],
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_verdicts() {
        let d = detector();
        let back = MisuseDetector::from_bytes(&d.to_bytes()).unwrap();
        let acts: Vec<ActionId> = [0usize, 1, 2, 3, 0].iter().map(|&t| ActionId(t)).collect();
        assert_eq!(d.score_session(&acts), back.score_session(&acts));
        assert_eq!(back.lock_in(), 15);
        assert_eq!(back.n_clusters(), 1);
        assert!(back.fallback().is_none());
    }

    #[test]
    fn round_trip_preserves_fallback() {
        let d = detector().with_fallback(fallback_lm());
        let back = MisuseDetector::from_bytes(&d.to_bytes()).unwrap();
        let fb = back.fallback().expect("fallback should round-trip");
        assert_eq!(
            fb.score_session(&[0, 1, 2]),
            d.fallback().unwrap().score_session(&[0, 1, 2])
        );
    }

    #[test]
    fn truncation_fails_cleanly() {
        let bytes = detector().to_bytes();
        for cut in [0usize, 3, 11, 40, bytes.len() - 1] {
            assert!(
                MisuseDetector::from_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn any_single_byte_corruption_rejected() {
        // The envelope checksum must catch a flip at *every* offset; probe a
        // spread of positions including the header, lengths, and checksum.
        let bytes = detector().to_bytes();
        let step = (bytes.len() / 97).max(1);
        for i in (0..bytes.len()).step_by(step).chain([bytes.len() / 2]) {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                matches!(MisuseDetector::from_bytes(&bad), Err(CoreError::Persist(_))),
                "flip at byte {i} must be rejected"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = detector().to_bytes();
        bytes[1] = b'?';
        assert!(matches!(
            MisuseDetector::from_bytes(&bytes),
            Err(CoreError::Persist(_))
        ));
    }

    #[test]
    fn legacy_file_with_inconsistent_router_is_rejected() {
        // A version-1 file is the version-2 payload without the fallback
        // flag and without the checksummed envelope, so nothing upstream of
        // the router decoder catches a corrupt router byte.
        let bytes = detector().to_bytes();
        let payload = &bytes[16..bytes.len() - 8];
        assert_eq!(payload.last(), Some(&0), "no fallback model");
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&payload[..payload.len() - 1]);
        assert!(MisuseDetector::from_bytes(&v1).is_ok());
        // Payload layout: lock_in u32, router length u64, then the router,
        // whose first byte is the low byte of the featurizer's vocabulary.
        let vocab_byte = 8 + 4 + 8;
        assert_eq!(v1[vocab_byte], 4);
        v1[vocab_byte] = 5;
        assert!(matches!(
            MisuseDetector::from_bytes(&v1),
            Err(CoreError::Persist(_))
        ));
    }

    #[test]
    fn zero_copy_load_round_trips_bytes() {
        let d = detector().with_fallback(fallback_lm());
        let bytes = d.to_bytes();
        let zero_copy = MisuseDetector::from_bytes(&bytes).unwrap();
        assert_eq!(zero_copy.to_bytes(), bytes, "zero-copy load round-trips");
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ibcm_core_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("detector.ibcd");
        let d = detector();
        d.save(&path).unwrap();
        let back = MisuseDetector::load(&path).unwrap();
        let acts: Vec<ActionId> = [0usize, 1, 2].iter().map(|&t| ActionId(t)).collect();
        assert_eq!(d.score_session(&acts), back.score_session(&acts));
        std::fs::remove_file(&path).ok();
    }

    /// Corrupts the cluster-0 model block *and recomputes the envelope
    /// checksum*, simulating a file whose writer persisted bad model bytes
    /// (e.g. an inner-format version skew) rather than transport corruption.
    fn corrupt_model_block(d: &MisuseDetector) -> Vec<u8> {
        let bytes = d.to_bytes();
        let mut payload = bytes[16..bytes.len() - 8].to_vec();
        // Payload layout: lock_in u32, router block (u64 len + body),
        // model count u32, then the first model block.
        let router_len =
            u64::from_le_bytes(payload[4..12].try_into().unwrap()) as usize;
        let model0 = 4 + 8 + router_len + 4 + 8;
        payload[model0 + 6] = 0xEE; // inside the model's own header
        envelope(MAGIC, VERSION, &payload)
    }

    #[test]
    fn strict_load_rejects_corrupt_model_block() {
        let d = detector().with_fallback(fallback_lm());
        let bad = corrupt_model_block(&d);
        assert!(matches!(
            MisuseDetector::from_bytes(&bad),
            Err(CoreError::Persist(_))
        ));
    }

    #[test]
    fn lenient_load_degrades_to_fallback() {
        let d = detector().with_fallback(fallback_lm());
        let bad = corrupt_model_block(&d);
        let (degraded, report) = MisuseDetector::from_bytes_lenient(&bad).unwrap();
        assert_eq!(report.degraded_clusters, vec![0]);
        assert!(!report.is_clean());
        // Cluster 0 now scores with the fallback model.
        let acts: Vec<ActionId> = [0usize, 1, 2, 3].iter().map(|&t| ActionId(t)).collect();
        let got = degraded.score_in_cluster(&acts, ibcm_logsim::ClusterId(0));
        let want = d.fallback().unwrap().score_session(&d.encode(&acts));
        assert_eq!(got, want);
    }

    #[test]
    fn lenient_load_without_fallback_fails() {
        let d = detector(); // no fallback attached
        let bad = corrupt_model_block(&d);
        assert!(matches!(
            MisuseDetector::from_bytes_lenient(&bad),
            Err(CoreError::Persist(_))
        ));
    }

    #[test]
    fn lenient_load_of_clean_file_is_clean() {
        let d = detector();
        let (_, report) = MisuseDetector::from_bytes_lenient(&d.to_bytes()).unwrap();
        assert!(report.is_clean());
    }

    #[test]
    fn checkpoint_round_trip_preserves_state() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig::default());
        for (u, a, m) in [(0, 0, 1), (1, 3, 2), (0, 1, 3), (2, 2, 4), (1, 0, 5)] {
            sm.observe(SessionEvent {
                user: UserId(u),
                action: ActionId(a),
                minute: m,
            });
        }
        let bytes = sm.checkpoint();
        let restored = d.restore_stream_monitor(&bytes).unwrap();
        assert_eq!(restored.active_sessions(), sm.active_sessions());
        assert_eq!(restored.sessions_started(), sm.sessions_started());
        assert_eq!(restored.sessions_ended(), sm.sessions_ended());
        assert_eq!(restored.clock_minute(), sm.clock_minute());
        assert_eq!(restored.fault_counters(), sm.fault_counters());
        assert_eq!(restored.config(), sm.config());
        // The restored monitor's next checkpoint is byte-identical.
        assert_eq!(restored.checkpoint(), bytes);
    }

    #[test]
    fn checkpoint_corruption_and_truncation_rejected() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig::default());
        sm.observe(SessionEvent {
            user: UserId(0),
            action: ActionId(0),
            minute: 1,
        });
        let bytes = sm.checkpoint();
        for cut in [0usize, 5, 17, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    d.restore_stream_monitor(&bytes[..cut]),
                    Err(CoreError::Persist(_))
                ),
                "cut {cut}"
            );
        }
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x08;
            assert!(
                matches!(
                    d.restore_stream_monitor(&bad),
                    Err(CoreError::Persist(_))
                ),
                "flip at byte {i}"
            );
        }
    }

    #[test]
    fn checkpoint_refuses_foreign_detector() {
        let d = detector();
        let sm = d.stream_monitor(StreamConfig::default());
        let bytes = sm.checkpoint();
        // A detector with a different lock-in horizon is not the one the
        // checkpoint was taken against.
        let (router, models, _) = detector().into_parts();
        let other = MisuseDetector::new(router, models, 7);
        assert!(matches!(
            other.restore_stream_monitor(&bytes),
            Err(CoreError::Persist(_))
        ));
    }
}
