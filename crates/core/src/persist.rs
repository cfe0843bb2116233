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

use bytes::{BufMut, BytesMut};
use ibcm_lm::LstmLm;
use ibcm_logsim::{ActionId, UserId};
use ibcm_nn::serialize::SliceReader;
use ibcm_nn::NnError;
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

/// A [`SliceReader`] failure as a persistence error.
fn read_err(e: NnError) -> CoreError {
    persist_err(e.to_string())
}

/// A length-prefixed block, borrowed from the input. The `u64` length is
/// checked against the remaining bytes before anything is taken.
fn block<'a>(r: &mut SliceReader<'a>, what: &str) -> Result<&'a [u8], NnError> {
    let len = r.u64_le(&format!("{what} block header"))?;
    r.take(usize::try_from(len).unwrap_or(usize::MAX), what)
}

/// `n` little-endian `u64`s. All `8 * n` bytes are taken before anything
/// is decoded, so a huge decoded count fails as truncation and never sizes
/// an allocation.
fn u64s(r: &mut SliceReader<'_>, n: u64, what: &str) -> Result<Vec<u64>, NnError> {
    let bytes = n
        .checked_mul(8)
        .and_then(|b| usize::try_from(b).ok())
        .ok_or_else(|| NnError::Deserialize(format!("{what} count {n} overflows")))?;
    let mut body = SliceReader::new(r.take(bytes, what)?);
    (0..n).map(|_| body.u64_le(what)).collect()
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
        let mut payload = SliceReader::new(payload);
        let lock_in = payload.u32_le("detector lock-in").map_err(read_err)? as usize;
        if lock_in == 0 {
            return Err(persist_err("lock_in must be positive"));
        }
        let router = ClusterRouter::from_bytes(block(&mut payload, "router").map_err(read_err)?)
            .map_err(|e| persist_err(e.to_string()))?;
        let n = payload.u32_le("model count").map_err(read_err)? as usize;
        if n != router.n_clusters() {
            return Err(persist_err(
                "model count disagrees with router clusters",
            ));
        }
        let mut models: Vec<Option<LstmLm>> = Vec::new();
        let mut report = LoadReport::default();
        for i in 0..n {
            let block = block(&mut payload, "model").map_err(read_err)?;
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
            if payload.u8("fallback flag").map_err(read_err)? == 1 {
                let block = block(&mut payload, "fallback").map_err(read_err)?;
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

fn get_opt_u64(r: &mut SliceReader<'_>, what: &str) -> Result<Option<u64>, NnError> {
    if r.u8(what)? == 1 {
        Ok(Some(r.u64_le(what)?))
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

fn get_fault_action(r: &mut SliceReader<'_>, what: &str) -> Result<FaultAction, NnError> {
    match r.u8(what)? {
        0 => Ok(FaultAction::Process),
        1 => Ok(FaultAction::Drop),
        x => Err(NnError::Deserialize(format!("unknown {what} tag {x}"))),
    }
}

/// Decodes the part of an `IBCS` payload after the detector fingerprint.
fn decode_snapshot(r: &mut SliceReader<'_>) -> Result<StreamSnapshot, NnError> {
    let session_timeout_minutes = r.u64_le("session timeout")?;
    let n_end = r.u32_le("end-action count")?;
    let end_actions = u64s(r, u64::from(n_end), "end actions")?
        .into_iter()
        .map(|a| ActionId(a as usize))
        .collect();
    let policy = AlarmPolicy {
        likelihood_threshold: r.f32_le("alarm policy")?,
        window: r.u32_le("alarm policy")? as usize,
        warmup: r.u32_le("alarm policy")? as usize,
        trend_window: r.u32_le("alarm policy")? as usize,
        trend_drop_ratio: r.f32_le("alarm policy")?,
    };
    let non_monotonic = match r.u8("clock policy")? {
        0 => ClockPolicy::Clamp,
        1 => ClockPolicy::Drop,
        x => return Err(NnError::Deserialize(format!("unknown clock policy tag {x}"))),
    };
    let faults = FaultPolicy {
        non_monotonic,
        duplicates: get_fault_action(r, "duplicate policy")?,
        unknown_actions: get_fault_action(r, "unknown-action policy")?,
        unknown_users: get_fault_action(r, "unknown-user policy")?,
        known_users: get_opt_u64(r, "known-user bound")?.map(|v| v as usize),
        max_active_sessions: get_opt_u64(r, "session cap")?.map(|v| v as usize),
    };
    let clock = r.u64_le("checkpoint clock")?;
    let counters = FaultCounters {
        non_monotonic: r.u64_le("checkpoint counters")?,
        duplicate: r.u64_le("checkpoint counters")?,
        unknown_action: r.u64_le("checkpoint counters")?,
        unknown_user: r.u64_le("checkpoint counters")?,
        dropped: r.u64_le("checkpoint counters")?,
        shed: r.u64_le("checkpoint counters")?,
    };
    let sessions_started = r.u64_le("checkpoint counters")? as usize;
    let sessions_ended = r.u64_le("checkpoint counters")? as usize;
    let n_sessions = r.u32_le("session count")?;
    let mut sessions = Vec::new();
    for _ in 0..n_sessions {
        let user = UserId(r.u64_le("session record")? as usize);
        let last_minute = r.u64_le("session record")?;
        let last_action = get_opt_u64(r, "session last action")?.map(|v| ActionId(v as usize));
        let n_prefix = r.u64_le("session prefix length")?;
        let prefix = u64s(r, n_prefix, "session prefix")?
            .into_iter()
            .map(|a| ActionId(a as usize))
            .collect();
        sessions.push(SessionSnapshot {
            user,
            last_minute,
            last_action,
            prefix,
        });
    }
    if r.remaining() != 0 {
        return Err(NnError::Deserialize(format!(
            "{} trailing bytes after checkpoint payload",
            r.remaining()
        )));
    }
    Ok(StreamSnapshot {
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
    })
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
        let mut r = SliceReader::new(payload);
        let n_clusters = r.u32_le("checkpoint fingerprint").map_err(read_err)? as usize;
        let vocab = r.u32_le("checkpoint fingerprint").map_err(read_err)? as usize;
        let lock_in = r.u32_le("checkpoint fingerprint").map_err(read_err)? as usize;
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
        let snapshot = decode_snapshot(&mut r).map_err(read_err)?;
        Ok(self.stream_from_snapshot(snapshot))
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
    fn legacy_file_with_huge_layer_count_is_rejected() {
        // A version-1 file has no checksum, so a model block's layer count
        // reaches the model decoder as written.
        let bytes = detector().to_bytes();
        let payload = &bytes[16..bytes.len() - 8];
        let mut v1 = MAGIC.to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&payload[..payload.len() - 1]);
        // Payload layout: lock_in u32, router block (u64 len + body), model
        // count u32, then the first model block (u64 len + model bytes).
        let router_len = u64::from_le_bytes(payload[4..12].try_into().unwrap()) as usize;
        // Model bytes: magic, version, vocab, hidden, then the layer count.
        let layers = 8 + 4 + 8 + router_len + 4 + 8 + 16;
        assert_eq!(&v1[layers..layers + 4], &1u32.to_le_bytes());
        v1[layers..layers + 4].copy_from_slice(&u32::MAX.to_le_bytes());
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
    fn checkpoint_with_huge_prefix_length_is_rejected() {
        let d = detector();
        let mut sm = d.stream_monitor(StreamConfig::default());
        for (a, m) in [(0, 1), (1, 2), (2, 3)] {
            sm.observe(SessionEvent {
                user: UserId(0),
                action: ActionId(a),
                minute: m,
            });
        }
        let bytes = sm.checkpoint();
        let mut payload = bytes[16..bytes.len() - 8].to_vec();
        // The one live session's record ends with its prefix length and
        // then its three actions.
        let len_at = payload.len() - 3 * 8 - 8;
        assert_eq!(&payload[len_at..len_at + 8], &3u64.to_le_bytes());
        payload[len_at..len_at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        // A correct checksum: only the decoder stands between the count and
        // an allocation.
        let forged = envelope(CKPT_MAGIC, CKPT_VERSION, &payload);
        assert!(matches!(
            d.restore_stream_monitor(&forged),
            Err(CoreError::Persist(_))
        ));
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
