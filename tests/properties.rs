//! Cross-crate property-based tests (proptest): invariants that must hold
//! for *any* input, exercised through the public facade.

use std::io::{Read, Write};
use std::sync::OnceLock;

use ibcm::http::{json, wire};
use ibcm::{
    ActionId, LmTrainConfig, LstmLm, MisuseDetector, NgramConfig, NgramLm, OcSvm, OcSvmConfig,
    SessionFeaturizer,
};
use proptest::prelude::*;

/// A small detector trained once and shared across property cases.
fn detector() -> &'static MisuseDetector {
    static DET: OnceLock<MisuseDetector> = OnceLock::new();
    DET.get_or_init(|| {
        let vocab = 8;
        let featurizer = SessionFeaturizer::new(vocab, true);
        let seqs0: Vec<Vec<usize>> = (0..15).map(|_| vec![0, 1, 2, 3, 0, 1, 2, 3]).collect();
        let seqs1: Vec<Vec<usize>> = (0..15).map(|_| vec![4, 5, 6, 7, 4, 5, 6, 7]).collect();
        let feats = |seqs: &[Vec<usize>]| -> Vec<Vec<f64>> {
            seqs.iter()
                .map(|s| {
                    let acts: Vec<ActionId> = s.iter().map(|&t| ActionId(t)).collect();
                    featurizer.features(&acts)
                })
                .collect()
        };
        let cfg = OcSvmConfig::default();
        let router = ibcm::ClusterRouter::new(
            vec![
                OcSvm::train(&feats(&seqs0), &cfg).unwrap(),
                OcSvm::train(&feats(&seqs1), &cfg).unwrap(),
            ],
            featurizer,
        );
        let lm_cfg = LmTrainConfig {
            vocab,
            hidden: 10,
            dropout: 0.0,
            epochs: 10,
            batch_size: 8,
            learning_rate: 0.01,
            patience: 0,
            ..LmTrainConfig::default()
        };
        MisuseDetector::new(
            router,
            vec![
                LstmLm::train(&lm_cfg, &seqs0, &[]).unwrap(),
                LstmLm::train(&lm_cfg, &seqs1, &[]).unwrap(),
            ],
            15,
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any session (including empty and out-of-vocab actions) gets a finite
    /// verdict with likelihood in [0, 1] and non-negative loss.
    #[test]
    fn verdicts_are_well_formed(actions in prop::collection::vec(0usize..12, 0..40)) {
        let acts: Vec<ActionId> = actions.iter().map(|&a| ActionId(a)).collect();
        let v = detector().score_session(&acts);
        prop_assert!(v.cluster.index() < detector().n_clusters());
        prop_assert!((0.0..=1.0).contains(&v.score.avg_likelihood));
        prop_assert!(v.score.avg_loss >= 0.0);
        prop_assert!(v.score.avg_likelihood.is_finite() && v.score.avg_loss.is_finite());
    }

    /// Scoring is a pure function of the action sequence.
    #[test]
    fn scoring_is_deterministic(actions in prop::collection::vec(0usize..8, 2..30)) {
        let acts: Vec<ActionId> = actions.iter().map(|&a| ActionId(a)).collect();
        prop_assert_eq!(
            detector().score_session(&acts),
            detector().score_session(&acts)
        );
    }

    /// The featurizer always emits a fixed-dimension vector whose bag part
    /// is a sub-probability (sums to <= 1, exactly 1 when all in vocab).
    #[test]
    fn featurizer_emits_subprobability(actions in prop::collection::vec(0usize..20, 0..60)) {
        let f = SessionFeaturizer::new(10, true);
        let acts: Vec<ActionId> = actions.iter().map(|&a| ActionId(a)).collect();
        let x = f.features(&acts);
        prop_assert_eq!(x.len(), 11);
        let bag: f64 = x[..10].iter().sum();
        prop_assert!(bag <= 1.0 + 1e-9);
        if !actions.is_empty() && actions.iter().all(|&a| a < 10) {
            prop_assert!((bag - 1.0).abs() < 1e-9);
        }
    }

    /// The n-gram model's next-action distribution is a valid probability
    /// simplex for any prefix.
    #[test]
    fn ngram_probs_are_simplex(
        train in prop::collection::vec(prop::collection::vec(0usize..6, 2..12), 1..8),
        prefix in prop::collection::vec(0usize..6, 0..10),
    ) {
        let lm = NgramLm::train(
            &NgramConfig { vocab: 6, ..NgramConfig::default() },
            &train,
        );
        prop_assume!(lm.is_ok());
        let p = lm.unwrap().next_probs(&prefix);
        let total: f64 = p.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        prop_assert!(p.iter().all(|&x| x >= 0.0));
    }

    /// Detector serialization round-trips for the shared fixture detector
    /// regardless of which probe session is compared.
    #[test]
    fn persisted_detector_scores_identically(actions in prop::collection::vec(0usize..8, 2..20)) {
        static RESTORED: OnceLock<MisuseDetector> = OnceLock::new();
        let restored = RESTORED.get_or_init(|| {
            MisuseDetector::from_bytes(&detector().to_bytes()).unwrap()
        });
        let acts: Vec<ActionId> = actions.iter().map(|&a| ActionId(a)).collect();
        prop_assert_eq!(
            detector().score_session(&acts),
            restored.score_session(&acts)
        );
    }

    /// OC-SVM decisions are finite for arbitrary probe vectors.
    #[test]
    fn ocsvm_decisions_finite(probe in prop::collection::vec(-10.0f64..10.0, 3)) {
        static SVM: OnceLock<OcSvm> = OnceLock::new();
        let svm = SVM.get_or_init(|| {
            let data: Vec<Vec<f64>> = (0..20)
                .map(|i| vec![(i % 5) as f64 * 0.1, 1.0, -0.5])
                .collect();
            OcSvm::train(&data, &OcSvmConfig::default()).unwrap()
        });
        prop_assert!(svm.decision(&probe).is_finite());
    }
}

// ---------------------------------------------------------------------------
// The HTTP wire and JSON codecs: `ibcm-http` reads untrusted bytes, so
// every input must come back as a value or a typed error.
// ---------------------------------------------------------------------------

/// Every status the front end emits.
const STATUSES: [u16; 13] = [200, 202, 400, 404, 405, 409, 411, 413, 429, 431, 500, 501, 503];

const METHODS: [&str; 5] = ["GET", "POST", "PUT", "DELETE", "PATCH"];

/// An RFC 9110 token, as header names are.
const TOKEN: &str = "[A-Za-z0-9!#$%&'*+.^_`|~\\-]{1,16}";

/// A header value: anything but CR and LF, some of it beyond ASCII.
const HEADER_VALUE: &str = "[\t -~\\xa0-\\xff]{0,24}";

const LIMITS: wire::Limits = wire::Limits {
    max_head_bytes: 8 * 1024,
    max_body_bytes: 4 * 1024,
};

/// Headers the codec writes or interprets itself.
fn is_framing_header(name: &str) -> bool {
    ["content-length", "connection", "transfer-encoding"]
        .iter()
        .any(|f| name.eq_ignore_ascii_case(f))
}

/// A writer that keeps each `write` call's bytes apart.
#[derive(Default)]
struct RecordingWriter {
    writes: Vec<Vec<u8>>,
}

impl Write for RecordingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes.push(buf.to_vec());
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A reader that hands out at most `k` bytes per `read`, like a socket
/// fed by a slow peer.
struct Trickle<'a> {
    data: &'a [u8],
    k: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.k.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any response reaches the socket in exactly one `write` (a head
    /// written apart from its body waits on the peer's delayed ACK), and
    /// its bytes parse back to the same status, headers and body.
    #[test]
    fn responses_are_one_write_and_parse_back(
        status in (0..STATUSES.len()).prop_map(|i| STATUSES[i]),
        headers in prop::collection::vec((TOKEN, HEADER_VALUE), 0..6),
        body in prop::collection::vec(any::<u8>(), 0..512),
        close in any::<bool>(),
    ) {
        prop_assume!(headers.iter().all(|(name, _)| !is_framing_header(name)));
        // `Response` header names are `&'static str`.
        let response = wire::Response {
            status,
            headers: headers
                .into_iter()
                .map(|(name, value)| (&*Box::leak(name.into_boxed_str()), value))
                .collect(),
            body,
        };
        let mut out = RecordingWriter::default();
        response.write_to(&mut out, close).unwrap();
        prop_assert_eq!(out.writes.len(), 1);

        let bytes = &out.writes[0];
        let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n").unwrap();
        let head = std::str::from_utf8(&bytes[..head_end]).unwrap();
        let mut lines = head.split("\r\n");
        let status_line = format!("HTTP/1.1 {status} {}", wire::reason_phrase(status));
        prop_assert_eq!(lines.next(), Some(status_line.as_str()));
        let parsed: Vec<(String, String)> = lines
            .map(|line| {
                let (name, value) = line.split_once(": ").unwrap();
                (name.to_string(), value.to_string())
            })
            .collect();
        let connection = if close { "close" } else { "keep-alive" };
        let expected: Vec<(String, String)> = response
            .headers
            .iter()
            .map(|(name, value)| (name.to_string(), value.clone()))
            .chain([
                ("Content-Length".to_string(), response.body.len().to_string()),
                ("Connection".to_string(), connection.to_string()),
            ])
            .collect();
        prop_assert_eq!(parsed, expected);
        prop_assert_eq!(&bytes[head_end + 4..], &response.body[..]);
    }

    /// A well-formed request parses to the same request however the
    /// transport splits it into reads.
    #[test]
    fn requests_parse_the_same_through_any_read_sizes(
        method in (0..METHODS.len()).prop_map(|i| METHODS[i]),
        path in "/[a-z0-9/._~\\-]{0,24}",
        query in prop::collection::vec(("[a-z]{1,6}", "[a-z0-9]{0,6}"), 0..4),
        headers in prop::collection::vec((TOKEN, HEADER_VALUE), 0..6),
        body in prop::collection::vec(any::<u8>(), 0..300),
        (http10, connection, k) in (any::<bool>(), 0usize..3, 1usize..64),
    ) {
        prop_assume!(headers.iter().all(|(name, _)| !is_framing_header(name)));
        let mut headers = headers;
        if !body.is_empty() || method == "POST" || method == "PUT" {
            headers.push(("Content-Length".to_string(), body.len().to_string()));
        }
        match connection {
            1 => headers.push(("Connection".to_string(), "close".to_string())),
            2 => headers.push(("Connection".to_string(), "keep-alive".to_string())),
            _ => {}
        }
        let query_str: Vec<String> = query.iter().map(|(k, v)| format!("{k}={v}")).collect();
        let target = if query.is_empty() {
            path.clone()
        } else {
            format!("{path}?{}", query_str.join("&"))
        };
        let version = if http10 { "HTTP/1.0" } else { "HTTP/1.1" };
        let mut raw = format!("{method} {target} {version}\r\n").into_bytes();
        for (name, value) in &headers {
            raw.extend_from_slice(format!("{name}:{value}\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw.extend_from_slice(&body);

        let req = wire::read_request(&mut Trickle { data: &raw, k }, &LIMITS).unwrap();
        prop_assert_eq!(req.method.as_str(), method);
        prop_assert_eq!(&req.path, &path);
        prop_assert_eq!(req.query, query);
        let expected: Vec<(String, String)> = headers
            .iter()
            .map(|(name, value)| (name.to_ascii_lowercase(), value.trim().to_string()))
            .collect();
        prop_assert_eq!(req.headers, expected);
        prop_assert_eq!(req.body, body);
        prop_assert_eq!(req.close, connection == 1 || (connection == 0 && http10));
    }

    /// Arbitrary bytes, raw or shaped like a request, give a request or a
    /// typed error, never a panic, and never a body past the limit.
    #[test]
    fn read_request_never_panics(
        prefix in (0usize..3).prop_map(|i| {
            ["", "POST /v1/events HTTP/1.1\r\n", "GET / HTTP/1.1\r\nContent-Length: "][i]
        }),
        tail in prop_oneof![
            prop::collection::vec(any::<u8>(), 0..512),
            "[\r\n :0-9A-Za-z+\\-]{0,256}".prop_map(String::into_bytes),
        ],
        k in 1usize..64,
    ) {
        let raw = [prefix.as_bytes(), &tail].concat();
        if let Ok(req) = wire::read_request(&mut Trickle { data: &raw, k }, &LIMITS) {
            prop_assert!(req.body.len() <= LIMITS.max_body_bytes);
        }
    }

    /// Every finite `f32` survives `fmt_f32` and `json::parse` bit for bit
    /// (API.md, "Floats").
    #[test]
    fn finite_f32_round_trips_through_json(bits in any::<u32>()) {
        let v = f32::from_bits(bits);
        prop_assume!(v.is_finite());
        let text = json::fmt_f32(v);
        let parsed = json::parse(text.as_bytes());
        let raw = match &parsed {
            Ok(json::JsonValue::Num(raw)) => raw.as_str(),
            other => return Err(TestCaseError::Fail(format!("{text} parsed to {other:?}"))),
        };
        prop_assert_eq!(raw.parse::<f32>().map(f32::to_bits), Ok(bits));
    }

    /// Arbitrary bytes, raw or built from JSON's own punctuation, never
    /// panic the JSON parser.
    #[test]
    fn json_parse_never_panics(
        input in prop_oneof![
            prop::collection::vec(any::<u8>(), 0..256),
            "[\\[\\]{}\":,0-9a-z.eE+\\- \\\\]{0,128}".prop_map(String::into_bytes),
        ],
    ) {
        let _ = json::parse(&input);
    }
}
