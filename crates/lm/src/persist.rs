//! Binary persistence for trained [`LstmLm`] models.
//!
//! Format (all little-endian): `IBCM` magic, format version, the training
//! configuration scalars, then the five parameter tensors.
//!
//! [`LstmLm::from_bytes`] decodes it zero-copy: a borrowed
//! [`ibcm_nn::serialize::SliceReader`] cursor walks the input slice in
//! place, and each tensor is materialized with **one** bulk little-endian
//! conversion. No intermediate owned buffer is ever created, so the input
//! can be a memory-mapped region.

use bytes::BytesMut;
use ibcm_nn::serialize as nns;
use ibcm_nn::{Dense, LstmLayer, Matrix};

use crate::batcher::BatchScheme;
use crate::error::LmError;
use crate::model::{LmTrainConfig, LstmLm, TrainReport};
use crate::vocab::Vocab;

const FORMAT_VERSION: u32 = 2;

impl LstmLm {
    /// Serializes the model (configuration + parameters) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        use bytes::BufMut;
        let mut buf = BytesMut::new();
        nns::write_header(&mut buf, FORMAT_VERSION);
        let cfg = self.config();
        buf.put_u32_le(cfg.vocab as u32);
        buf.put_u32_le(cfg.hidden as u32);
        buf.put_u32_le(cfg.layers as u32);
        buf.put_f32_le(cfg.dropout);
        buf.put_f32_le(cfg.learning_rate);
        buf.put_u32_le(cfg.batch_size as u32);
        buf.put_u32_le(cfg.epochs as u32);
        buf.put_f32_le(cfg.clip_norm);
        buf.put_u64_le(cfg.seed);
        buf.put_u32_le(cfg.patience as u32);
        match cfg.scheme {
            BatchScheme::MovingWindow { window } => {
                buf.put_u8(0);
                buf.put_u32_le(window as u32);
            }
            BatchScheme::FullSequence { max_len } => {
                buf.put_u8(1);
                buf.put_u32_le(max_len as u32);
            }
        }
        let (wx, wh, b) = self.lstm.params();
        nns::write_matrix(&mut buf, wx);
        nns::write_matrix(&mut buf, wh);
        nns::write_vec(&mut buf, b);
        for layer in &self.upper {
            let (wx, wh, b) = layer.params();
            nns::write_matrix(&mut buf, wx);
            nns::write_matrix(&mut buf, wh);
            nns::write_vec(&mut buf, b);
        }
        let (dw, db) = self.dense.params();
        nns::write_matrix(&mut buf, dw);
        nns::write_vec(&mut buf, db);
        buf.to_vec()
    }

    /// Reconstructs a model from [`LstmLm::to_bytes`] output without
    /// copying the input: a borrowed [`nns::SliceReader`] cursor walks the
    /// slice in place and each tensor is decoded with one bulk
    /// little-endian conversion straight into its final allocation. Pass a
    /// memory-mapped region and nothing but the tensors themselves is ever
    /// materialized.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::Persist`] on malformed or truncated bytes.
    pub fn from_bytes(data: &[u8]) -> Result<Self, LmError> {
        let mut r = nns::SliceReader::new(data);
        let version = nns::read_header_slice(&mut r)?;
        if version != FORMAT_VERSION {
            return Err(LmError::Persist(format!(
                "unsupported model format version {version}"
            )));
        }
        let vocab = r.u32_le("config vocab")? as usize;
        let hidden = r.u32_le("config hidden")? as usize;
        let layers = (r.u32_le("config layers")? as usize).max(1);
        let dropout = r.f32_le("config dropout")?;
        let learning_rate = r.f32_le("config learning_rate")?;
        let batch_size = r.u32_le("config batch_size")? as usize;
        let epochs = r.u32_le("config epochs")? as usize;
        let clip_norm = r.f32_le("config clip_norm")?;
        let seed = r.u64_le("config seed")?;
        let patience = r.u32_le("config patience")? as usize;
        let scheme = match r.u8("batch scheme tag")? {
            0 => BatchScheme::MovingWindow {
                window: r.u32_le("moving window")? as usize,
            },
            1 => BatchScheme::FullSequence {
                max_len: r.u32_le("full-sequence max_len")? as usize,
            },
            x => return Err(LmError::Persist(format!("unknown batch scheme tag {x}"))),
        };
        if vocab == 0 || hidden == 0 {
            return Err(LmError::Persist(
                "vocab and hidden must be positive".into(),
            ));
        }
        let wx = nns::read_matrix_slice(&mut r)?;
        let wh = nns::read_matrix_slice(&mut r)?;
        let b = nns::read_vec_slice(&mut r)?;
        // Grown only as layers decode: `layers` is untrusted until the
        // bytes for every layer have been read.
        let mut upper_params = Vec::new();
        for _ in 1..layers {
            let uwx = nns::read_matrix_slice(&mut r)?;
            let uwh = nns::read_matrix_slice(&mut r)?;
            let ub = nns::read_vec_slice(&mut r)?;
            upper_params.push((uwx, uwh, ub));
        }
        let dw = nns::read_matrix_slice(&mut r)?;
        let db = nns::read_vec_slice(&mut r)?;
        if r.remaining() != 0 {
            return Err(LmError::Persist(format!(
                "{} trailing bytes after model payload",
                r.remaining()
            )));
        }
        let config = LmTrainConfig {
            vocab,
            hidden,
            layers,
            dropout,
            learning_rate,
            batch_size,
            epochs,
            scheme,
            clip_norm,
            seed,
            patience,
        };
        build_model(config, wx, wh, b, upper_params, dw, db)
    }

    /// Writes the model to a file.
    ///
    /// # Errors
    ///
    /// Returns [`LmError::Io`] on filesystem failures.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), LmError> {
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Loads a model previously written with [`LstmLm::save`].
    ///
    /// # Errors
    ///
    /// Returns [`LmError::Io`] or [`LmError::Persist`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, LmError> {
        let data = std::fs::read(path)?;
        LstmLm::from_bytes(&data)
    }
}

/// The decoder's tail: pin every tensor shape to the config and assemble
/// the model. A bit-flipped dimension must die here, never
/// survive into scoring-time indexing.
#[allow(clippy::type_complexity)]
fn build_model(
    config: LmTrainConfig,
    wx: Matrix,
    wh: Matrix,
    b: Vec<f32>,
    upper_params: Vec<(Matrix, Matrix, Vec<f32>)>,
    dw: Matrix,
    db: Vec<f32>,
) -> Result<LstmLm, LmError> {
    let (vocab, hidden, seed) = (config.vocab, config.hidden, config.seed);
    for (uwx, uwh, ub) in &upper_params {
        if uwx.rows() != hidden
            || uwx.cols() != 4 * hidden
            || uwh.rows() != hidden
            || uwh.cols() != 4 * hidden
            || ub.len() != 4 * hidden
        {
            return Err(LmError::Persist("upper layer shapes inconsistent".into()));
        }
    }
    if wx.rows() != vocab
        || wx.cols() != 4 * hidden
        || wh.rows() != hidden
        || wh.cols() != 4 * hidden
        || b.len() != 4 * hidden
        || dw.rows() != hidden
        || dw.cols() != vocab
        || db.len() != vocab
    {
        return Err(LmError::Persist("tensor shapes inconsistent".into()));
    }
    let mut upper = Vec::with_capacity(upper_params.len());
    for (li, (uwx, uwh, ub)) in upper_params.into_iter().enumerate() {
        let mut layer = LstmLayer::new(hidden, hidden, seed ^ ((li + 1) as u64) << 8);
        let (pwx, pwh, pb) = layer.params_mut();
        *pwx = uwx;
        *pwh = uwh;
        *pb = ub;
        upper.push(layer);
    }
    let mut lstm = LstmLayer::new(vocab, hidden, seed);
    {
        let (pwx, pwh, pb) = lstm.params_mut();
        *pwx = wx;
        *pwh = wh;
        *pb = b;
    }
    let mut dense = Dense::new(hidden, vocab, seed);
    {
        let (pdw, pdb) = dense.params_mut();
        *pdw = dw;
        *pdb = db;
    }
    Ok(LstmLm::from_parts(
        lstm,
        upper,
        dense,
        Vocab::with_size(vocab),
        config,
        TrainReport::default(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trained() -> LstmLm {
        let seqs: Vec<Vec<usize>> = (0..8).map(|_| vec![0, 1, 2, 0, 1, 2]).collect();
        let cfg = LmTrainConfig {
            vocab: 3,
            hidden: 6,
            epochs: 4,
            batch_size: 4,
            patience: 0,
            ..LmTrainConfig::default()
        };
        LstmLm::train(&cfg, &seqs, &[]).unwrap()
    }

    #[test]
    fn round_trip_preserves_scores() {
        let m = trained();
        let back = LstmLm::from_bytes(&m.to_bytes()).unwrap();
        let seq = vec![0, 1, 2, 0, 1];
        let a = m.score_session(&seq);
        let b = back.score_session(&seq);
        assert_eq!(a, b);
        assert_eq!(back.vocab_size(), 3);
        assert_eq!(back.hidden(), 6);
    }

    #[test]
    fn truncated_bytes_fail_cleanly() {
        let bytes = trained().to_bytes();
        for cut in [0, 4, 10, bytes.len() - 3] {
            assert!(
                LstmLm::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut} should fail"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = trained().to_bytes();
        bytes[0] = b'X';
        assert!(LstmLm::from_bytes(&bytes).is_err());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("ibcm_lm_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.ibcm");
        let m = trained();
        m.save(&path).unwrap();
        let back = LstmLm::load(&path).unwrap();
        assert_eq!(m.score_session(&[0, 1, 2]), back.score_session(&[0, 1, 2]));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn two_layer_round_trip() {
        let seqs: Vec<Vec<usize>> = (0..8).map(|_| vec![0, 1, 2, 0, 1, 2]).collect();
        let cfg = LmTrainConfig {
            vocab: 3,
            hidden: 5,
            layers: 2,
            epochs: 4,
            batch_size: 4,
            patience: 0,
            ..LmTrainConfig::default()
        };
        let m = LstmLm::train(&cfg, &seqs, &[]).unwrap();
        let back = LstmLm::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.config().layers, 2);
        assert_eq!(m.score_session(&[0, 1, 2, 0]), back.score_session(&[0, 1, 2, 0]));
    }

    #[test]
    fn zero_copy_decode_round_trips_bytes() {
        let seqs: Vec<Vec<usize>> = (0..8).map(|i| vec![0, 1, 2, i % 3, 1, 2]).collect();
        let cfg = LmTrainConfig {
            vocab: 3,
            hidden: 5,
            layers: 2,
            epochs: 4,
            batch_size: 4,
            patience: 0,
            ..LmTrainConfig::default()
        };
        let m = LstmLm::train(&cfg, &seqs, &[]).unwrap();
        let bytes = m.to_bytes();
        let zero_copy = LstmLm::from_bytes(&bytes).unwrap();
        assert_eq!(zero_copy.to_bytes(), bytes, "zero-copy decode round-trips");
    }

    #[test]
    fn decoder_rejects_truncation_and_trailing_bytes() {
        let bytes = trained().to_bytes();
        for cut in [0, 3, 7, 20, bytes.len() - 1] {
            assert!(LstmLm::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(LstmLm::from_bytes(&trailing).is_err());
    }

    #[test]
    fn huge_layer_count_is_an_error() {
        // Layout: magic, version, vocab, hidden, then the layer count.
        let mut bytes = trained().to_bytes();
        assert_eq!(&bytes[16..20], &1u32.to_le_bytes());
        bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            LstmLm::from_bytes(&bytes),
            Err(LmError::Persist(_))
        ));
    }

    #[test]
    fn load_missing_file_is_io_error() {
        assert!(matches!(
            LstmLm::load("/nonexistent/path/model.ibcm"),
            Err(LmError::Io(_))
        ));
    }
}
