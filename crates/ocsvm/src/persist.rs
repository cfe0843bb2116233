//! Compact binary persistence for [`OcSvm`] and [`ClusterRouter`].
//!
//! All values little-endian. Used by `ibcm-core` to persist trained
//! detectors.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::OcSvmError;
use crate::features::SessionFeaturizer;
use crate::kernel::Kernel;
use crate::router::ClusterRouter;
use crate::svm::{OcSvm, OcSvmConfig};

fn put_f64_vec(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_f64_le(x);
    }
}

fn get_f64_vec(buf: &mut Bytes) -> Result<Vec<f64>, OcSvmError> {
    if buf.remaining() < 4 {
        return Err(OcSvmError::InvalidConfig("truncated vector header".into()));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 8 {
        return Err(OcSvmError::InvalidConfig("truncated vector body".into()));
    }
    Ok((0..n).map(|_| buf.get_f64_le()).collect())
}

impl OcSvm {
    /// Serializes the trained SVM into `buf`.
    pub fn write_bytes(&self, buf: &mut BytesMut) {
        let (config, svs, alphas, rho, dim) = self.parts();
        match config.kernel {
            Kernel::Rbf { gamma } => {
                buf.put_u8(0);
                buf.put_f64_le(gamma);
            }
            Kernel::Linear => {
                buf.put_u8(1);
                buf.put_f64_le(0.0);
            }
        }
        buf.put_f64_le(config.nu);
        buf.put_f64_le(config.tol);
        buf.put_u32_le(config.max_sweeps as u32);
        buf.put_u64_le(config.seed);
        buf.put_f64_le(rho);
        buf.put_u32_le(dim as u32);
        put_f64_vec(buf, alphas);
        buf.put_u32_le(svs.len() as u32);
        for sv in svs {
            put_f64_vec(buf, sv);
        }
    }

    /// Deserializes an SVM written with [`OcSvm::write_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`OcSvmError::InvalidConfig`] on malformed bytes.
    pub fn read_bytes(buf: &mut Bytes) -> Result<Self, OcSvmError> {
        if buf.remaining() < 1 + 8 * 4 + 4 + 8 + 4 {
            return Err(OcSvmError::InvalidConfig("truncated svm header".into()));
        }
        let kernel = match buf.get_u8() {
            0 => Kernel::Rbf {
                gamma: buf.get_f64_le(),
            },
            1 => {
                let _ = buf.get_f64_le();
                Kernel::Linear
            }
            x => {
                return Err(OcSvmError::InvalidConfig(format!(
                    "unknown kernel tag {x}"
                )))
            }
        };
        let nu = buf.get_f64_le();
        let tol = buf.get_f64_le();
        let max_sweeps = buf.get_u32_le() as usize;
        let seed = buf.get_u64_le();
        let rho = buf.get_f64_le();
        let dim = buf.get_u32_le() as usize;
        let alphas = get_f64_vec(buf)?;
        if buf.remaining() < 4 {
            return Err(OcSvmError::InvalidConfig("truncated sv count".into()));
        }
        let n_sv = buf.get_u32_le() as usize;
        if n_sv != alphas.len() {
            return Err(OcSvmError::InvalidConfig(
                "support vector / alpha count mismatch".into(),
            ));
        }
        let mut svs = Vec::with_capacity(n_sv);
        for _ in 0..n_sv {
            let sv = get_f64_vec(buf)?;
            if sv.len() != dim {
                return Err(OcSvmError::InvalidConfig(
                    "support vector dimension mismatch".into(),
                ));
            }
            svs.push(sv);
        }
        Ok(OcSvm::from_parts(
            OcSvmConfig {
                nu,
                kernel,
                tol,
                max_sweeps,
                seed,
            },
            svs,
            alphas,
            rho,
            dim,
        ))
    }
}

impl ClusterRouter {
    /// Serializes the router (featurizer + every cluster's SVM).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = BytesMut::new();
        let f = self.featurizer();
        buf.put_u32_le(f.vocab() as u32);
        buf.put_u8(u8::from(f.includes_length()));
        buf.put_u32_le(self.n_clusters() as u32);
        for svm in self.svms() {
            svm.write_bytes(&mut buf);
        }
        buf.to_vec()
    }

    /// Deserializes a router written with [`ClusterRouter::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`OcSvmError::InvalidConfig`] on malformed bytes, including
    /// an SVM whose dimension disagrees with the featurizer's.
    pub fn from_bytes(data: &[u8]) -> Result<Self, OcSvmError> {
        let mut buf = Bytes::copy_from_slice(data);
        if buf.remaining() < 9 {
            return Err(OcSvmError::InvalidConfig("truncated router header".into()));
        }
        let vocab = buf.get_u32_le() as usize;
        let include_length = buf.get_u8() != 0;
        let featurizer = SessionFeaturizer::new(vocab, include_length);
        let n = buf.get_u32_le() as usize;
        // The count is untrusted: the vector grows only with SVMs that
        // actually decode, and a short buffer ends the loop with an error.
        let mut svms = Vec::new();
        for i in 0..n {
            let svm = OcSvm::read_bytes(&mut buf)?;
            if svm.dim() != featurizer.dim() {
                return Err(OcSvmError::InvalidConfig(format!(
                    "SVM {i} has dimension {}, the featurizer {}",
                    svm.dim(),
                    featurizer.dim()
                )));
            }
            svms.push(svm);
        }
        if svms.is_empty() {
            return Err(OcSvmError::InvalidConfig("router has no clusters".into()));
        }
        Ok(ClusterRouter::new(svms, featurizer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibcm_logsim::ActionId;

    fn trained_svm() -> OcSvm {
        let data: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![(i % 5) as f64 * 0.01, 1.0])
            .collect();
        OcSvm::train(&data, &OcSvmConfig::default()).unwrap()
    }

    #[test]
    fn svm_round_trip_preserves_decisions() {
        let svm = trained_svm();
        let mut buf = BytesMut::new();
        svm.write_bytes(&mut buf);
        let back = OcSvm::read_bytes(&mut buf.freeze()).unwrap();
        for x in [[0.0, 1.0], [0.02, 1.0], [5.0, -1.0]] {
            assert_eq!(svm.decision(&x), back.decision(&x));
        }
    }

    #[test]
    fn router_round_trip() {
        let featurizer = SessionFeaturizer::new(3, true);
        let feats: Vec<Vec<f64>> = (0..20)
            .map(|_| featurizer.features(&[ActionId(0), ActionId(1)]))
            .collect();
        let svm = OcSvm::train(&feats, &OcSvmConfig::default()).unwrap();
        let router = ClusterRouter::new(vec![svm.clone(), svm], featurizer);
        let back = ClusterRouter::from_bytes(&router.to_bytes()).unwrap();
        let acts = [ActionId(0), ActionId(1), ActionId(2)];
        assert_eq!(router.scores(&acts), back.scores(&acts));
        assert_eq!(back.n_clusters(), 2);
    }

    /// A two-cluster router over a 4-action vocabulary with the length
    /// feature, and its bytes: vocab at `[0..4]`, the length flag at `[4]`,
    /// the cluster count at `[5..9]`.
    fn vocab4_router_bytes() -> Vec<u8> {
        let featurizer = SessionFeaturizer::new(4, true);
        let feats: Vec<Vec<f64>> = (0..12)
            .map(|i| featurizer.features(&[ActionId(i % 4), ActionId(1)]))
            .collect();
        let svm = OcSvm::train(&feats, &OcSvmConfig::default()).unwrap();
        let bytes = ClusterRouter::new(vec![svm.clone(), svm], featurizer).to_bytes();
        assert!(ClusterRouter::from_bytes(&bytes).is_ok());
        bytes
    }

    #[test]
    fn vocab_disagreeing_with_svm_dim_is_an_error() {
        let mut bytes = vocab4_router_bytes();
        assert_eq!(bytes[0], 4);
        bytes[0] = 5;
        assert!(ClusterRouter::from_bytes(&bytes).is_err());
    }

    #[test]
    fn length_flag_disagreeing_with_svm_dim_is_an_error() {
        let mut bytes = vocab4_router_bytes();
        assert_eq!(bytes[4], 1);
        bytes[4] = 0;
        assert!(ClusterRouter::from_bytes(&bytes).is_err());
    }

    #[test]
    fn huge_cluster_count_is_an_error() {
        let mut bytes = vocab4_router_bytes();
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ClusterRouter::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncated_router_fails() {
        let featurizer = SessionFeaturizer::new(3, false);
        let feats: Vec<Vec<f64>> =
            (0..10).map(|_| featurizer.features(&[ActionId(0)])).collect();
        let svm = OcSvm::train(&feats, &OcSvmConfig::default()).unwrap();
        let router = ClusterRouter::new(vec![svm], featurizer);
        let bytes = router.to_bytes();
        assert!(ClusterRouter::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(ClusterRouter::from_bytes(&[]).is_err());
    }
}
