//! Compact binary (de)serialization for matrices and parameter bundles.
//!
//! Format: little-endian `u32` dimensions followed by raw little-endian
//! `f32` data. Used by `ibcm-lm` to persist trained language models.
//!
//! Writers append to a [`BytesMut`]. The zero-copy [`SliceReader`] family
//! ([`read_header_slice`], [`read_matrix_slice`], [`read_vec_slice`]) reads
//! them back from a **borrowed** `&[u8]` — an mmap'd region drops straight
//! in — converting each tensor's data in one bulk little-endian pass. The
//! only allocations are the final `Vec<f32>` tensor buffers themselves.

use bytes::{BufMut, BytesMut};

use crate::error::NnError;
use crate::matrix::Matrix;

/// Magic bytes guarding parameter bundles.
pub const MAGIC: &[u8; 4] = b"IBCM";

/// Serializes a matrix into `buf`.
pub fn write_matrix(buf: &mut BytesMut, m: &Matrix) {
    buf.put_u32_le(m.rows() as u32);
    buf.put_u32_le(m.cols() as u32);
    for &v in m.as_slice() {
        buf.put_f32_le(v);
    }
}

/// Serializes an `f32` vector into `buf`.
pub fn write_vec(buf: &mut BytesMut, v: &[f32]) {
    buf.put_u32_le(v.len() as u32);
    for &x in v {
        buf.put_f32_le(x);
    }
}

/// Writes the bundle magic + version header.
pub fn write_header(buf: &mut BytesMut, version: u32) {
    buf.put_slice(MAGIC);
    buf.put_u32_le(version);
}

/// A forward-only cursor over **borrowed** serialized bytes. Slicing never
/// copies; the lifetime ties every view to the caller's buffer (a file read
/// once, or an mmap'd region).
///
/// # Example
///
/// ```
/// use bytes::BytesMut;
/// use ibcm_nn::serialize::{write_matrix, read_matrix_slice, SliceReader};
/// use ibcm_nn::Matrix;
/// let m = Matrix::uniform(3, 2, 1.0, 5);
/// let mut buf = BytesMut::new();
/// write_matrix(&mut buf, &m);
/// let bytes = buf.freeze();
/// let mut r = SliceReader::new(&bytes);
/// assert_eq!(read_matrix_slice(&mut r)?, m);
/// assert_eq!(r.remaining(), 0);
/// # Ok::<(), ibcm_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SliceReader<'a> {
    buf: &'a [u8],
}

impl<'a> SliceReader<'a> {
    /// Starts reading at the beginning of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Takes the next `n` bytes as a borrowed subslice.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] (naming `what`) if fewer than `n`
    /// bytes remain.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], NnError> {
        let buf = self.buf;
        match buf.split_at_checked(n) {
            Some((head, tail)) => {
                self.buf = tail;
                Ok(head)
            }
            None => Err(truncated(what, n, buf.len())),
        }
    }

    /// Takes the next `N` bytes by value — the fixed-width reads below.
    fn array<const N: usize>(&mut self, what: &str) -> Result<[u8; N], NnError> {
        let buf = self.buf;
        match buf.split_first_chunk::<N>() {
            Some((head, tail)) => {
                self.buf = tail;
                Ok(*head)
            }
            None => Err(truncated(what, N, buf.len())),
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] on truncation.
    pub fn u8(&mut self, what: &str) -> Result<u8, NnError> {
        let [b] = self.array(what)?;
        Ok(b)
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] on truncation.
    pub fn u32_le(&mut self, what: &str) -> Result<u32, NnError> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] on truncation.
    pub fn u64_le(&mut self, what: &str) -> Result<u64, NnError> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// Reads a little-endian `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] on truncation.
    pub fn f32_le(&mut self, what: &str) -> Result<f32, NnError> {
        self.array(what).map(f32::from_le_bytes)
    }

    /// Reads `n` little-endian `f32`s in one bulk pass — the only place the
    /// zero-copy tensor path materializes data.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Deserialize`] on truncation.
    pub fn f32s_le(&mut self, n: usize, what: &str) -> Result<Vec<f32>, NnError> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| NnError::Deserialize(format!("{what} size overflow")))?;
        let raw = self.take(bytes, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }
}

fn truncated(what: &str, need: usize, have: usize) -> NnError {
    NnError::Deserialize(format!("{what} truncated: need {need} bytes, have {have}"))
}

/// Reads and validates the bundle header written by [`write_header`],
/// returning the version.
///
/// # Errors
///
/// Returns [`NnError::Deserialize`] on bad magic or truncation.
pub fn read_header_slice(r: &mut SliceReader<'_>) -> Result<u32, NnError> {
    let magic = r.take(4, "header")?;
    if magic != MAGIC {
        return Err(NnError::Deserialize(format!("bad magic {magic:?}")));
    }
    r.u32_le("header version")
}

/// Reads a matrix written by [`write_matrix`]: dimensions from the borrowed
/// slice, data in one bulk conversion.
///
/// # Errors
///
/// Returns [`NnError::Deserialize`] if the buffer is truncated.
pub fn read_matrix_slice(r: &mut SliceReader<'_>) -> Result<Matrix, NnError> {
    let rows = r.u32_le("matrix header")? as usize;
    let cols = r.u32_le("matrix header")? as usize;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| NnError::Deserialize("matrix size overflow".into()))?;
    let data = r.f32s_le(n, "matrix body")?;
    Ok(Matrix::from_vec(rows, cols, data))
}

/// Reads an `f32` vector written by [`write_vec`].
///
/// # Errors
///
/// Returns [`NnError::Deserialize`] if the buffer is truncated.
pub fn read_vec_slice(r: &mut SliceReader<'_>) -> Result<Vec<f32>, NnError> {
    let n = r.u32_le("vector header")? as usize;
    r.f32s_le(n, "vector body")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_reader_reads_back_header_matrix_and_vec() {
        let m = Matrix::uniform(6, 5, 2.0, 11);
        let v = vec![0.5f32, -1.25, 3.0];
        let mut buf = BytesMut::new();
        write_header(&mut buf, 2);
        write_matrix(&mut buf, &m);
        write_vec(&mut buf, &v);
        let bytes = buf.freeze();

        let mut r = SliceReader::new(&bytes);
        assert_eq!(read_header_slice(&mut r).unwrap(), 2);
        assert_eq!(read_matrix_slice(&mut r).unwrap(), m);
        assert_eq!(read_vec_slice(&mut r).unwrap(), v);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_reader_truncation_and_bad_magic() {
        let m = Matrix::uniform(4, 4, 1.0, 1);
        let mut buf = BytesMut::new();
        write_matrix(&mut buf, &m);
        let bytes = buf.freeze();
        let mut short = SliceReader::new(&bytes[..10]);
        assert!(matches!(
            read_matrix_slice(&mut short),
            Err(NnError::Deserialize(_))
        ));
        let mut bad = SliceReader::new(b"NOPE\x01\x00\x00\x00");
        assert!(read_header_slice(&mut bad).is_err());
        let mut empty = SliceReader::new(&[]);
        assert!(empty.u8("flag").is_err());
        assert!(empty.u64_le("len").is_err());
    }

    #[test]
    fn matrix_round_trip() {
        let m = Matrix::uniform(7, 3, 2.0, 99);
        let mut buf = BytesMut::new();
        write_matrix(&mut buf, &m);
        let bytes = buf.freeze();
        let mut r = SliceReader::new(&bytes);
        let back = read_matrix_slice(&mut r).unwrap();
        assert_eq!(m, back);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn vec_round_trip() {
        let v = vec![1.5f32, -2.25, 0.0];
        let mut buf = BytesMut::new();
        write_vec(&mut buf, &v);
        let bytes = buf.freeze();
        let back = read_vec_slice(&mut SliceReader::new(&bytes)).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn truncated_matrix_fails_cleanly() {
        let m = Matrix::uniform(4, 4, 1.0, 1);
        let mut buf = BytesMut::new();
        write_matrix(&mut buf, &m);
        let bytes = buf.freeze();
        for cut in [0, 7, 10, bytes.len() - 1] {
            let mut short = SliceReader::new(&bytes[..cut]);
            assert!(
                matches!(read_matrix_slice(&mut short), Err(NnError::Deserialize(_))),
                "cut {cut}"
            );
        }
        let mut vbuf = BytesMut::new();
        write_vec(&mut vbuf, &[1.0, 2.0]);
        let vbytes = vbuf.freeze();
        let mut short = SliceReader::new(&vbytes[..vbytes.len() - 1]);
        assert!(read_vec_slice(&mut short).is_err());
    }

    #[test]
    fn header_round_trip_and_bad_magic() {
        let mut buf = BytesMut::new();
        write_header(&mut buf, 3);
        let bytes = buf.freeze();
        assert_eq!(read_header_slice(&mut SliceReader::new(&bytes)).unwrap(), 3);
        assert!(read_header_slice(&mut SliceReader::new(&bytes[..7])).is_err());
        let mut bad = SliceReader::new(b"NOPE\x01\x00\x00\x00");
        assert!(read_header_slice(&mut bad).is_err());
    }

    #[test]
    fn empty_matrix_round_trip() {
        let m = Matrix::zeros(0, 5);
        let mut buf = BytesMut::new();
        write_matrix(&mut buf, &m);
        let bytes = buf.freeze();
        let back = read_matrix_slice(&mut SliceReader::new(&bytes)).unwrap();
        assert_eq!(back.rows(), 0);
        assert_eq!(back.cols(), 5);
    }
}
