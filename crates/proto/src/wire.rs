//! Checked little helpers for reading binary fields, and a byte counter
//! for sizing an encoding.
//!
//! `bytes::Buf` panics on under-read; these wrappers convert that into
//! `ProtoError::Truncated` so arbitrary input can never panic a decoder.

use bytes::{Buf, BufMut};

use crate::{ProtoError, Result};

/// A [`BufMut`] that keeps only the number of bytes put into it.
#[derive(Default)]
pub(crate) struct ByteCount(usize);

impl BufMut for ByteCount {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.0 += src.len();
    }
}

/// The exact number of bytes `encode` writes: the encoder itself is the
/// length formula, so a size can never drift from the encoding.
#[inline]
pub(crate) fn encoded_len(encode: impl FnOnce(&mut ByteCount)) -> usize {
    let mut count = ByteCount::default();
    encode(&mut count);
    count.0
}

/// A cursor over a received byte slice with checked reads.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    /// Label used in error messages.
    what: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, what }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn ensure(&self, n: usize) -> Result<()> {
        if self.buf.len() < n {
            Err(ProtoError::Truncated {
                what: self.what,
                needed: n,
                available: self.buf.len(),
            })
        } else {
            Ok(())
        }
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        self.ensure(1)?;
        Ok(self.buf.get_u8())
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        self.ensure(2)?;
        Ok(self.buf.get_u16())
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        self.ensure(4)?;
        Ok(self.buf.get_u32())
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        self.ensure(8)?;
        Ok(self.buf.get_u64())
    }

    pub(crate) fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<Vec<u8>> {
        self.ensure(n)?;
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head.to_vec())
    }

    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.ensure(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[..N]);
        self.buf = &self.buf[N..];
        Ok(out)
    }

    /// Reads a `u32` length prefix, bounds-checks it against the remaining
    /// buffer, and returns it. Prevents length-field-driven allocation bombs.
    pub(crate) fn len_prefix(&mut self) -> Result<usize> {
        let n = self.u32()? as usize;
        self.ensure(n.min(self.buf.len() + 1))?; // cheap sanity probe
        if n > self.buf.len() {
            return Err(ProtoError::Truncated {
                what: self.what,
                needed: n,
                available: self.buf.len(),
            });
        }
        Ok(n)
    }

    /// Reads a `u32` element count, rejecting counts that could not possibly
    /// fit in the remaining bytes given a minimum per-element size.
    pub(crate) fn count_prefix(&mut self, min_elem_size: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        let min_total = n.saturating_mul(min_elem_size.max(1));
        if min_total > self.buf.len() {
            return Err(ProtoError::Truncated {
                what: self.what,
                needed: min_total,
                available: self.buf.len(),
            });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_order() {
        let data = [1u8, 0, 2, 0, 0, 0, 3, 9, 9];
        let mut r = Reader::new(&data, "test");
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u16().unwrap(), 2);
        assert_eq!(r.u32().unwrap(), 3);
        assert_eq!(r.bytes(2).unwrap(), vec![9, 9]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncation_is_reported_not_panicked() {
        let mut r = Reader::new(&[1, 2], "unit");
        assert!(matches!(
            r.u32(),
            Err(ProtoError::Truncated {
                what: "unit",
                needed: 4,
                available: 2
            })
        ));
    }

    #[test]
    fn count_prefix_rejects_bombs() {
        // count = u32::MAX but only 3 bytes follow
        let mut data = u32::MAX.to_be_bytes().to_vec();
        data.extend_from_slice(&[0, 0, 0]);
        let mut r = Reader::new(&data, "bomb");
        assert!(r.count_prefix(8).is_err());
    }

    #[test]
    fn byte_count_matches_a_vec_encoding() {
        let put = |b: &mut dyn BufMut| {
            b.put_u8(1);
            b.put_u16(2);
            b.put_u32(3);
            b.put_u64(4);
            b.put_slice(&[5; 7]);
        };
        let mut v = Vec::new();
        put(&mut v);
        assert_eq!(encoded_len(|c| put(c)), v.len());
        assert_eq!(v.len(), 1 + 2 + 4 + 8 + 7);
    }

    #[test]
    fn f64_round_trips() {
        let v: f64 = 1234.5678;
        let data = v.to_bits().to_be_bytes();
        let mut r = Reader::new(&data, "f");
        assert_eq!(r.f64().unwrap(), v);
    }

    #[test]
    fn array_reads_exact() {
        let data = [7u8; 6];
        let mut r = Reader::new(&data, "arr");
        let a: [u8; 6] = r.array().unwrap();
        assert_eq!(a, [7u8; 6]);
        assert!(r.array::<1>().is_err());
    }
}
