//! Offline drop-in subset of the `bytes` crate API.
//!
//! The build environment has no registry access, so this workspace-local
//! shim implements the slice of `bytes` 1.x the repo uses: an Arc-backed
//! immutable [`Bytes`] with cheap `clone`/`slice`, a `Vec`-backed
//! [`BytesMut`] builder, and the [`Buf`]/[`BufMut`] cursor traits for the
//! little-endian accessors the packet codec needs.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Cheaply cloneable immutable byte buffer (shared `Arc<[u8]>` + range).
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Empty buffer.
    pub fn new() -> Bytes {
        Bytes::from(Vec::new())
    }

    /// Copies `src` into a new buffer.
    pub fn copy_from_slice(src: &[u8]) -> Bytes {
        Bytes::from(src.to_vec())
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Returns a sub-slice sharing the same allocation.
    ///
    /// # Panics
    /// Panics when the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice {lo}..{hi} out of bounds of {}", self.len());
        Bytes { data: Arc::clone(&self.data), start: self.start + lo, end: self.start + hi }
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes { data: Arc::from(v.into_boxed_slice()), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_ref() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_ref() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_ref().iter().take(32) {
            write!(f, "\\x{b:02x}")?;
        }
        if self.len() > 32 {
            write!(f, "..{} bytes", self.len())?;
        }
        write!(f, "\"")
    }
}

/// Growable byte builder that freezes into [`Bytes`].
#[derive(Debug, Default, Clone)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// Empty builder with `cap` reserved bytes.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut { buf: Vec::with_capacity(cap) }
    }

    /// Empty builder.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

/// Read cursor over a byte source (implemented for `&[u8]`: the slice
/// reference itself advances, as in upstream `bytes`).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let c = self.chunk();
        let v = u16::from_le_bytes([c[0], c[1]]);
        self.advance(2);
        v
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let c = self.chunk();
        let v = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        self.advance(4);
        v
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let c = self.chunk();
        let v = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        self.advance(8);
        v
    }

    /// Copies `dst.len()` bytes out and advances.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Write sink for building packets.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_le_integers() {
        let mut b = BytesMut::with_capacity(16);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u16_le(0x1234);
        b.put_u8(0x7F);
        b.put_bytes(0, 3);
        b.put_slice(&[1, 2, 3]);
        let frozen = b.freeze();
        assert_eq!(frozen.len(), 13);
        let mut cur = &frozen[..];
        assert_eq!(cur.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u16_le(), 0x1234);
        assert_eq!(cur.get_u8(), 0x7F);
        cur.advance(3);
        assert_eq!(cur, &[1, 2, 3]);
    }

    #[test]
    fn slice_shares_and_bounds_check() {
        let b = Bytes::from((0u8..100).collect::<Vec<_>>());
        let s = b.slice(10..20);
        assert_eq!(s.len(), 10);
        assert_eq!(s[0], 10);
        let s2 = s.slice(..5);
        assert_eq!(&s2[..], &[10, 11, 12, 13, 14]);
        assert_eq!(b.slice(95..).to_vec(), vec![95, 96, 97, 98, 99]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let b = Bytes::from(vec![0u8; 4]);
        let _ = b.slice(2..10);
    }

    #[test]
    fn equality_and_clone_are_cheap_views() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(a, vec![1u8, 2, 3]);
        assert_eq!(a, [1u8, 2, 3][..]);
    }
}
