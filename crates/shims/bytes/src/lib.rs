//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no crates.io access, so this shim provides the
//! subset of the `bytes` API the workspace uses: [`BytesMut`] as a growable
//! write buffer with the [`BufMut`] putters, and [`Bytes`] as a cheaply
//! cloneable read view with the [`Buf`] getters (big-endian, like `bytes`).
//! Sharing is an `Arc<Vec<u8>>` plus a cursor, so `clone` and `split_to`
//! never copy payload bytes and [`BytesMut::freeze`] moves the buffer it
//! wrote instead of copying it into a fresh allocation.
//!
//! Every public function is `#[inline]`, and the lint below keeps it so:
//! the benchmark builds without LTO, where a call into this crate that is
//! not `#[inline]` stays a call. Without it a one-byte `put_u8` is an
//! out-of-line `put_slice` and a `memcpy`.

#![warn(clippy::missing_inline_in_public_items)]

use std::sync::Arc;

/// Read access to a contiguous byte cursor (subset of `bytes::Buf`).
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;

    /// The unread bytes.
    fn chunk(&self) -> &[u8];

    /// Skips `n` bytes.
    fn advance(&mut self, n: usize);

    /// Returns `true` when nothing remains.
    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Reads one byte.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Reads a big-endian `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(raw)
    }

    /// Reads a big-endian `u64`.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_be_bytes(raw)
    }
}

/// Write access to a growable byte buffer (subset of `bytes::BufMut`).
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends `cnt` copies of the byte `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize);

    /// Appends one byte.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// A growable, uniquely owned byte buffer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// Creates an empty buffer.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with reserved capacity.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            data: Vec::with_capacity(capacity),
        }
    }

    /// Number of written bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when no bytes have been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Freezes the buffer into an immutable, cheaply cloneable [`Bytes`].
    /// The written bytes are moved, not copied: the view reads the very
    /// allocation the putters filled.
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    #[inline]
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.data.resize(self.data.len() + cnt, val);
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl AsMut<[u8]> for BytesMut {
    #[inline]
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// An immutable, cheaply cloneable view of a byte buffer.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    /// First live byte.
    start: usize,
    /// Bytes cut off the end (`data.len() - end_offset` is one past the
    /// last live byte).
    end_offset: usize,
}

impl Bytes {
    /// Creates an empty view.
    #[inline]
    pub fn new() -> Self {
        Self::from(Vec::new())
    }

    /// Copies `slice` into a new view.
    #[inline]
    pub fn copy_from_slice(slice: &[u8]) -> Self {
        Self::from(slice.to_vec())
    }

    #[inline]
    fn end(&self) -> usize {
        self.data.len() - self.end_offset
    }

    /// Number of live bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.end() - self.start
    }

    /// Returns `true` when no bytes remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Splits off and returns the first `n` bytes, leaving the rest
    /// (shares storage; no copying).
    #[inline]
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of bounds");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end_offset: self.data.len() - (self.start + n),
        };
        self.start += n;
        head
    }

    /// Copies the live bytes into a `Vec`.
    #[inline]
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Default for Bytes {
    #[inline]
    fn default() -> Self {
        Self::new()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.data[self.start..self.end()]
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Self {
            data: Arc::new(v),
            start: 0,
            end_offset: 0,
        }
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self.as_ref()
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.start += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_putters_and_getters() {
        let mut buf = BytesMut::with_capacity(32);
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_slice(b"key");
        buf.put_u64(42);
        buf.put_bytes(9, 2);
        buf.as_mut()[0] = 8;
        assert_eq!(buf.len(), 1 + 4 + 3 + 8 + 2);
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 8);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(b.split_to(3).as_ref(), b"key");
        assert_eq!(b.get_u64(), 42);
        assert_eq!(b.split_to(2).as_ref(), [9, 9]);
        assert!(b.is_empty());
    }

    #[test]
    fn freeze_keeps_the_buffers_address() {
        // A frozen message is the allocation the encoder wrote, even when
        // the buffer has spare capacity (shrinking it would reallocate).
        let mut buf = BytesMut::with_capacity(4096);
        buf.put_slice(&[7u8; 1000]);
        let written = buf.as_ref().as_ptr();
        let frozen = buf.freeze();
        assert_eq!(frozen.as_ref().as_ptr(), written);
        assert_eq!(frozen.len(), 1000);
        assert_eq!(frozen.clone().as_ref().as_ptr(), written);
    }

    #[test]
    fn split_to_shares_storage() {
        let b = Bytes::copy_from_slice(b"hello world");
        let mut rest = b.clone();
        let head = rest.split_to(5);
        assert_eq!(head.as_ref(), b"hello");
        assert_eq!(rest.as_ref(), b" world");
        assert_eq!(b.as_ref(), b"hello world");
    }
}
