//! The key of one leaf item: a heap block holding the key's length and
//! then its bytes, owned through a thin pointer.
//!
//! A `Box<[u8]>` is a pointer and a length, sixteen bytes in every item
//! record; a [`KeyBox`] is eight, so a record with a `u64` value is sixteen
//! bytes instead of twenty-four. The length travels with the bytes, which
//! also helps the lock-free readers: a reader racing a writer that shifts
//! item records loads one word per key, and whichever block that word
//! names describes itself — it can no longer pair one key's pointer with
//! another key's length.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;

use crate::prefetch::prefetch_read;

/// The length word in front of the key bytes.
type Len = u32;
const HEADER: usize = std::mem::size_of::<Len>();

/// An owned, immutable byte string behind a thin pointer.
pub(crate) struct KeyBox(NonNull<u8>);

// SAFETY: a `KeyBox` owns its block exclusively and never mutates it after
// construction, like a `Box<[u8]>`.
unsafe impl Send for KeyBox {}
// SAFETY: as above; shared access only reads.
unsafe impl Sync for KeyBox {}

impl KeyBox {
    /// Copies `key` into a block of its own.
    pub(crate) fn new(key: &[u8]) -> Self {
        let len = Len::try_from(key.len()).expect("a key is shorter than 4 GiB");
        let layout = Self::layout(key.len());
        // SAFETY: the layout holds at least the header, so its size is not
        // zero.
        let Some(block) = NonNull::new(unsafe { alloc(layout) }) else {
            handle_alloc_error(layout)
        };
        // SAFETY: the block is `HEADER + key.len()` bytes, aligned for
        // `Len`, and not yet shared; `key` cannot overlap a fresh block.
        unsafe {
            block.cast::<Len>().write(len);
            std::ptr::copy_nonoverlapping(key.as_ptr(), block.as_ptr().add(HEADER), key.len());
        }
        Self(block)
    }

    fn layout(len: usize) -> Layout {
        Layout::from_size_align(HEADER + len, std::mem::align_of::<Len>())
            .expect("a key block is shorter than isize::MAX")
    }

    /// Where the block starts — the line the first key bytes share with the
    /// length. For prefetching: reading the address touches no memory.
    #[inline]
    pub(crate) fn as_ptr(&self) -> *const u8 {
        self.0.as_ptr()
    }

    /// Hints the block's first line and the line a key of `key_len` bytes
    /// ends on (the block states its real length, but reading that is the
    /// miss the hint is there to hide; a leaf knows its keys' mean length).
    #[inline]
    pub(crate) fn prefetch(&self, key_len: usize) {
        prefetch_read(self.as_ptr());
        prefetch_read(
            self.as_ptr()
                .wrapping_add(HEADER + key_len.saturating_sub(1)),
        );
    }
}

impl std::ops::Deref for KeyBox {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `new` wrote the length and that many initialised bytes
        // behind it, and nothing writes to the block until `drop`.
        unsafe {
            let len = self.0.cast::<Len>().read() as usize;
            std::slice::from_raw_parts(self.0.as_ptr().add(HEADER), len)
        }
    }
}

impl Drop for KeyBox {
    fn drop(&mut self) {
        let layout = Self::layout(self.len());
        // SAFETY: the block came from `alloc` with this very layout (the
        // length word has not changed since) and is owned by `self` alone.
        unsafe { dealloc(self.0.as_ptr(), layout) }
    }
}

impl Clone for KeyBox {
    fn clone(&self) -> Self {
        Self::new(self)
    }
}

impl std::fmt::Debug for KeyBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_box_is_one_word_and_holds_what_it_was_given() {
        assert_eq!(std::mem::size_of::<KeyBox>(), 8);
        assert_eq!(std::mem::size_of::<Option<KeyBox>>(), 8);
        for key in [
            &b""[..],
            b"k",
            b"thirty-six bytes of amazon-style key",
            &[0u8; 3000],
        ] {
            let boxed = KeyBox::new(key);
            assert_eq!(&*boxed, key);
            assert_eq!(boxed.as_ptr() as usize % std::mem::align_of::<Len>(), 0);
            let copy = boxed.clone();
            drop(boxed);
            assert_eq!(&*copy, key);
            assert_eq!(format!("{copy:?}"), format!("{key:?}"));
        }
    }
}
