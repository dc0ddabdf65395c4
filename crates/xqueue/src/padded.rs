//! Cache-line padding.
//!
//! Agora's manager and workers synchronise tens of thousands of times per
//! frame through shared counters and queue indices. Co-locating two
//! independently written atomics in one 64-byte line makes every write
//! invalidate the other core's cached copy ("false sharing"); the paper
//! calls this out in §4.1 ("We also pad buffers to cache line size to
//! avoid false sharing"). [`CachePadded`] aligns and pads a value to the
//! x86 cache-line size.

use core::ops::{Deref, DerefMut};

/// The cache line size this workspace targets (x86-64 servers).
pub const CACHE_LINE: usize = 64;

/// Wraps a value so it occupies (at least) its own cache line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    /// Wraps `value` in its own cache line.
    pub const fn new(value: T) -> Self {
        Self { value }
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    #[inline(always)]
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    #[inline(always)]
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicU64;

    #[test]
    fn alignment_is_cache_line() {
        assert_eq!(core::mem::align_of::<CachePadded<u8>>(), CACHE_LINE);
        assert_eq!(core::mem::align_of::<CachePadded<AtomicU64>>(), CACHE_LINE);
    }

    #[test]
    fn size_is_multiple_of_cache_line() {
        assert_eq!(core::mem::size_of::<CachePadded<u8>>(), CACHE_LINE);
        assert_eq!(core::mem::size_of::<CachePadded<[u64; 9]>>(), 2 * CACHE_LINE);
    }

    #[test]
    fn adjacent_elements_in_array_do_not_share_lines() {
        let arr = [CachePadded::new(0u8), CachePadded::new(1u8)];
        let a = &*arr[0] as *const u8 as usize;
        let b = &*arr[1] as *const u8 as usize;
        assert!(b - a >= CACHE_LINE);
    }

    #[test]
    fn deref_reaches_the_value() {
        let mut p = CachePadded::new(41u32);
        *p += 1;
        assert_eq!(*p, 42);
    }
}
