//! Page-granular segmented buffers.
//!
//! Kernel pipes and socket buffers hold data as runs of page references,
//! not as one contiguous allocation. [`SegBuf`] models that: a FIFO of
//! [`Bytes`] segments. Pushing a *reference* ([`SegBuf::push_ref`]) moves
//! no payload bytes — this is what `vmsplice`/`splice` do — while pushing
//! a *copy* ([`SegBuf::push_copy`]) performs a real `memcpy`, as ordinary
//! `write(2)` does. The distinction is observable in tests via pointer
//! identity, so "zero-copy" claims in higher layers are mechanically
//! checkable.

use std::collections::VecDeque;

use bytes::{Bytes, BytesMut};

/// A FIFO of byte segments, the storage behind pipes and socket buffers.
#[derive(Debug, Default, Clone)]
pub struct SegBuf {
    segments: VecDeque<Bytes>,
    len: usize,
}

impl SegBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total buffered bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Enqueues a copy of `data` (a real `memcpy` into fresh storage).
    pub fn push_copy(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        let mut buf = BytesMut::with_capacity(data.len());
        buf.extend_from_slice(data);
        self.len += data.len();
        self.segments.push_back(buf.freeze());
    }

    /// Enqueues a reference to `data` without copying (page gifting).
    pub fn push_ref(&mut self, data: Bytes) {
        if data.is_empty() {
            return;
        }
        self.len += data.len();
        self.segments.push_back(data);
    }

    /// Dequeues up to `max` bytes as a single segment without copying.
    ///
    /// If the front segment is larger than `max` it is split (an O(1)
    /// reference-count operation on [`Bytes`]). Returns `None` when empty
    /// or `max == 0`.
    pub fn pop_ref(&mut self, max: usize) -> Option<Bytes> {
        if self.len == 0 || max == 0 {
            return None;
        }
        let front = self.segments.front_mut().expect("len > 0 implies a segment");
        let out = if front.len() <= max {
            self.segments.pop_front().expect("checked non-empty")
        } else {
            front.split_to(max)
        };
        self.len -= out.len();
        Some(out)
    }

    /// Dequeues up to `max` bytes, copying them into fresh storage (the
    /// kernel→user copy of an ordinary `read(2)`).
    pub fn pop_copy(&mut self, max: usize) -> Option<Bytes> {
        let zc = self.pop_ref(max)?;
        let mut buf = BytesMut::with_capacity(zc.len());
        buf.extend_from_slice(&zc);
        Some(buf.freeze())
    }

    /// Concatenates the entire content into one contiguous [`Bytes`]
    /// (no copy if a single segment is buffered), leaving the buffer empty.
    pub fn gather(&mut self) -> Bytes {
        if self.segments.len() == 1 {
            self.len = 0;
            return self.segments.pop_front().expect("one segment");
        }
        let mut out = BytesMut::with_capacity(self.len);
        for seg in self.segments.drain(..) {
            out.extend_from_slice(&seg);
        }
        self.len = 0;
        out.freeze()
    }
}

impl From<Bytes> for SegBuf {
    fn from(b: Bytes) -> Self {
        let mut buf = SegBuf::new();
        buf.push_ref(b);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn push_ref_shares_storage() {
        let data = Bytes::from(vec![1u8; 256]);
        let ptr = data.as_ptr();
        let mut buf = SegBuf::new();
        buf.push_ref(data);
        let out = buf.pop_ref(256).unwrap();
        assert_eq!(out.as_ptr(), ptr, "zero-copy path must not move bytes");
    }

    #[test]
    fn push_copy_does_not_share_storage() {
        let data = vec![2u8; 256];
        let ptr = data.as_ptr();
        let mut buf = SegBuf::new();
        buf.push_copy(&data);
        let out = buf.pop_ref(256).unwrap();
        assert_ne!(out.as_ptr(), ptr, "copy path must duplicate bytes");
        assert_eq!(&out[..], &data[..]);
    }

    #[test]
    fn pop_splits_large_segments() {
        let mut buf = SegBuf::new();
        buf.push_ref(Bytes::from(vec![7u8; 100]));
        let a = buf.pop_ref(30).unwrap();
        let b = buf.pop_ref(100).unwrap();
        assert_eq!(a.len(), 30);
        assert_eq!(b.len(), 70);
        assert!(buf.is_empty());
    }

    #[test]
    fn fifo_order_preserved() {
        let mut buf = SegBuf::new();
        buf.push_copy(b"abc");
        buf.push_ref(Bytes::from_static(b"def"));
        let mut out = Vec::new();
        while let Some(seg) = buf.pop_ref(2) {
            out.extend_from_slice(&seg);
        }
        assert_eq!(out, b"abcdef");
    }

    #[test]
    fn empty_operations() {
        let mut buf = SegBuf::new();
        assert!(buf.pop_ref(10).is_none());
        assert!(buf.pop_copy(10).is_none());
        buf.push_copy(b"");
        buf.push_ref(Bytes::new());
        assert!(buf.is_empty());
        assert!(buf.segments.is_empty());
        assert_eq!(buf.gather().len(), 0);
    }

    #[test]
    fn pop_zero_returns_none() {
        let mut buf = SegBuf::from(Bytes::from_static(b"x"));
        assert!(buf.pop_ref(0).is_none());
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn gather_concatenates() {
        let mut buf = SegBuf::new();
        buf.push_copy(b"hello ");
        buf.push_copy(b"world");
        assert_eq!(&buf.gather()[..], b"hello world");
        assert!(buf.is_empty());
    }

    #[test]
    fn gather_single_segment_is_zero_copy() {
        let data = Bytes::from(vec![9u8; 64]);
        let ptr = data.as_ptr();
        let mut buf = SegBuf::from(data);
        assert_eq!(buf.gather().as_ptr(), ptr);
    }

    proptest! {
        #[test]
        fn len_is_sum_of_segments(
            ops in proptest::collection::vec(
                prop_oneof![
                    proptest::collection::vec(any::<u8>(), 0..64).prop_map(Ok),
                    (0usize..128).prop_map(Err),
                ],
                0..40,
            )
        ) {
            let mut buf = SegBuf::new();
            let mut model: Vec<u8> = Vec::new();
            let mut popped: Vec<u8> = Vec::new();
            for op in ops {
                match op {
                    Ok(data) => {
                        model.extend_from_slice(&data);
                        buf.push_copy(&data);
                    }
                    Err(max) => {
                        if let Some(seg) = buf.pop_ref(max) {
                            popped.extend_from_slice(&seg);
                        }
                    }
                }
                prop_assert_eq!(buf.len() + popped.len(), model.len());
            }
            popped.extend_from_slice(&buf.gather());
            prop_assert_eq!(popped, model);
        }
    }
}
