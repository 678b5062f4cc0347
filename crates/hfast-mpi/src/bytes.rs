//! Cheaply cloneable immutable byte buffers.
//!
//! A minimal stand-in for the `bytes` crate's `Bytes`: an `Arc<[u8]>`, so a
//! payload forwarded through a reduction tree or fanned out by a broadcast
//! clones a pointer, not the buffer.

use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte buffer.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty buffer.
    pub(crate) fn new() -> Self {
        Bytes(Arc::from(&[][..]))
    }

    /// Length in bytes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes(Arc::from(v))
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Bytes(Arc::from(s))
    }
}

impl<const N: usize> From<[u8; N]> for Bytes {
    fn from(a: [u8; N]) -> Self {
        Bytes(Arc::from(&a[..]))
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Self {
        Bytes(Arc::from(s.as_bytes()))
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_forms_agree() {
        let v = Bytes::from(vec![1u8, 2, 3]);
        let s = Bytes::from(&[1u8, 2, 3][..]);
        let a = Bytes::from([1u8, 2, 3]);
        assert_eq!(v, s);
        assert_eq!(v, a);
        assert_eq!(v.len(), 3);
        assert_eq!(&v[..], &[1, 2, 3]);
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![0u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
    }

    #[test]
    fn empty_default() {
        assert!(Bytes::default().is_empty());
        assert_eq!(Bytes::new().len(), 0);
    }

    #[test]
    fn slice_ops_via_deref() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(b.chunks_exact(4).count(), 2);
        assert_eq!(b.iter().sum::<u8>(), 36);
    }
}
