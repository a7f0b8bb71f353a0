//! An immutable, reference-counted byte buffer.
//!
//! Covers the subset of the `bytes` crate's `Bytes` API the workspace
//! uses: cheap clones (`Arc` bump, no copy), construction from vectors,
//! slices and strings, and `Deref` to `[u8]`. Buffers registered with
//! HybridDART are shared zero-copy between the producer's registration
//! and every consumer's one-sided read.
//!
//! Storage is always a process-local `Arc<[u8]>`, whatever plane the
//! bytes arrived on: the intra-host shm plane copies each record out of
//! the ring on drain. On 64-bit targets the `Arc` header is two 8-byte
//! counters, so the payload starts 8-aligned and staged `f64` data can
//! be reinterpreted in place (`cods`' `FieldData::View`).

use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer backed by a static byte string (copied once).
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }

    /// Buffer holding a copy of `s`.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes { data: Arc::from(s) }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        &self.data
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes {
            data: Arc::from(&[][..]),
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { data: Arc::from(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes({} B)", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        assert!(Bytes::new().is_empty());
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"xy").as_slice(), b"xy");
        assert_eq!(Bytes::from("ab".to_string()).as_ref(), b"ab");
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn equality_by_content() {
        assert_eq!(Bytes::copy_from_slice(b"abc"), Bytes::from(b"abc".to_vec()));
        assert_ne!(
            Bytes::copy_from_slice(b"abc"),
            Bytes::copy_from_slice(b"abd")
        );
        let mut set = std::collections::HashSet::new();
        set.insert(Bytes::copy_from_slice(b"abc"));
        assert!(set.contains(&Bytes::from(b"abc".to_vec())));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn storage_is_8_aligned_for_in_place_f64_views() {
        for len in [0usize, 1, 8, 24, 4096] {
            let v = Bytes::from(vec![0u8; len]);
            let s = Bytes::copy_from_slice(&vec![0u8; len]);
            assert_eq!(v.as_ptr() as usize % 8, 0, "from Vec, {len} B");
            assert_eq!(s.as_ptr() as usize % 8, 0, "copied, {len} B");
        }
    }
}
