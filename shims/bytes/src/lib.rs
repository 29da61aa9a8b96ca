//! Offline stand-in for the `bytes` crate.
//!
//! Provides the [`Bytes`] type this workspace uses: an immutable, cheaply
//! cloneable byte buffer (an `Arc<[u8]>` under the hood, and nothing at all
//! when empty). The zero-copy split/slice machinery of the real crate is not
//! needed here.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    /// `None` when empty: like the real crate, an empty buffer owns no
    /// allocation, so creating, copying or cloning one never allocates.
    data: Option<Arc<[u8]>>,
}

impl Bytes {
    /// Creates an empty buffer, without allocating.
    #[must_use]
    pub const fn new() -> Self {
        Bytes { data: None }
    }

    /// Wraps a static byte slice.
    #[must_use]
    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    /// Copies `data` into a new buffer (no allocation when it is empty).
    #[must_use]
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: (!data.is_empty()).then(|| Arc::from(data)),
        }
    }

    /// Number of bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// `true` when the buffer holds no bytes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_none()
    }

    /// Returns a copy of the sub-range `[begin, end)` of this buffer.
    #[must_use]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        Bytes::copy_from_slice(&self.as_slice()[range])
    }

    fn as_slice(&self) -> &[u8] {
        self.data.as_deref().unwrap_or_default()
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

// By content, as a slice: an empty buffer equals, orders and hashes like any
// other empty buffer, and a buffer hashes like the `Arc<[u8]>` it wraps.
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}
impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}
impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            data: (!v.is_empty()).then(|| Arc::from(v)),
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Bytes::from_static(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::from_static(v.as_bytes())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_cheap_and_equal() {
        let a = Bytes::from(vec![1, 2, 3]);
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
    }

    #[test]
    fn empty_and_slice() {
        assert!(Bytes::new().is_empty());
        let a = Bytes::from(vec![1, 2, 3, 4]);
        assert_eq!(&a.slice(1..3)[..], &[2, 3]);
        assert!(a.slice(2..2).is_empty());
    }

    #[test]
    fn every_empty_buffer_is_the_same_buffer() {
        let empties = [
            Bytes::new(),
            Bytes::default(),
            Bytes::copy_from_slice(&[]),
            Bytes::from(Vec::new()),
            Bytes::from_static(b""),
            Bytes::from(vec![7]).slice(1..1),
        ];
        for e in &empties {
            assert!(e.data.is_none(), "an empty buffer owns no allocation");
            assert_eq!(e, &Bytes::new());
            assert_eq!(e.len(), 0);
            assert_eq!(&e[..], &[] as &[u8]);
        }
        assert!(Bytes::new() < Bytes::from(vec![0]));
        // Hashes are the wrapped slice's, empty or not.
        use std::hash::BuildHasher;
        let h = std::collections::hash_map::RandomState::new();
        for v in [vec![], vec![1, 2, 3]] {
            let arc: Arc<[u8]> = Arc::from(v.clone());
            assert_eq!(h.hash_one(Bytes::from(v)), h.hash_one(arc));
        }
    }
}
