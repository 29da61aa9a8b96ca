//! [`Adverts`]: an LSA's link adverts behind a thin shared handle.
//!
//! Every daemon's link-state table holds one advert list per origin, so the
//! handle to a list is paid N² times in an N-node deployment. An
//! `Arc<[LinkAdvert]>` is a fat pointer (address and length, 16 bytes). An
//! `Adverts` keeps the length in the allocation, beside the holder count,
//! and is one 8-byte pointer; `Option<Adverts>` is too. The allocation is
//! laid out as an `Arc<[LinkAdvert]>`'s is — a 16-byte header, then the
//! adverts — and a list is one allocation, made once.
//!
//! Std has no thin shared slice, and a second allocation behind a thin
//! handle (`Arc<Box<[LinkAdvert]>>`) would double the allocations per
//! decoded LSA. So this module allocates by hand. It is the crate's only
//! `unsafe` code; `LinkAdvert` is `Copy`, so a list never drops an item.

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::fmt;
use std::marker::PhantomData;
use std::ops::Deref;
use std::ptr::{self, NonNull};
use std::slice;
use std::sync::atomic::{fence, AtomicUsize, Ordering};

use super::LinkAdvert;

/// The head of a list's allocation: how many handles share it and how many
/// adverts follow it.
#[repr(C)]
struct Header {
    holders: AtomicUsize,
    len: usize,
}

// The adverts start right after the header, with no padding between.
const _: () = assert!(
    align_of::<LinkAdvert>() <= align_of::<Header>()
        && size_of::<Header>().is_multiple_of(align_of::<LinkAdvert>())
);

/// More holders than this is a leak of handles, not a share: abort rather
/// than let the count wrap (as `Arc` does).
const MAX_HOLDERS: usize = isize::MAX as usize;

/// An immutable list of link adverts, shared by every handle cloned from
/// it: an `Arc<[LinkAdvert]>` in an 8-byte handle.
pub struct Adverts {
    ptr: NonNull<Header>,
    /// The handle shares ownership of the adverts.
    _adverts: PhantomData<LinkAdvert>,
}

// SAFETY: a list is immutable after construction and its holder count is
// atomic, so handles on several threads touch the allocation only through
// atomic operations and shared reads of `Copy` data (`LinkAdvert` is
// `Send + Sync`), exactly as `Arc<[LinkAdvert]>` does.
unsafe impl Send for Adverts {}
// SAFETY: as for `Send`.
unsafe impl Sync for Adverts {}

impl Adverts {
    /// Bytes of a list's allocation ahead of its adverts.
    pub const HEADER_BYTES: usize = size_of::<Header>();

    /// The layout of a list of `len` adverts.
    fn layout(len: usize) -> Layout {
        let bytes = len
            .checked_mul(size_of::<LinkAdvert>())
            .and_then(|adverts| adverts.checked_add(Self::HEADER_BYTES))
            .expect("advert list size overflows");
        Layout::from_size_align(bytes, align_of::<Header>()).expect("advert list size overflows")
    }

    /// A fresh allocation for `len` adverts, with its header written (one
    /// holder) and its adverts not yet written.
    fn allocate(len: usize) -> NonNull<Header> {
        let layout = Self::layout(len);
        // SAFETY: the layout is never zero-sized; it holds the header.
        let raw = unsafe { alloc(layout) };
        let Some(ptr) = NonNull::new(raw.cast::<Header>()) else {
            handle_alloc_error(layout)
        };
        let header = Header {
            holders: AtomicUsize::new(1),
            len,
        };
        // SAFETY: `ptr` is a fresh allocation, aligned for and at least as
        // large as a `Header`.
        unsafe { ptr.as_ptr().write(header) };
        ptr
    }

    /// Where the adverts of the list at `ptr` start: `HEADER_BYTES` into
    /// the allocation (at its end, for an empty list), an offset the const
    /// assertion above makes aligned for a `LinkAdvert`.
    fn items(ptr: NonNull<Header>) -> *mut LinkAdvert {
        ptr.as_ptr()
            .cast::<u8>()
            .wrapping_add(Self::HEADER_BYTES)
            .cast()
    }

    fn header(&self) -> &Header {
        // SAFETY: this handle holds a share, so the allocation is live.
        unsafe { self.ptr.as_ref() }
    }

    /// Whether two handles share one allocation.
    #[must_use]
    pub fn ptr_eq(a: &Adverts, b: &Adverts) -> bool {
        a.ptr == b.ptr
    }

    /// How many handles share this list (footprints split it among them).
    #[must_use]
    pub fn holders(&self) -> usize {
        self.header().holders.load(Ordering::Acquire)
    }
}

impl Deref for Adverts {
    type Target = [LinkAdvert];

    fn deref(&self) -> &[LinkAdvert] {
        // SAFETY: every constructor writes all `len` adverts before it
        // returns a handle, and nothing writes them after.
        unsafe { slice::from_raw_parts(Self::items(self.ptr), self.header().len) }
    }
}

impl Clone for Adverts {
    fn clone(&self) -> Self {
        // A new handle is made from an existing one, which keeps the list
        // alive meanwhile: no ordering is needed (as in `Arc::clone`).
        if self.header().holders.fetch_add(1, Ordering::Relaxed) > MAX_HOLDERS {
            std::process::abort();
        }
        Adverts {
            ptr: self.ptr,
            _adverts: PhantomData,
        }
    }
}

impl Drop for Adverts {
    fn drop(&mut self) {
        if self.header().holders.fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        // Every other holder's release happens before the free.
        fence(Ordering::Acquire);
        let layout = Self::layout(self.header().len);
        // SAFETY: this was the last handle, so nothing else can reach the
        // allocation, which `allocate` made with this layout. The adverts
        // are `Copy`: there is nothing to drop first.
        unsafe { dealloc(self.ptr.as_ptr().cast(), layout) };
    }
}

impl From<&[LinkAdvert]> for Adverts {
    fn from(adverts: &[LinkAdvert]) -> Self {
        let ptr = Self::allocate(adverts.len());
        // SAFETY: the fresh allocation has room for exactly `adverts.len()`
        // adverts and cannot overlap the borrowed source.
        unsafe { ptr::copy_nonoverlapping(adverts.as_ptr(), Self::items(ptr), adverts.len()) };
        Adverts {
            ptr,
            _adverts: PhantomData,
        }
    }
}

impl From<Vec<LinkAdvert>> for Adverts {
    fn from(adverts: Vec<LinkAdvert>) -> Self {
        Self::from(&adverts[..])
    }
}

impl<const N: usize> From<[LinkAdvert; N]> for Adverts {
    fn from(adverts: [LinkAdvert; N]) -> Self {
        Self::from(&adverts[..])
    }
}

impl FromIterator<LinkAdvert> for Adverts {
    /// One allocation when the iterator knows its exact length (a `map`
    /// over a slice or a range does); otherwise the adverts are collected
    /// first.
    fn from_iter<I: IntoIterator<Item = LinkAdvert>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let (len, upper) = iter.size_hint();
        let mut collected = Vec::new();
        if upper == Some(len) {
            let ptr = Self::allocate(len);
            let items = Self::items(ptr);
            let mut written = 0;
            // An iterator that panics here leaks the allocation, unread.
            for advert in iter.by_ref().take(len) {
                // SAFETY: `written < len`, so the slot is inside the
                // allocation, and it has not been written or read yet.
                unsafe { items.add(written).write(advert) };
                written += 1;
            }
            let extra = iter.next();
            if written == len && extra.is_none() {
                return Adverts {
                    ptr,
                    _adverts: PhantomData,
                };
            }
            // The size hint was wrong: keep what was taken, start over.
            // SAFETY: the first `written` adverts were written above.
            collected.extend_from_slice(unsafe { slice::from_raw_parts(items, written) });
            collected.extend(extra);
            // SAFETY: no handle was made, so nothing else reaches the
            // allocation, which `allocate(len)` made with this layout.
            unsafe { dealloc(ptr.as_ptr().cast(), Self::layout(len)) };
        }
        collected.extend(iter);
        Self::from(&collected[..])
    }
}

impl PartialEq for Adverts {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl fmt::Debug for Adverts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use son_topo::EdgeId;

    fn advert(edge: usize) -> LinkAdvert {
        LinkAdvert {
            edge: EdgeId(edge),
            up: edge.is_multiple_of(2),
            latency_ms: 10.25 + edge as f64,
            loss: 0.02,
        }
    }

    #[test]
    fn a_handle_is_one_pointer() {
        assert_eq!(size_of::<Adverts>(), 8);
        assert_eq!(size_of::<Option<Adverts>>(), 8);
        assert_eq!(Adverts::HEADER_BYTES, 16);
    }

    #[test]
    fn an_empty_list_is_a_list() {
        let empty: Adverts = std::iter::empty().collect();
        assert!(empty.is_empty());
        assert_eq!(empty, Adverts::from(&[][..]));
        assert_eq!(format!("{empty:?}"), "[]");
        assert_eq!(empty.holders(), 1);
    }

    #[test]
    fn a_list_reads_back_what_built_it() {
        let want: Vec<LinkAdvert> = (0..5).map(advert).collect();
        let built: [Adverts; 4] = [
            (0..5).map(advert).collect(),
            Adverts::from(&want[..]),
            Adverts::from([advert(0), advert(1), advert(2), advert(3), advert(4)]),
            // Not an exact-size iterator: collected first.
            (0..10)
                .filter(|e| e % 2 == 0)
                .map(|e| advert(e / 2))
                .collect(),
        ];
        for list in &built {
            assert_eq!(**list, want[..]);
            assert_eq!(format!("{list:?}"), format!("{want:?}"));
        }
        assert_ne!(built[0], (0..4).map(advert).collect::<Adverts>());
    }

    /// An iterator that promises an exact length it does not keep.
    struct Lying {
        promised: usize,
        yields: usize,
    }

    impl Iterator for Lying {
        type Item = LinkAdvert;

        fn next(&mut self) -> Option<LinkAdvert> {
            self.yields.checked_sub(1).map(|left| {
                self.yields = left;
                advert(left)
            })
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            (self.promised, Some(self.promised))
        }
    }

    #[test]
    fn a_wrong_size_hint_still_builds_the_whole_list() {
        for (promised, yields) in [(3, 1), (1, 3), (0, 2), (2, 0)] {
            let list: Adverts = Lying { promised, yields }.collect();
            let want: Vec<LinkAdvert> = (0..yields).rev().map(advert).collect();
            assert_eq!(*list, want[..], "promised {promised}, yields {yields}");
        }
    }

    #[test]
    fn clones_share_the_list_until_one_holder_is_left() {
        let list: Adverts = (0..3).map(advert).collect();
        let clones: Vec<Adverts> = (0..5).map(|_| list.clone()).collect();
        assert_eq!(list.holders(), 6);
        assert!(clones.iter().all(|c| Adverts::ptr_eq(c, &list)));
        let copy: Adverts = list.iter().copied().collect();
        assert_eq!(copy, list);
        assert!(!Adverts::ptr_eq(&copy, &list));
        drop(clones);
        assert_eq!(list.holders(), 1);
        assert_eq!(copy.holders(), 1);
    }

    #[test]
    fn threads_cloning_and_dropping_one_list_leave_one_holder() {
        let list: Adverts = (0..4).map(advert).collect();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (list, start) = (&list, &start);
                s.spawn(move || {
                    start.wait();
                    let mut held = Vec::new();
                    for i in 0..2_000 {
                        held.push(list.clone());
                        if (i + t) % 3 == 0 {
                            held.clear();
                        }
                        assert_eq!(held.last().map_or(4, |h| h.len()), 4);
                    }
                    // A handle moved to another thread is dropped there.
                    let moved = list.clone();
                    std::thread::spawn(move || drop(moved)).join().unwrap();
                });
            }
        });
        assert_eq!(list.holders(), 1);
        assert_eq!(*list, (0..4).map(advert).collect::<Vec<_>>()[..]);
    }
}
