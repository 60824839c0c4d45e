//! Read-only memory-mapped files for the segmented store.
//!
//! Segments pack hundreds of hour payloads into one file; reading them
//! through a map means the block decoder borrows `&[u8]` straight out
//! of the page cache instead of copying every hour into a fresh
//! `Vec<u8>` first. Only the pages a reader touches are ever resident,
//! and the reader gives them back behind its cursor: when a fetched
//! hour's bytes drop, the store calls [`Mmap::release`] on the hour's
//! range, which `madvise(MADV_DONTNEED)`s its whole
//! [`RELEASE_GRANULE`]s. A walk over a year of segments therefore
//! holds one hour's pages, not every page it has served.
//!
//! Zero-dependency discipline, like the rest of the workspace: the map
//! is a raw `mmap(2)`/`munmap(2)`/`madvise(2)` binding on 64-bit unix
//! (std already links libc there), and everywhere else [`Mmap::open`]
//! silently falls back to reading the file into an owned buffer, so
//! callers never branch on platform.
//!
//! # Safety argument
//!
//! This is the only `unsafe` code in the workspace, so the contract is
//! spelled out once, here (and summarized in DESIGN.md §3a):
//!
//! * The mapping is `PROT_READ` + `MAP_PRIVATE` over a file we opened
//!   read-only: nothing in this process can write through it, so the
//!   returned `&[u8]` is never aliased mutably.
//! * Segment files are immutable once written — the writer goes through
//!   a `.tmp` sibling and an atomic rename, and nothing in the
//!   workspace ever modifies a segment in place — so the bytes behind
//!   the map do not change for the life of the mapping.
//! * The pointer/length pair handed to [`std::slice::from_raw_parts`]
//!   comes from a successful `mmap` call of exactly that length and is
//!   unmapped only in `Drop`, after every borrow is gone (the borrows
//!   are tied to `&self`).
//! * [`Mmap::release`] only drops resident pages; it never unmaps. No
//!   page of a `PROT_READ` + `MAP_PRIVATE` mapping is ever a private
//!   copy (nothing writes to it), so the next touch of a released page
//!   maps the same page-cache bytes of the same immutable file again.
//!   A live `&[u8]` over a released page — a neighbouring hour that
//!   shares it, another thread's hour, or [`Mmap::bytes`] itself —
//!   therefore reads identical bytes before and after. The call is
//!   only advice: its error is ignored, and the owned fallback has no
//!   pages to give back.
//! * An *external* writer truncating the file under the map could still
//!   fault the process (`SIGBUS`), exactly as it always could corrupt a
//!   plain `read`. That is outside the trust boundary; within it, the
//!   manifest, segment-table, and per-block checksums ensure tampered
//!   bytes are rejected at decode time instead of being analyzed.

use crate::NetError;
use std::fs;
use std::io::Read as _;
use std::ops::Range;
use std::path::Path;

/// The unit [`Mmap::release`] gives back: 64 KiB, a multiple of every
/// base page size the workspace maps on (4 KiB, 16 KiB, 64 KiB), so a
/// granule boundary is always page-aligned. It is also Linux's default
/// fault-around window, so the pages a fault maps around it never lie
/// before the granule its own range's release starts at.
pub const RELEASE_GRANULE: usize = 64 * 1024;

/// A read-only view of an entire file: memory-mapped where supported,
/// an owned in-memory copy otherwise. Either way [`Mmap::bytes`] hands
/// out the full contents as one slice.
#[derive(Debug)]
pub struct Mmap {
    inner: Inner,
}

#[derive(Debug)]
enum Inner {
    #[cfg(all(unix, target_pointer_width = "64"))]
    Mapped(sys::Map),
    Owned(Vec<u8>),
}

impl Mmap {
    /// Map `path` read-only. Zero-length files, non-unix targets, and
    /// filesystems that refuse `mmap` fall back to an owned read; use
    /// [`Mmap::is_mapped`] to observe which happened.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] if the file cannot be opened or read.
    pub fn open(path: &Path) -> Result<Mmap, NetError> {
        let mut file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| NetError::Codec(format!("{} too large to map", path.display())))?;
        #[cfg(all(unix, target_pointer_width = "64"))]
        if len > 0 {
            if let Ok(map) = sys::Map::new(&file, len) {
                return Ok(Mmap {
                    inner: Inner::Mapped(map),
                });
            }
        }
        let mut bytes = Vec::with_capacity(len);
        file.read_to_end(&mut bytes)?;
        Ok(Mmap {
            inner: Inner::Owned(bytes),
        })
    }

    /// The file's full contents.
    pub fn bytes(&self) -> &[u8] {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped(map) => map.as_slice(),
            Inner::Owned(bytes) => bytes,
        }
    }

    /// File length in bytes.
    pub fn len(&self) -> usize {
        self.bytes().len()
    }

    /// Whether the file was empty.
    pub fn is_empty(&self) -> bool {
        self.bytes().is_empty()
    }

    /// Give back the resident pages of `range`, both ends rounded
    /// *down* to a [`RELEASE_GRANULE`] boundary: the granule holding
    /// `range.start` is released, the one holding `range.end` is kept.
    /// A forward walk that releases each range it has read thus
    /// releases every page once, by the first range that ends past it,
    /// and keeps at most one granule resident. Bytes stay readable: a
    /// released page is mapped again on its next touch (see the module
    /// docs). A no-op on the owned fallback.
    pub fn release(&self, range: Range<usize>) {
        let start = range.start - range.start % RELEASE_GRANULE;
        let end = range.end.min(self.len());
        let end = end - end % RELEASE_GRANULE;
        if start >= end {
            return;
        }
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped(map) => map.dont_need(start, end),
            Inner::Owned(_) => {}
        }
    }

    /// Whether this view is an actual memory map (false on the owned
    /// fallback). Only observability — the slice behaves identically.
    pub fn is_mapped(&self) -> bool {
        match &self.inner {
            #[cfg(all(unix, target_pointer_width = "64"))]
            Inner::Mapped(_) => true,
            Inner::Owned(_) => false,
        }
    }
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.bytes()
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

/// The raw `mmap(2)` binding. Kept to the three calls the reader needs;
/// constants are the values Linux, macOS and the BSDs agree on for this
/// flag subset.
#[cfg(all(unix, target_pointer_width = "64"))]
mod sys {
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::os::raw::{c_int, c_void};

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;
    const MADV_DONTNEED: c_int = 4;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
        fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }

    /// An owned `mmap` region: unmapped on drop.
    #[derive(Debug)]
    pub(super) struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the region is PROT_READ and never written through this
    // process; sharing the pointer across threads only ever produces
    // shared `&[u8]` borrows.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        pub(super) fn new(file: &File, len: usize) -> io::Result<Map> {
            debug_assert!(len > 0, "zero-length maps are the caller's fallback");
            // SAFETY: fd is a live descriptor borrowed for the call,
            // len is the file's actual size, and the null addr lets the
            // kernel place the mapping. MAP_FAILED is (void*)-1.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(Map { ptr, len })
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len are exactly what the successful mmap
            // returned; the region stays mapped until Drop, and the
            // returned borrow cannot outlive `&self` (see module docs
            // for the immutability argument).
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }

        /// Drop the resident pages of `start..end`; `start` must be
        /// page-aligned. The mapping stays; a later touch re-maps the
        /// file's bytes (module docs).
        pub(super) fn dont_need(&self, start: usize, end: usize) {
            assert!(start < end && end <= self.len, "release out of the map");
            // SAFETY: start..end lies inside the live mapping and
            // `start` is page-aligned (the caller rounds to
            // RELEASE_GRANULE). MADV_DONTNEED on a read-only private
            // file mapping with no private copies only drops page-table
            // entries: outstanding `&[u8]` borrows stay valid and read
            // the same file bytes on their next touch. The call is
            // advice, so a failure (EINVAL on an unexpected page size)
            // leaves the pages resident and is ignored.
            unsafe {
                madvise(
                    self.ptr.cast::<u8>().add(start).cast::<c_void>(),
                    end - start,
                    MADV_DONTNEED,
                );
            }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: inverse of the successful mmap in `new`; after
            // this the struct is gone, so no slice can dangle.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn tmpfile(name: &str, contents: &[u8]) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("iotscope-mmap-{name}-{}", std::process::id()));
        let mut f = fs::File::create(&path).unwrap();
        f.write_all(contents).unwrap();
        path
    }

    #[test]
    fn maps_file_contents_exactly() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let path = tmpfile("contents", &payload);
        let map = Mmap::open(&path).unwrap();
        assert_eq!(map.bytes(), &payload[..]);
        assert_eq!(map.len(), payload.len());
        assert!(!map.is_empty());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn empty_file_maps_to_empty_slice() {
        let path = tmpfile("empty", b"");
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_empty());
        assert_eq!(map.bytes(), b"");
        assert!(!map.is_mapped(), "zero-length files use the owned path");
        let _ = fs::remove_file(&path);
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn non_empty_files_really_map_on_unix() {
        let path = tmpfile("mapped", b"hello telescope");
        let map = Mmap::open(&path).unwrap();
        assert!(map.is_mapped());
        assert_eq!(&map[..5], b"hello");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn released_ranges_read_back_unchanged() {
        let payload: Vec<u8> = (0..=250u8)
            .cycle()
            .take(3 * RELEASE_GRANULE + 999)
            .collect();
        let path = tmpfile("release", &payload);
        let map = Mmap::open(&path).unwrap();
        // A borrow taken before the release, across a granule boundary.
        let held = &map.bytes()[RELEASE_GRANULE - 10..RELEASE_GRANULE + 10];
        assert_eq!(held, &payload[RELEASE_GRANULE - 10..RELEASE_GRANULE + 10]);
        for range in [
            0..10,
            5..RELEASE_GRANULE + 1,
            100..payload.len(),
            0..usize::MAX,
        ] {
            map.release(range);
            assert_eq!(held, &payload[RELEASE_GRANULE - 10..RELEASE_GRANULE + 10]);
            assert_eq!(map.bytes(), &payload[..]);
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let path = std::env::temp_dir().join("iotscope-mmap-definitely-missing");
        assert!(matches!(Mmap::open(&path), Err(NetError::Io(_))));
    }
}
