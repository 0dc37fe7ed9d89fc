//! Memory-mapped shard reads: the read-only file mapping that serves as
//! one of [`ShardReader`]'s two byte stores.
//!
//! [`ShardReader::mapped`] swaps a validated reader's `seek` + `read`
//! store for a `Mapping` of the whole file, so a raw record read is a
//! slice of the page cache instead of a copy into a scratch buffer, and
//! a compressed frame is decoded straight from the mapped pages. Open,
//! validation, decoding and the CRC rules are the reader's own, so both
//! stores reject a damaged file alike and return the same bits: the
//! mapping is a pure wall-clock knob under determinism-contract rule 4.
//! [`MmapShardReader::open`] opens a shard straight onto the map, which
//! then serves the validation too.
//!
//! # Safety
//!
//! The workspace denies `unsafe_code`; this module carries a scoped
//! allow because POSIX `mmap` is inherently a raw-pointer API, and it
//! is the **only** non-SIMD module on the rte-lint L1 allowlist. The
//! invariant that makes every `unsafe` here sound: **a `Mapping` is
//! only constructed from a non-`MAP_FAILED` pointer returned by
//! `mmap(len, PROT_READ, MAP_PRIVATE)` over a successfully opened
//! read-only file of exactly `len > 0` bytes, the pointer stays valid
//! until the paired `munmap` in `Drop`, and the mapping is never
//! written through.** Shard files are treated as immutable once sealed
//! (the same assumption the read path makes between its size check and
//! its reads); truncating a mapped shard externally is outside the
//! contract.
#![allow(unsafe_code)]

use std::fs::File;
use std::path::{Path, PathBuf};

use crate::shard::ShardReader;
use crate::{EdaError, ShardError};

/// Hand-declared POSIX bindings (the workspace builds without external
/// crates, so there is no `libc` to lean on).
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    /// `PROT_READ`: pages may be read.
    pub const PROT_READ: c_int = 1;
    /// `MAP_PRIVATE`: a private copy-on-write view (we never write).
    pub const MAP_PRIVATE: c_int = 2;
    /// The error return of `mmap`.
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

/// An owned read-only file mapping; unmapped on drop.
#[derive(Debug)]
pub(crate) struct Mapping {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is read-only (PROT_READ) for its whole lifetime,
// so shared references to its bytes from any thread are sound; the
// pointer is not tied to any thread-local state.
unsafe impl Send for Mapping {}
// SAFETY: as above — concurrent reads of immutable mapped pages race
// with nothing.
unsafe impl Sync for Mapping {}

impl Mapping {
    /// Maps the whole of `file` read-only; an empty file has no pages to
    /// map and is refused.
    #[cfg(unix)]
    pub(crate) fn map(file: &File, path: &Path) -> Result<Mapping, ShardError> {
        use std::os::unix::io::AsRawFd;
        let io = |message: String| ShardError::Io {
            path: path.display().to_string(),
            message,
        };
        let len = file.metadata().map_err(|e| io(e.to_string()))?.len();
        let len = usize::try_from(len)
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| io(format!("cannot map a file of {len} bytes")))?;
        // SAFETY: `file` is an open descriptor for the whole call (the
        // borrow pins it), `len` is the file's real non-zero length,
        // and PROT_READ/MAP_PRIVATE request a read-only private view —
        // the call cannot alias Rust-managed memory; a failure returns
        // MAP_FAILED, which is checked before the pointer is kept.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr == sys::MAP_FAILED {
            return Err(io(format!("mmap of {len} bytes failed")));
        }
        Ok(Mapping {
            ptr: ptr as *const u8,
            len,
        })
    }

    #[cfg(not(unix))]
    pub(crate) fn map(_file: &File, path: &Path) -> Result<Mapping, ShardError> {
        Err(ShardError::Io {
            path: path.display().to_string(),
            message: "memory-mapped shard reads are not supported on this platform; \
                      use the read-based backend"
                .into(),
        })
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        // SAFETY: `ptr` came from a successful mmap of exactly `len`
        // bytes (see `map`), stays mapped until Drop, and the pages are
        // never written through this mapping — so a shared byte slice
        // of length `len` is valid for the lifetime of `self`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mapping {
    fn drop(&mut self) {
        #[cfg(unix)]
        // SAFETY: `ptr`/`len` are exactly the successful mmap's return
        // and length, unmapped exactly once (Drop runs once, the field
        // is never rebound).
        unsafe {
            sys::munmap(self.ptr as *mut _, self.len);
        }
    }
}

/// The memory-mapped entry point: a name, not a second reader.
#[derive(Debug)]
pub enum MmapShardReader {}

impl MmapShardReader {
    /// Opens and validates a shard file, raw or compressed, and serves
    /// it from a memory map: [`ShardReader::open`] validating through
    /// the map, then [`ShardReader::mapped`].
    ///
    /// # Errors
    ///
    /// Every [`ShardReader::open`] error, identically, and
    /// [`ShardError::Io`] if the platform cannot map files.
    pub fn open(path: impl Into<PathBuf>) -> Result<ShardReader, EdaError> {
        ShardReader::open_on(path.into(), true)?.mapped()
    }
}
