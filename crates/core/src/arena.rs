//! Flat, possibly memory-mapped storage arenas for [`FeatureStore`].
//!
//! The §5.2.3 cost breakdown says the precomputed feature footprint — not the
//! MLP — dominates serving memory, so the store keeps every table as one flat
//! little-endian arena and never copies it on the way to a request:
//!
//! - [`EncArena`] holds encoded distributions as `f32`, [`RawArena`] holds
//!   raw window series as `f64`, each bitwise as computed — stores are
//!   lossless, so a loaded store answers exactly like the one precomputed.
//! - Arenas read through [`EncArena::write_entry`] / [`RawArena::series`]
//!   with **no heap allocation** on little-endian targets: one `memcpy` per
//!   encoded block and a borrowed slice per raw series, with a byte-decoding
//!   fallback for unaligned or big-endian payloads.
//! - Payloads live in a [`Buf`]: either owned 8-byte-aligned memory or a view
//!   into a shared [`MappedStore`] region, which is how `StoreArtifact::map`
//!   loads artifacts zero-copy — the arenas point straight into the mapping,
//!   and dropping the last store evicted from the serving cache unmaps it.
//!
//! [`FeatureStore`]: crate::features::FeatureStore

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Backing memory: owned aligned bytes or a shared mapped region.
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod mmap_sys {
    //! Minimal `mmap(2)`/`mincore(2)` FFI against the libc the Rust runtime
    //! already links — no external crate. Read-only private mappings.
    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;
    /// `_SC_PAGESIZE` (Linux value; Darwin uses 29).
    #[cfg(not(target_os = "macos"))]
    pub const SC_PAGESIZE: i32 = 30;
    #[cfg(target_os = "macos")]
    pub const SC_PAGESIZE: i32 = 29;

    extern "C" {
        pub fn mmap(
            addr: *mut core::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut core::ffi::c_void;
        pub fn munmap(addr: *mut core::ffi::c_void, len: usize) -> i32;
        pub fn mincore(addr: *mut core::ffi::c_void, len: usize, vec: *mut u8) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }

    /// The system page size (4096 if `sysconf` declines to answer).
    pub fn page_size() -> usize {
        // SAFETY: sysconf is async-signal-safe and takes no pointers.
        let p = unsafe { sysconf(SC_PAGESIZE) };
        if p > 0 {
            p as usize
        } else {
            4096
        }
    }
}

static LIVE_MMAPS: AtomicUsize = AtomicUsize::new(0);

enum Backing {
    /// 8-byte-aligned owned memory (`Vec<u64>` words reinterpreted as bytes).
    Owned(#[allow(dead_code)] Vec<u64>),
    /// A live `mmap(2)` of an artifact file.
    #[cfg(unix)]
    Mmap,
}

/// A shared, immutable byte region backing one loaded store: either an
/// `mmap`'d artifact file (zero-copy, page-fault-driven residency) or an
/// owned aligned buffer (the portability / test fallback). Arena [`Buf`]
/// views hold an `Arc` to the region, so the mapping lives exactly as long
/// as some store (or cache entry) still references it and is released by
/// `munmap` when the last reference drops — eviction unmaps.
pub struct MappedStore {
    ptr: *const u8,
    len: usize,
    backing: Backing,
}

// SAFETY: the region is immutable after construction (PROT_READ mapping or a
// never-mutated owned buffer), so shared references across threads are safe.
unsafe impl Send for MappedStore {}
unsafe impl Sync for MappedStore {}

impl MappedStore {
    /// Copies `bytes` (once) into an owned 8-byte-aligned region.
    pub fn from_bytes(bytes: &[u8]) -> Arc<MappedStore> {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        // Vec<u64> storage is 8-aligned; fill it byte-wise.
        let dst =
            unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), bytes.len()) };
        dst.copy_from_slice(bytes);
        let ptr = words.as_ptr().cast::<u8>();
        Arc::new(MappedStore {
            ptr,
            len: bytes.len(),
            backing: Backing::Owned(words),
        })
    }

    /// Maps `path` read-only. On unix this is a true `mmap` (no arena bytes
    /// are copied through the heap); elsewhere it falls back to reading the
    /// file into an owned aligned region.
    pub fn open(path: &std::path::Path) -> std::io::Result<Arc<MappedStore>> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len() as usize;
            if len == 0 {
                return Ok(Self::from_bytes(&[]));
            }
            let ptr = unsafe {
                mmap_sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    mmap_sys::PROT_READ,
                    mmap_sys::MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            LIVE_MMAPS.fetch_add(1, Ordering::SeqCst);
            Ok(Arc::new(MappedStore {
                ptr: ptr.cast::<u8>().cast_const(),
                len,
                backing: Backing::Mmap,
            }))
        }
        #[cfg(not(unix))]
        {
            Ok(Self::from_bytes(&std::fs::read(path)?))
        }
    }

    /// The whole region.
    pub fn bytes(&self) -> &[u8] {
        if self.len == 0 {
            return &[];
        }
        // SAFETY: ptr/len describe either the live mapping or the owned
        // buffer, both valid for the region's lifetime.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Whether this region is a live `mmap` (false for the owned fallback).
    pub fn is_mmap(&self) -> bool {
        match self.backing {
            Backing::Owned(_) => false,
            #[cfg(unix)]
            Backing::Mmap => true,
        }
    }

    /// Number of live `mmap`-backed regions in the process — lets tests (and
    /// operators) assert that evicting mapped stores actually releases their
    /// mappings.
    pub fn live_mmap_count() -> usize {
        LIVE_MMAPS.load(Ordering::SeqCst)
    }

    /// Estimated bytes of this region actually resident in memory.
    ///
    /// Owned regions are fully resident by construction. For live mappings
    /// this asks `mincore(2)` which pages are in core and charges whole
    /// pages, so a freshly mapped artifact whose arenas have never been
    /// touched (or whose file pages were dropped from the page cache) costs
    /// far less than its virtual payload. Falls back to the full length if
    /// the probe fails — over-charging is the safe direction for a cache
    /// admission estimate.
    pub fn resident_bytes(&self) -> usize {
        match self.backing {
            Backing::Owned(_) => self.len,
            #[cfg(unix)]
            Backing::Mmap => {
                if self.len == 0 {
                    return 0;
                }
                let page = mmap_sys::page_size();
                let mut vec = vec![0u8; self.len.div_ceil(page)];
                // SAFETY: ptr/len describe the live page-aligned mapping and
                // vec holds one byte per page of it.
                let rc = unsafe {
                    mmap_sys::mincore(self.ptr.cast_mut().cast(), self.len, vec.as_mut_ptr())
                };
                if rc != 0 {
                    return self.len;
                }
                let resident = vec.iter().filter(|&&b| b & 1 != 0).count();
                (resident * page).min(self.len)
            }
        }
    }
}

impl Drop for MappedStore {
    fn drop(&mut self) {
        #[cfg(unix)]
        if matches!(self.backing, Backing::Mmap) {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once, here.
            unsafe {
                mmap_sys::munmap(self.ptr.cast_mut().cast(), self.len);
            }
            LIVE_MMAPS.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for MappedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedStore")
            .field("len", &self.len)
            .field("mmap", &self.is_mmap())
            .finish()
    }
}

/// Payload storage for one arena: owned aligned bytes or a view into a
/// shared [`MappedStore`].
#[derive(Clone)]
pub(crate) enum Buf {
    Owned(Arc<MappedStore>),
    View {
        region: Arc<MappedStore>,
        off: usize,
        len: usize,
    },
}

impl Buf {
    /// Copies `bytes` once into an owned aligned region.
    pub(crate) fn from_slice(bytes: &[u8]) -> Buf {
        Buf::Owned(MappedStore::from_bytes(bytes))
    }

    pub(crate) fn view(region: &Arc<MappedStore>, off: usize, len: usize) -> Buf {
        Buf::View {
            region: Arc::clone(region),
            off,
            len,
        }
    }

    pub(crate) fn bytes(&self) -> &[u8] {
        match self {
            Buf::Owned(region) => region.bytes(),
            Buf::View { region, off, len } => &region.bytes()[*off..off + len],
        }
    }

    /// Whether the payload lives in a live `mmap`.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            Buf::Owned(region) => region.is_mmap(),
            Buf::View { region, .. } => region.is_mmap(),
        }
    }

    /// The backing region (the whole artifact for mapped views).
    pub(crate) fn region(&self) -> &Arc<MappedStore> {
        match self {
            Buf::Owned(region) => region,
            Buf::View { region, .. } => region,
        }
    }
}

impl std::fmt::Debug for Buf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Buf[{} bytes]", self.bytes().len())
    }
}

#[inline]
fn f32_at(bytes: &[u8], i: usize) -> f32 {
    f32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().expect("4-byte chunk"))
}

#[inline]
fn f64_at(bytes: &[u8], i: usize) -> f64 {
    f64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8-byte chunk"))
}

/// The "inconsistent payload length" error shared by both arena kinds.
fn length_error(what: &str) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("{what} payload length is inconsistent with its header"),
    )
}

/// Owned little-endian bytes of `values` (the arena payload layout).
fn le_bytes<const N: usize, T: Copy>(values: &[T], to_le: impl Fn(T) -> [u8; N]) -> Buf {
    let mut data = Vec::with_capacity(values.len() * N);
    for &x in values {
        data.extend_from_slice(&to_le(x));
    }
    Buf::from_slice(&data)
}

/// Checks that `len` values make whole `stride`-element blocks and returns
/// the block count.
fn entries_of(len: usize, stride: usize) -> usize {
    assert!(stride > 0, "arena stride must be positive");
    assert!(
        len.is_multiple_of(stride),
        "arena length {len} is not a multiple of its stride {stride}"
    );
    len / stride
}

// ---------------------------------------------------------------------------
// Encoded arenas (`f32` blocks).
// ---------------------------------------------------------------------------

/// One encoded-feature arena: `entries` blocks of `stride` `f32` elements,
/// stored bitwise as little-endian `f32`.
#[derive(Debug, Clone)]
pub struct EncArena {
    stride: usize,
    entries: usize,
    data: Buf,
}

impl EncArena {
    /// Builds an arena from `f32` values (`values.len()` must be a multiple
    /// of `stride`); every bit is preserved.
    pub fn from_f32(values: &[f32], stride: usize) -> EncArena {
        EncArena {
            stride,
            entries: entries_of(values.len(), stride),
            data: le_bytes(values, f32::to_le_bytes),
        }
    }

    pub(crate) fn from_views(
        stride: usize,
        entries: usize,
        data: Buf,
    ) -> std::io::Result<EncArena> {
        let want = entries.checked_mul(stride).and_then(|n| n.checked_mul(4));
        if stride == 0 || want != Some(data.bytes().len()) {
            return Err(length_error("arena"));
        }
        Ok(EncArena {
            stride,
            entries,
            data,
        })
    }

    /// Elements per block.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of blocks.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Copies block `idx` into `out` (`out.len() == stride`) with no heap
    /// allocation — the feature-assembly hot path.
    #[inline]
    pub fn write_entry(&self, idx: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.stride, "entry buffer must match the stride");
        assert!(idx < self.entries, "arena entry out of range");
        let bytes = &self.data.bytes()[idx * self.stride * 4..(idx + 1) * self.stride * 4];
        #[cfg(target_endian = "little")]
        if (bytes.as_ptr() as usize).is_multiple_of(4) {
            // SAFETY: length is stride × 4, the pointer is 4-aligned
            // (payloads are 8-aligned in both the owned region and the
            // padded artifact layout; the entry offset is a multiple of 4),
            // every bit pattern is a valid f32, and the store is
            // little-endian like the target — so the hot path stays one
            // memcpy per block.
            let s =
                unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<f32>(), self.stride) };
            out.copy_from_slice(s);
            return;
        }
        for (j, o) in out.iter_mut().enumerate() {
            *o = f32_at(bytes, j);
        }
    }

    /// In-memory payload footprint (bytes).
    pub fn payload_bytes(&self) -> usize {
        self.data.bytes().len()
    }

    pub(crate) fn is_mapped(&self) -> bool {
        self.data.is_mapped()
    }

    pub(crate) fn data(&self) -> &Buf {
        &self.data
    }
}

// ---------------------------------------------------------------------------
// Raw window-series arenas (`f64` series).
// ---------------------------------------------------------------------------

/// One raw-series arena: `entries` per-window series of `stride` `f64`
/// values, stored bitwise as little-endian `f64`.
#[derive(Debug, Clone)]
pub struct RawArena {
    stride: usize,
    entries: usize,
    data: Buf,
}

impl RawArena {
    /// Builds an arena from `f64` series; every bit is preserved.
    pub fn from_f64(values: &[f64], stride: usize) -> RawArena {
        RawArena {
            stride,
            entries: entries_of(values.len(), stride),
            data: le_bytes(values, f64::to_le_bytes),
        }
    }

    pub(crate) fn from_views(
        stride: usize,
        entries: usize,
        data: Buf,
    ) -> std::io::Result<RawArena> {
        let want = entries.checked_mul(stride).and_then(|n| n.checked_mul(8));
        if stride == 0 || want != Some(data.bytes().len()) {
            return Err(length_error("raw arena"));
        }
        Ok(RawArena {
            stride,
            entries,
            data,
        })
    }

    /// Elements per series.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of series.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Series `idx` as `f64` values. On little-endian targets this borrows
    /// straight from the payload (zero-copy even when mapped); otherwise it
    /// decodes into an owned buffer.
    pub fn series(&self, idx: usize) -> std::borrow::Cow<'_, [f64]> {
        assert!(idx < self.entries, "raw series out of range");
        let bytes = &self.data.bytes()[idx * self.stride * 8..(idx + 1) * self.stride * 8];
        #[cfg(target_endian = "little")]
        {
            let aligned = (bytes.as_ptr() as usize).is_multiple_of(8);
            debug_assert!(aligned, "arena payload aligned");
            if aligned {
                // SAFETY: length is a multiple of 8, the pointer is 8-aligned
                // (arena payloads are 8-aligned in both the owned region and
                // the padded artifact layout), every bit pattern is a valid
                // f64, and the store is little-endian like the target.
                let s = unsafe {
                    std::slice::from_raw_parts(bytes.as_ptr().cast::<f64>(), self.stride)
                };
                return std::borrow::Cow::Borrowed(s);
            }
        }
        std::borrow::Cow::Owned((0..self.stride).map(|j| f64_at(bytes, j)).collect())
    }

    /// In-memory payload footprint (bytes).
    pub fn payload_bytes(&self) -> usize {
        self.data.bytes().len()
    }

    pub(crate) fn data(&self) -> &Buf {
        &self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_arena_is_bitwise_lossless() {
        let vals: Vec<f32> = (0..24).map(|i| (i as f32).sin() * 1e3).collect();
        let a = EncArena::from_f32(&vals, 8);
        assert_eq!(a.entries(), 3);
        let mut back = [0f32; 24];
        for (idx, block) in back.chunks_exact_mut(8).enumerate() {
            a.write_entry(idx, block);
        }
        assert_eq!(
            vals.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.payload_bytes(), 24 * 4);
    }

    #[test]
    fn raw_arena_series_roundtrip() {
        let vals: Vec<f64> = (0..40).map(|i| f64::from(i) * 0.61 + 2.0).collect();
        let a = RawArena::from_f64(&vals, 10);
        assert_eq!(&*a.series(1), &vals[10..20]);
        assert!(matches!(a.series(3), std::borrow::Cow::Borrowed(_)));
        assert_eq!(a.payload_bytes(), 40 * 8);
    }

    #[test]
    fn views_reject_payloads_that_disagree_with_their_header() {
        let data = Buf::from_slice(&[0u8; 32]);
        assert!(EncArena::from_views(2, 4, data.clone()).is_ok());
        assert!(EncArena::from_views(2, 3, data.clone()).is_err());
        assert!(EncArena::from_views(0, 0, data.clone()).is_err());
        assert!(EncArena::from_views(usize::MAX, 2, data.clone()).is_err());
        assert!(RawArena::from_views(2, 2, data.clone()).is_ok());
        assert!(RawArena::from_views(4, 2, data).is_err());
    }

    #[test]
    fn owned_region_is_aligned_and_not_mmap() {
        let region = MappedStore::from_bytes(&(0u8..64).collect::<Vec<u8>>());
        assert_eq!(region.bytes().len(), 64);
        assert_eq!(region.bytes().as_ptr() as usize % 8, 0);
        assert!(!region.is_mmap());
    }

    #[cfg(unix)]
    #[test]
    fn mmap_open_reads_the_file_and_unmaps_on_drop() {
        let path =
            std::env::temp_dir().join(format!("concorde_mmap_unit_{}.bin", std::process::id()));
        let payload: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &payload).unwrap();
        let before = MappedStore::live_mmap_count();
        let region = MappedStore::open(&path).unwrap();
        assert!(region.is_mmap());
        assert_eq!(region.bytes(), &payload[..]);
        assert_eq!(MappedStore::live_mmap_count(), before + 1);
        drop(region);
        assert_eq!(MappedStore::live_mmap_count(), before);
        std::fs::remove_file(&path).ok();
    }
}
