//! Hostile bytes against the store-artifact loaders.
//!
//! - Flipping any single bit anywhere in a v4 store artifact — header, store
//!   blob, padding, or checksum footer — must surface as a typed `io::Error`
//!   from [`StoreArtifact::from_bytes`]: never a panic, never a silently
//!   wrong store. The FNV-1a footer covers every byte before it, so a blob
//!   flip changes the computed sum and a footer flip changes the stored one;
//!   header flips may instead trip the (bounds-checked) header parser.
//! - Because that checksum catches almost every mutation before the store
//!   parser sees it, a second property feeds [`FeatureStore::from_bytes`]
//!   directly: arbitrary bytes and mutated copies of a real blob (byte
//!   flips, truncations, overwritten length and stride words, the removed
//!   f16/int8 tags). Each case must end in a typed error, or in a store that
//!   assembles features and a min-bound CPI without panicking — and no
//!   single allocation along the way may exceed the input's size.
//! - Blobs and artifacts declaring the removed f16 (1) or int8 (2) arena
//!   encodings fail with the removal error through every loader.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use concorde_suite::core::cache::{FeatureKey, StoreArtifact};
use concorde_suite::core::features::STORE_MAGIC;
use concorde_suite::prelude::*;
use proptest::prelude::*;

/// Tracks the largest single allocation on the current thread, so parallel
/// tests in this binary do not see each other's allocations.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown are simply not tracked.
    let _ = LARGEST.try_with(|c| c.set(c.get().max(size)));
}

unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Tracking = Tracking;

/// Runs `f`, returning its result and the largest single allocation it made.
fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(|c| c.get()))
}

fn profile() -> ReproProfile {
    let mut profile = ReproProfile::quick();
    profile.region_len = 512;
    profile.warmup_len = 512;
    profile
}

fn key(workload: &str) -> FeatureKey {
    FeatureKey {
        workload: workload.into(),
        trace: 0,
        start: 0,
        region_len: profile().region_len as u32,
        sweep_hash: 0,
    }
}

fn store_for(sweep: &SweepConfig) -> FeatureStore {
    let region = generate_region(&by_id("S5").unwrap(), 0, 0, profile().region_len);
    FeatureStore::precompute(&[], &region.instrs, sweep, &profile())
}

/// One small quantized-sweep artifact, serialized once and shared by every
/// bit-flip case (precompute dominates the cost otherwise).
fn pristine_artifact() -> &'static [u8] {
    static CACHE: OnceLock<Vec<u8>> = OnceLock::new();
    CACHE.get_or_init(|| {
        StoreArtifact::new(key("S5"), store_for(&SweepConfig::quantized())).to_bytes()
    })
}

/// A small single-arch store blob, plus the offsets of its structural words
/// (header counts, list lengths, arena strides, entry counts and payload
/// lengths) for targeted overwrites.
fn pristine_blob() -> &'static (Vec<u8>, Vec<usize>) {
    static CACHE: OnceLock<(Vec<u8>, Vec<usize>)> = OnceLock::new();
    CACHE.get_or_init(|| {
        let blob = store_for(&SweepConfig::for_arch(&MicroArch::arm_n1())).to_bytes();
        let words = structural_words(&blob);
        (blob, words)
    })
}

/// Walks the store layout (magic, tag, 8 header words, 11 `u32` lists, one
/// `u64` list, 30 arena records) and returns every length-like word offset.
fn structural_words(blob: &[u8]) -> Vec<usize> {
    let word = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
    // k, levels, n_instr, n_windows.
    let mut words = vec![8, 16, 24, 32];
    let mut at = 72;
    for elem_bytes in [4; 11].into_iter().chain([8]) {
        words.push(at);
        at += 8 + word(at) * elem_bytes;
    }
    for _ in 0..30 {
        // stride, entries, data_len, then the params length after the data.
        words.extend([at, at + 8, at + 16]);
        at = (at + 24).next_multiple_of(8) + word(at + 16);
        words.push(at);
        at = (at + 8).next_multiple_of(8);
    }
    assert_eq!(at, blob.len(), "layout walk must cover the whole blob");
    words
}

/// `bytes` with its FNV-1a footer recomputed over everything before it.
fn with_fresh_checksum(mut bytes: Vec<u8>) -> Vec<u8> {
    let body = bytes.len() - 8;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &bytes[..body] {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    bytes[body..].copy_from_slice(&h.to_le_bytes());
    bytes
}

fn assert_removal_error(result: std::io::Result<impl Sized>, what: &str) {
    let err = result.err().unwrap_or_else(|| panic!("{what} loaded"));
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
    let msg = err.to_string();
    assert!(
        msg.contains("f16/int8 stores were removed") && msg.contains("concorde precompute"),
        "{what}: {msg}"
    );
}

#[test]
fn removed_encoding_tags_get_the_removal_error() {
    let (blob, _) = pristine_blob();
    let artifact = pristine_artifact();
    let store_off = artifact
        .windows(4)
        .position(|w| w == STORE_MAGIC)
        .expect("artifact embeds a store blob");
    for arena_encoding in [1u8, 2] {
        let mut tagged = blob.clone();
        tagged[4] = arena_encoding;
        assert_removal_error(FeatureStore::from_bytes(&tagged), "tagged blob");

        let mut tagged = artifact.to_vec();
        tagged[store_off + 4] = arena_encoding;
        let tagged = with_fresh_checksum(tagged);
        assert_removal_error(StoreArtifact::from_bytes(&tagged), "tagged artifact");
        let path = std::env::temp_dir().join(format!(
            "concorde_tag{arena_encoding}_{}.cfa",
            std::process::id()
        ));
        std::fs::write(&path, &tagged).unwrap();
        assert_removal_error(StoreArtifact::map(&path), "mapped tagged artifact");
        std::fs::remove_file(&path).ok();
    }
    // Any other non-zero tag is an unknown encoding, not a removed one.
    let mut unknown = blob.clone();
    unknown[4] = 3;
    let err = FeatureStore::from_bytes(&unknown).expect_err("tag 3 loaded");
    assert!(err.to_string().contains("unknown arena encoding"), "{err}");
}

/// Parses `bytes` as a store blob and, if it loads, assembles every feature
/// variant and the min-bound CPI for ARM N1. Panics (caught by the caller)
/// or returns the parse verdict and the largest single allocation.
fn exercise(bytes: &[u8]) -> (Result<(), std::io::Error>, usize) {
    let (parsed, mut largest) = largest_allocation(|| FeatureStore::from_bytes(bytes));
    let store = match parsed {
        Ok(store) => store,
        Err(e) => return (Err(e), largest),
    };
    let n1 = MicroArch::arm_n1();
    for v in [
        FeatureVariant::Base,
        FeatureVariant::BaseBranch,
        FeatureVariant::Full,
    ] {
        let mut out = vec![0f32; FeatureSchema::dim_for(store.encoding(), v)];
        let ((), used) = largest_allocation(|| store.features_into(&n1, v, &mut out));
        largest = largest.max(used);
    }
    let (_, used) = largest_allocation(|| store.min_bound_cpi(&n1));
    (Ok(()), largest.max(used))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn any_single_bit_flip_is_rejected_with_a_typed_error(
        pos_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let pristine = pristine_artifact();
        // Sanity: the untouched bytes still load (also proves any failure
        // below comes from the flip, not the fixture).
        prop_assert!(StoreArtifact::from_bytes(pristine).is_ok());

        let mut corrupt = pristine.to_vec();
        let pos = ((pos_frac * corrupt.len() as f64) as usize).min(corrupt.len() - 1);
        corrupt[pos] ^= 1u8 << bit;

        // A flipped bit anywhere must fail typed — from_bytes returning Err
        // here means no panic and no silently-wrong store.
        let result = StoreArtifact::from_bytes(&corrupt);
        prop_assert!(
            result.is_err(),
            "flip at byte {} bit {} loaded as a valid artifact",
            pos, bit
        );
        let err = result.unwrap_err();
        // Past the fixed-size header every flip is caught by the checksum
        // itself, with the actionable message operators see on `--preload`.
        if pos >= 64 {
            let msg = err.to_string();
            prop_assert!(
                msg.contains("checksum mismatch"),
                "blob/footer flip at {pos} gave a non-checksum error: {msg}"
            );
        }
    }
}

/// Interesting replacement values for a structural word.
fn hostile_word(original: u64, blob_len: u64, pick: u64, random: u64) -> u64 {
    match pick % 12 {
        0 => 0,
        1 => 1,
        2 => 2,
        3 => original.wrapping_add(1),
        4 => original.wrapping_sub(1),
        5 => original.wrapping_mul(2),
        6 => u64::from(u32::MAX),
        7 => u64::MAX,
        8 => u64::MAX / 4 + 1,
        9 => blob_len,
        10 => 1 << 40,
        _ => random,
    }
}

/// The allocation bound: the owned copy of the input is the biggest thing a
/// load may allocate (rounded up to its 8-byte words); error messages and
/// small headers get a fixed floor.
fn allocation_bound(input: &[u8]) -> usize {
    input.len().next_multiple_of(8).max(256)
}

#[test]
fn empty_region_store_loads_and_serves() {
    // A store of an empty region has zero windows and empty raw arenas; the
    // min-bound must fall back to its no-window answer instead of indexing
    // a series that does not exist.
    let store = FeatureStore::precompute(
        &[],
        &[],
        &SweepConfig::for_arch(&MicroArch::arm_n1()),
        &profile(),
    );
    assert_eq!(store.n_windows(), 0);
    let bytes = store.to_bytes();
    let (verdict, largest) = exercise(&bytes);
    verdict.expect("an empty-region store loads");
    assert!(largest <= allocation_bound(&bytes));
    assert_eq!(store.min_bound_cpi(&MicroArch::arm_n1()), 1.0);
}

#[test]
fn every_structural_word_overwrite_fails_typed_or_serves() {
    let (pristine, words) = pristine_blob();
    let mut failures = Vec::new();
    for &at in words {
        let original = u64::from_le_bytes(pristine[at..at + 8].try_into().unwrap());
        for how in 0..11 {
            let v = hostile_word(original, pristine.len() as u64, how, 0);
            let mut bytes = pristine.clone();
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
            match catch_unwind(AssertUnwindSafe(|| exercise(&bytes))) {
                Err(_) => failures.push(format!("word @{at} = {v:#x}: panicked")),
                Ok((_, largest)) if largest > allocation_bound(&bytes) => {
                    failures.push(format!("word @{at} = {v:#x}: allocated {largest} bytes"))
                }
                Ok((Err(e), _)) if e.kind() != ErrorKind::InvalidData => {
                    failures.push(format!("word @{at} = {v:#x}: untyped error {e}"))
                }
                Ok(_) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{failures:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 384, ..ProptestConfig::default() })]

    #[test]
    fn hostile_store_blobs_fail_typed_or_serve_without_panicking(
        mode in 0u8..6,
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
        noise in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let (pristine, words) = pristine_blob();
        let mut bytes = pristine.clone();
        let set_word = |bytes: &mut Vec<u8>, pick: u64, how: u64, random: u64| {
            let at = words[(pick % words.len() as u64) as usize];
            let original = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
            let v = hostile_word(original, pristine.len() as u64, how, random);
            bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        };
        let what = match mode {
            // Arbitrary bytes, half of them behind a valid magic + tag so the
            // parser gets past the first check.
            0 => {
                bytes = noise.clone();
                if a.is_multiple_of(2) {
                    let mut head = STORE_MAGIC.to_vec();
                    head.extend_from_slice(&((b % 3) as u32).to_le_bytes());
                    head.extend_from_slice(&noise);
                    bytes = head;
                }
                "arbitrary bytes"
            }
            // A handful of random byte flips.
            1 => {
                for r in [a, b, c].iter().take(1 + (a % 3) as usize) {
                    let pos = (r % bytes.len() as u64) as usize;
                    bytes[pos] ^= 1u8 << ((r >> 32) % 8);
                }
                "byte flips"
            }
            // Truncation anywhere.
            2 => {
                bytes.truncate((a % bytes.len() as u64) as usize);
                "truncation"
            }
            // One structural word overwritten.
            3 => {
                set_word(&mut bytes, a, b, c);
                "one structural word"
            }
            // Two structural words overwritten (e.g. a stride and its
            // payload length moved together).
            4 => {
                set_word(&mut bytes, a, b, c);
                set_word(&mut bytes, c, a >> 8, b);
                "two structural words"
            }
            // The removed f16/int8 tags, on an otherwise valid blob.
            _ => {
                bytes[4] = 1 + (a % 2) as u8;
                "removed tag"
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| exercise(&bytes)));
        prop_assert!(
            outcome.is_ok(),
            "{what} (mode {mode}, a {a:#x}, b {b:#x}, c {c:#x}) panicked"
        );
        let (verdict, largest) = outcome.unwrap();
        let bound = allocation_bound(&bytes);
        prop_assert!(
            largest <= bound,
            "{what} (mode {mode}) allocated {largest} bytes for a {}-byte input",
            bytes.len()
        );
        match verdict {
            Ok(()) => prop_assert!(mode != 5, "a removed tag loaded"),
            Err(e) => {
                prop_assert_eq!(e.kind(), ErrorKind::InvalidData);
                if mode == 5 {
                    prop_assert!(e.to_string().contains("f16/int8 stores were removed"), "{e}");
                }
            }
        }
    }
}
