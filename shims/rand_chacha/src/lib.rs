//! Offline stand-in for `rand_chacha`: a real ChaCha12 keystream RNG.
//!
//! Implements the ChaCha block function (12 rounds) over a 256-bit seed and a
//! 64-bit block counter. Deterministic, `Clone`, and cheap to fork — the
//! properties the Concorde reproduction relies on. The word stream is not
//! guaranteed to be bit-identical to the upstream `rand_chacha` crate (the
//! workspace only requires internal determinism).
//!
//! The keystream is buffered [`BLOCKS`] blocks at a time. On x86-64 hosts
//! with AVX2 (detected at run time) one refill computes all of them at once,
//! one block per 32-bit vector lane; elsewhere the scalar block function
//! fills them one after another. Both arms produce the same words: the
//! scalar block is the reference the AVX2 arm is tested against.

use rand::{RngCore, SeedableRng};

const CHACHA_ROUNDS: usize = 12;

/// Blocks generated per refill.
const BLOCKS: usize = 8;

/// Keystream words buffered per refill.
const BUF_WORDS: usize = 16 * BLOCKS;

/// ChaCha12-based deterministic RNG.
#[derive(Debug, Clone)]
pub struct ChaCha12Rng {
    key: [u32; 8],
    /// Counter of the first block the next refill generates.
    counter: u64,
    buf: [u32; BUF_WORDS],
    idx: usize,
}

#[inline(always)]
fn quarter(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// The "expand 32-byte k" constant words.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

/// One ChaCha12 block for `key` at block `counter`.
fn block(key: &[u32; 8], counter: u64) -> [u32; 16] {
    let mut s: [u32; 16] = [
        SIGMA[0],
        SIGMA[1],
        SIGMA[2],
        SIGMA[3],
        key[0],
        key[1],
        key[2],
        key[3],
        key[4],
        key[5],
        key[6],
        key[7],
        counter as u32,
        (counter >> 32) as u32,
        0,
        0,
    ];
    let init = s;
    for _ in 0..CHACHA_ROUNDS / 2 {
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    for (o, i) in s.iter_mut().zip(init) {
        *o = o.wrapping_add(i);
    }
    s
}

/// Blocks `counter .. counter + BLOCKS` (wrapping), one after another.
fn blocks_scalar(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    for (b, chunk) in out.chunks_exact_mut(16).enumerate() {
        chunk.copy_from_slice(&block(key, counter.wrapping_add(b as u64)));
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{BLOCKS, BUF_WORDS, CHACHA_ROUNDS, SIGMA};
    use std::arch::x86_64::*;

    #[target_feature(enable = "avx2")]
    #[inline]
    fn rotl<const L: i32, const R: i32>(x: __m256i) -> __m256i {
        _mm256_or_si256(_mm256_slli_epi32::<L>(x), _mm256_srli_epi32::<R>(x))
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn quarter(s: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        // Byte shuffles rotate each 32-bit lane left by 16 and by 8.
        let rot16 = _mm256_set_epi8(
            13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2, 13, 12, 15, 14, 9, 8, 11, 10, 5,
            4, 7, 6, 1, 0, 3, 2,
        );
        let rot8 = _mm256_set_epi8(
            14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3, 14, 13, 12, 15, 10, 9, 8, 11, 6,
            5, 4, 7, 2, 1, 0, 3,
        );
        s[a] = _mm256_add_epi32(s[a], s[b]);
        s[d] = _mm256_shuffle_epi8(_mm256_xor_si256(s[d], s[a]), rot16);
        s[c] = _mm256_add_epi32(s[c], s[d]);
        s[b] = rotl::<12, 20>(_mm256_xor_si256(s[b], s[c]));
        s[a] = _mm256_add_epi32(s[a], s[b]);
        s[d] = _mm256_shuffle_epi8(_mm256_xor_si256(s[d], s[a]), rot8);
        s[c] = _mm256_add_epi32(s[c], s[d]);
        s[b] = rotl::<7, 25>(_mm256_xor_si256(s[b], s[c]));
    }

    #[target_feature(enable = "avx2")]
    #[inline]
    fn splat(w: u32) -> __m256i {
        _mm256_set1_epi32(w as i32)
    }

    /// Transposes eight vectors of eight 32-bit words: lane `j` of output
    /// `i` is lane `i` of input `j`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn transpose8(v: [__m256i; 8]) -> [__m256i; 8] {
        let t0 = _mm256_unpacklo_epi32(v[0], v[1]);
        let t1 = _mm256_unpackhi_epi32(v[0], v[1]);
        let t2 = _mm256_unpacklo_epi32(v[2], v[3]);
        let t3 = _mm256_unpackhi_epi32(v[2], v[3]);
        let t4 = _mm256_unpacklo_epi32(v[4], v[5]);
        let t5 = _mm256_unpackhi_epi32(v[4], v[5]);
        let t6 = _mm256_unpacklo_epi32(v[6], v[7]);
        let t7 = _mm256_unpackhi_epi32(v[6], v[7]);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let u4 = _mm256_unpacklo_epi64(t4, t6);
        let u5 = _mm256_unpackhi_epi64(t4, t6);
        let u6 = _mm256_unpacklo_epi64(t5, t7);
        let u7 = _mm256_unpackhi_epi64(t5, t7);
        [
            _mm256_permute2x128_si256::<0x20>(u0, u4),
            _mm256_permute2x128_si256::<0x20>(u1, u5),
            _mm256_permute2x128_si256::<0x20>(u2, u6),
            _mm256_permute2x128_si256::<0x20>(u3, u7),
            _mm256_permute2x128_si256::<0x31>(u0, u4),
            _mm256_permute2x128_si256::<0x31>(u1, u5),
            _mm256_permute2x128_si256::<0x31>(u2, u6),
            _mm256_permute2x128_si256::<0x31>(u3, u7),
        ]
    }

    /// Blocks `counter .. counter + BLOCKS` (wrapping), block `b` in lane `b`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
        let mut lo = [0u32; BLOCKS];
        let mut hi = [0u32; BLOCKS];
        for b in 0..BLOCKS {
            let c = counter.wrapping_add(b as u64);
            lo[b] = c as u32;
            hi[b] = (c >> 32) as u32;
        }
        let init: [__m256i; 16] = [
            splat(SIGMA[0]),
            splat(SIGMA[1]),
            splat(SIGMA[2]),
            splat(SIGMA[3]),
            splat(key[0]),
            splat(key[1]),
            splat(key[2]),
            splat(key[3]),
            splat(key[4]),
            splat(key[5]),
            splat(key[6]),
            splat(key[7]),
            // SAFETY: `lo` and `hi` are 8 u32s = 32 bytes; the unaligned
            // load reads exactly them.
            _mm256_loadu_si256(lo.as_ptr().cast()),
            _mm256_loadu_si256(hi.as_ptr().cast()),
            _mm256_setzero_si256(),
            _mm256_setzero_si256(),
        ];
        let mut s = init;
        for _ in 0..CHACHA_ROUNDS / 2 {
            quarter(&mut s, 0, 4, 8, 12);
            quarter(&mut s, 1, 5, 9, 13);
            quarter(&mut s, 2, 6, 10, 14);
            quarter(&mut s, 3, 7, 11, 15);
            quarter(&mut s, 0, 5, 10, 15);
            quarter(&mut s, 1, 6, 11, 12);
            quarter(&mut s, 2, 7, 8, 13);
            quarter(&mut s, 3, 4, 9, 14);
        }
        for (x, i) in s.iter_mut().zip(init) {
            *x = _mm256_add_epi32(*x, i);
        }
        // Words 0..8 and 8..16 of every block, one block per vector.
        let first = transpose8([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]);
        let second = transpose8([s[8], s[9], s[10], s[11], s[12], s[13], s[14], s[15]]);
        let dst = out.as_mut_ptr();
        for b in 0..BLOCKS {
            // SAFETY: `out` holds BLOCKS * 16 words, so words
            // `16 b .. 16 b + 16` are in bounds for every `b < BLOCKS`; the
            // stores are unaligned.
            _mm256_storeu_si256(dst.add(16 * b).cast(), first[b]);
            _mm256_storeu_si256(dst.add(16 * b + 8).cast(), second[b]);
        }
    }
}

/// Fills `out` with blocks `counter .. counter + BLOCKS`, on the AVX2 arm
/// when the CPU has it.
fn blocks(key: &[u32; 8], counter: u64, out: &mut [u32; BUF_WORDS]) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 support was just detected.
        unsafe { avx2::blocks(key, counter, out) };
        return;
    }
    blocks_scalar(key, counter, out);
}

impl ChaCha12Rng {
    #[cold]
    #[inline(never)]
    fn refill(&mut self) {
        blocks(&self.key, self.counter, &mut self.buf);
        self.idx = 0;
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
    }
}

impl RngCore for ChaCha12Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.idx >= BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.idx];
        self.idx += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        if self.idx + 2 <= BUF_WORDS {
            let (lo, hi) = (self.buf[self.idx], self.buf[self.idx + 1]);
            self.idx += 2;
            return u64::from(lo) | (u64::from(hi) << 32);
        }
        let lo = u64::from(self.next_u32());
        let hi = u64::from(self.next_u32());
        lo | (hi << 32)
    }
}

impl SeedableRng for ChaCha12Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (k, c) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        ChaCha12Rng {
            key,
            counter: 0,
            buf: [0; BUF_WORDS],
            idx: BUF_WORDS,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The keystream word by word from the one-block reference.
    struct Reference {
        key: [u32; 8],
        counter: u64,
        buf: [u32; 16],
        idx: usize,
    }

    impl Reference {
        fn new(rng: &ChaCha12Rng) -> Self {
            Reference {
                key: rng.key,
                counter: 0,
                buf: [0; 16],
                idx: 16,
            }
        }

        fn next_u32(&mut self) -> u32 {
            if self.idx == 16 {
                self.buf = block(&self.key, self.counter);
                self.counter = self.counter.wrapping_add(1);
                self.idx = 0;
            }
            self.idx += 1;
            self.buf[self.idx - 1]
        }

        fn next_u64(&mut self) -> u64 {
            let lo = u64::from(self.next_u32());
            lo | (u64::from(self.next_u32()) << 32)
        }
    }

    fn keys(n: u64) -> impl Iterator<Item = [u32; 8]> {
        (0..n).map(|s| ChaCha12Rng::seed_from_u64(s).key)
    }

    #[test]
    fn scalar_refill_is_consecutive_blocks() {
        let key = ChaCha12Rng::seed_from_u64(3).key;
        let mut out = [0u32; BUF_WORDS];
        blocks_scalar(&key, 41, &mut out);
        for b in 0..BLOCKS {
            assert_eq!(out[16 * b..16 * b + 16], block(&key, 41 + b as u64));
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_refill_equals_scalar_blocks() {
        if !is_x86_feature_detected!("avx2") {
            eprintln!("no AVX2 on this CPU; only the scalar arm runs");
            return;
        }
        // Counters across the low-word carry and the 64-bit wrap, too.
        let counters = [0, 1, 8, 0xFFFF_FFFC, u64::MAX - 3, u64::MAX];
        for (i, key) in keys(1200).enumerate() {
            let counter = counters[i % counters.len()].wrapping_add(i as u64 / 7);
            let (mut want, mut got) = ([0u32; BUF_WORDS], [0u32; BUF_WORDS]);
            blocks_scalar(&key, counter, &mut want);
            // SAFETY: AVX2 support was just detected.
            unsafe { avx2::blocks(&key, counter, &mut got) };
            assert_eq!(got, want, "seed {i} counter {counter:#x}");
        }
    }

    #[test]
    fn mixed_reads_follow_the_block_stream_across_refills() {
        for seed in 0..64u64 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            let mut reference = Reference::new(&rng);
            // An odd word first, so every later u64 straddles a refill.
            let mut pattern = ChaCha12Rng::seed_from_u64(seed ^ 0xABCD);
            for _ in 0..3 * BUF_WORDS {
                if pattern.next_u32() % 3 == 0 {
                    assert_eq!(rng.next_u32(), reference.next_u32());
                } else {
                    assert_eq!(rng.next_u64(), reference.next_u64());
                }
            }
        }
        // A u64 whose two words come from two refills.
        let mut rng = ChaCha12Rng::seed_from_u64(77);
        let mut reference = Reference::new(&rng);
        for _ in 0..BUF_WORDS - 1 {
            assert_eq!(rng.next_u32(), reference.next_u32());
        }
        assert_eq!(rng.next_u64(), reference.next_u64());
        assert_eq!(rng.next_u64(), reference.next_u64());
    }

    #[test]
    fn clone_mid_buffer_continues_the_same_stream() {
        for taken in [
            1usize,
            15,
            16,
            17,
            BUF_WORDS - 1,
            BUF_WORDS,
            3 * BUF_WORDS / 2,
        ] {
            let mut a = ChaCha12Rng::seed_from_u64(taken as u64);
            let mut reference = Reference::new(&a);
            for _ in 0..taken {
                assert_eq!(a.next_u32(), reference.next_u32());
            }
            let mut b = a.clone();
            for _ in 0..2 * BUF_WORDS {
                let want = reference.next_u64();
                assert_eq!(a.next_u64(), want, "original after {taken} words");
                assert_eq!(b.next_u64(), want, "clone after {taken} words");
            }
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let mut a = ChaCha12Rng::seed_from_u64(1);
        let mut b = ChaCha12Rng::seed_from_u64(1);
        let mut c = ChaCha12Rng::seed_from_u64(2);
        let va: Vec<u64> = (0..32).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..32).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..32).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn clone_forks_the_stream() {
        let mut a = ChaCha12Rng::seed_from_u64(9);
        let _ = a.next_u64();
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn roughly_uniform() {
        let mut r = ChaCha12Rng::seed_from_u64(5);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.gen_range(0.0f64..1.0)).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
