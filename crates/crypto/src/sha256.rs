//! SHA-256 (FIPS 180-4), streaming and one-shot, plus the batched WOTS
//! chain kernel that key generation, signing and verification run on.
//!
//! The compression function is chosen at run time. On x86-64 CPUs with
//! the SHA extensions (plus SSSE3 and SSE4.1) it runs on
//! `sha256rnds2`/`sha256msg1`/`sha256msg2`; everywhere else it runs the
//! portable scalar rounds. Both kernels produce the same digests, which
//! the tests below check block by block.
//!
//! A WOTS chain step hashes one 36-byte block, `0x02 ‖ chain index ‖
//! step ‖ previous value`, so every step depends on the one before. On
//! x86-64 CPUs with AVX-512F the crate-private `try_wots_chains` runs 16
//! chains in lockstep instead, one per 32-bit lane, and keeps each chain
//! value in registers for all its steps: the previous digest is exactly
//! message words 1..=8 and the padding words are constants, so no bytes
//! are converted between steps. Each lane has its own chain index, first
//! step and step count, and can keep its value after a given number of
//! steps on the way; a lane whose count is done is written back while the
//! others run on. A lane can also start from a key seed, hashing the
//! key's secret for its chain (`0x03 ‖ seed ‖ chain index`) in the same
//! lanes first. Key generation runs every lane from 0 for 15 steps,
//! signing the same while capturing each lane at its digit, and
//! verification each lane from its digit to 15. On other CPUs it
//! declines, and [`crate::ots`] runs the chains one after another through
//! its one-chain function, which the tests check the lanes against.

use crate::ots::ChainJob;

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

/// Streaming SHA-256 hasher.
///
/// # Example
///
/// ```
/// use autosec_crypto::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), Sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffered: usize,
    length_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buffer: [0u8; 64],
            buffered: 0,
            length_bytes: 0,
        }
    }

    /// One-shot convenience: digest of `data`.
    pub fn digest(data: &[u8]) -> Digest {
        Self::digest_parts(&[data])
    }

    /// One-shot digest of the concatenation of several parts, without
    /// allocating a joined buffer.
    ///
    /// Inputs shorter than 56 bytes (every WOTS chain step, leaf seed
    /// and Merkle node hash) are padded into a single block on the stack
    /// and compressed once.
    pub fn digest_parts(parts: &[&[u8]]) -> Digest {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        if total >= 56 {
            let mut h = Self::new();
            for p in parts {
                h.update(p);
            }
            return h.finalize();
        }
        let mut block = [0u8; 64];
        let mut at = 0;
        for p in parts {
            block[at..at + p.len()].copy_from_slice(p);
            at += p.len();
        }
        block[at] = 0x80;
        block[56..].copy_from_slice(&(total as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress(&mut state, &[block]);
        to_digest(&state)
    }

    /// Absorbs more input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length_bytes = self
            .length_bytes
            .checked_add(data.len() as u64)
            .expect("SHA-256 input exceeds 2^64 bytes");
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            data = &data[take..];
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffered = 0;
        }
        let (blocks, rest) = data.as_chunks::<64>();
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Finishes and returns the digest, consuming the hasher state.
    pub fn finalize(mut self) -> Digest {
        // Padding, in place: 0x80, zeros, 64-bit big-endian bit length.
        // `update` never leaves a full buffer, so the 0x80 always fits.
        let n = self.buffered;
        self.buffer[n] = 0x80;
        self.buffer[n + 1..].fill(0);
        if n >= 56 {
            compress(&mut self.state, std::slice::from_ref(&self.buffer));
            self.buffer = [0u8; 64];
        }
        self.buffer[56..].copy_from_slice(&self.length_bytes.wrapping_mul(8).to_be_bytes());
        compress(&mut self.state, std::slice::from_ref(&self.buffer));
        to_digest(&self.state)
    }
}

fn to_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, w) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// Compresses `blocks` into `state` with the fastest kernel this CPU has.
fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    #[cfg(target_arch = "x86_64")]
    if x86::try_compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// Runs every job of `jobs` in lockstep and returns `true` if this CPU
/// has a lockstep kernel; otherwise leaves `jobs` untouched and returns
/// `false`. A step is `H(0x02 ‖ idx ‖ step ‖ value)` with a big-endian
/// 16-bit index and a one-byte step, the chain function of
/// [`crate::ots`]; [`ChainJob`] says which steps each job runs.
pub(crate) fn try_wots_chains(jobs: &mut [ChainJob]) -> bool {
    #[cfg(target_arch = "x86_64")]
    return x86::try_wots_chains(jobs);
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = jobs;
        false
    }
}

/// The scalar FIPS 180-4 compression, one block after another.
fn compress_portable(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
    for block in blocks {
        let mut w = [0u32; 64];
        for (wi, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// Compression on the x86-64 SHA extensions and the 16-lane AVX-512
/// chain kernel. Every `unsafe` block of this crate's SHA-256 lives in
/// this module.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m128i, __m512i, __mmask16, _mm512_add_epi32, _mm512_and_si512, _mm512_loadu_si512,
        _mm512_mask_mov_epi32, _mm512_mask_storeu_epi32, _mm512_or_si512, _mm512_ror_epi32,
        _mm512_set1_epi32, _mm512_setzero_si512, _mm512_slli_epi32, _mm512_srli_epi32,
        _mm512_ternarylogic_epi32, _mm_add_epi32, _mm_alignr_epi8, _mm_blend_epi16,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_sha256msg1_epu32, _mm_sha256msg2_epu32,
        _mm_sha256rnds2_epu32, _mm_shuffle_epi32, _mm_shuffle_epi8, _mm_storeu_si128,
    };
    use std::sync::OnceLock;

    use super::{ChainJob, H0, K};

    /// Byte length of a WOTS chain step block before padding.
    const CHAIN_BLOCK_LEN: u32 = 36;
    /// Byte length of a WOTS secret's block before padding.
    const SECRET_BLOCK_LEN: u32 = 35;

    /// Compresses `blocks` into `state` and returns `true` if this CPU
    /// has the SHA extensions, SSSE3 and SSE4.1; otherwise leaves
    /// `state` untouched and returns `false`. Detection runs once per
    /// process.
    pub(super) fn try_compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) -> bool {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        let detected = *DETECTED.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        });
        if detected {
            // SAFETY: `compress` is compiled for sha, ssse3 and sse4.1,
            // and `is_x86_feature_detected!` has just confirmed all three
            // on this CPU.
            unsafe { compress(state, blocks) };
        }
        detected
    }

    /// The state lives in two registers as ABEF and CDGH, the operand
    /// layout `sha256rnds2` expects; each block runs 16 four-round groups.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn compress(state: &mut [u32; 8], blocks: &[[u8; 64]]) {
        // Byte-swaps each 32-bit lane: message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        let st = state.as_mut_ptr().cast::<__m128i>();
        // SAFETY: `state` is 32 bytes, so both unaligned 16-byte loads
        // stay inside it. The SSE intrinsics themselves rely on the
        // detection in `try_compress`, the only caller.
        let (dcba, hgfe) = unsafe { (_mm_loadu_si128(st), _mm_loadu_si128(st.add(1))) };
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in blocks {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            // SAFETY: `block` is 64 bytes, so the four unaligned 16-byte
            // loads stay inside it; the intrinsics rely on the detection
            // in `try_compress`, the only caller.
            let [mut w0, mut w1, mut w2, mut w3] =
                unsafe { [0, 1, 2, 3].map(|i| _mm_loadu_si128(p.add(i))) };
            w0 = _mm_shuffle_epi8(w0, bswap);
            w1 = _mm_shuffle_epi8(w1, bswap);
            w2 = _mm_shuffle_epi8(w2, bswap);
            w3 = _mm_shuffle_epi8(w3, bswap);
            rounds4(&mut abef, &mut cdgh, w0, 0);
            rounds4(&mut abef, &mut cdgh, w1, 1);
            rounds4(&mut abef, &mut cdgh, w2, 2);
            rounds4(&mut abef, &mut cdgh, w3, 3);
            // Words 16..64, four at a time, rotating through w0..w3.
            for g in [4, 8, 12] {
                w0 = schedule(w0, w1, w2, w3);
                rounds4(&mut abef, &mut cdgh, w0, g);
                w1 = schedule(w1, w2, w3, w0);
                rounds4(&mut abef, &mut cdgh, w1, g + 1);
                w2 = schedule(w2, w3, w0, w1);
                rounds4(&mut abef, &mut cdgh, w2, g + 2);
                w3 = schedule(w3, w0, w1, w2);
                rounds4(&mut abef, &mut cdgh, w3, g + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgef = _mm_alignr_epi8(dchg, feba, 8);
        // SAFETY: as for the loads above, both stores stay inside the
        // 32-byte `state`.
        unsafe {
            _mm_storeu_si128(st, dcba);
            _mm_storeu_si128(st.add(1), hgef);
        }
    }

    /// Rounds `4g..4g+4`, with `w` holding message words `4g..4g+4`.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn rounds4(abef: &mut __m128i, cdgh: &mut __m128i, w: __m128i, g: usize) {
        let k = _mm_set_epi32(
            K[4 * g + 3] as i32,
            K[4 * g + 2] as i32,
            K[4 * g + 1] as i32,
            K[4 * g] as i32,
        );
        let wk = _mm_add_epi32(w, k);
        *cdgh = _mm_sha256rnds2_epu32(*cdgh, *abef, wk);
        *abef = _mm_sha256rnds2_epu32(*abef, *cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }

    /// Message words `t..t+4` from words `t-16..t` held in `w0..w3`.
    #[inline]
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    fn schedule(w0: __m128i, w1: __m128i, w2: __m128i, w3: __m128i) -> __m128i {
        let t = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8(w3, w2, 4));
        _mm_sha256msg2_epu32(t, w3)
    }

    /// Runs [`super::try_wots_chains`] 16 jobs at a time and returns
    /// `true` if this CPU has AVX-512F; otherwise leaves `jobs` untouched
    /// and returns `false`. Detection runs once per process. Each group
    /// runs as many steps as its longest job; a last group of fewer than
    /// 16 jobs leaves its spare lanes at zero steps and drops them.
    pub(super) fn try_wots_chains(jobs: &mut [ChainJob]) -> bool {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        if !*DETECTED.get_or_init(|| is_x86_feature_detected!("avx512f")) {
            return false;
        }
        for group in jobs.chunks_mut(16) {
            let mut lanes = Lanes::default();
            for (lane, job) in group.iter().enumerate() {
                debug_assert!(job.capture <= job.steps && job.start <= u8::MAX - job.steps);
                lanes.prefix[lane] = 0x0200_0000 | u32::from(job.chain) << 8 | u32::from(job.start);
                // A WOTS chain has 15 steps, so `steps` indexes `ends`.
                lanes.ends[usize::from(job.steps)] |= 1 << lane;
                lanes.captures[usize::from(job.capture)] |= 1 << lane;
                lanes.seeded |= u16::from(job.seeded) << lane;
                for (row, word) in lanes.value.iter_mut().zip(job.value.chunks_exact(4)) {
                    row[lane] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
                }
            }
            let rounds = group.iter().map(|job| job.steps).max().unwrap_or(0);
            // SAFETY: `chains16` is compiled for avx512f, and
            // `is_x86_feature_detected!` confirmed avx512f on this CPU
            // (cached in `DETECTED`).
            unsafe { chains16(&mut lanes, rounds) };
            for (lane, job) in group.iter_mut().enumerate() {
                job.seeded = false;
                for (rows, out) in [
                    (&lanes.value, &mut job.value),
                    (&lanes.captured, &mut job.captured),
                ] {
                    for (row, word) in rows.iter().zip(out.chunks_exact_mut(4)) {
                        word.copy_from_slice(&row[lane].to_be_bytes());
                    }
                }
            }
        }
        true
    }

    /// Sixteen jobs of [`ChainJob`], one per 32-bit lane, a row per word.
    #[derive(Default)]
    struct Lanes {
        /// Message word 0 of each lane's first step: `0x02`, the chain
        /// index and the first step byte.
        prefix: [u32; 16],
        /// The chain values as big-endian words: the start values in,
        /// the values after each lane's own count of steps out.
        value: [[u32; 16]; 8],
        /// Out: the values after each lane's `capture` steps.
        captured: [[u32; 16]; 8],
        /// Bit `lane` of entry `k`: that lane runs `k` steps.
        ends: [u16; 16],
        /// Bit `lane` of entry `k`: that lane captures after `k` steps.
        captures: [u16; 16],
        /// Bit `lane`: that lane's value is a key seed.
        seeded: u16,
    }

    /// Repeats `$body` with `$j` bound to each of 0..16 in turn, written
    /// out so that message words index a register, not memory.
    macro_rules! unroll16 {
        (|$j:ident| $body:expr) => {
            unroll16!(@ $j $body; 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
        };
        (@ $j:ident $body:expr; $($n:literal)*) => {
            $({
                let $j: usize = $n;
                $body
            })*
        };
    }

    /// Runs the 16 jobs of `lanes` for `rounds` steps, the most any of
    /// them takes. A step block holds the previous digest in message
    /// words 1..=8 and fixed padding in words 9..=15, so the chain values
    /// stay in registers from one step to the next. Every lane runs all
    /// `rounds` steps; a lane's value goes back to memory once it has run
    /// its own count (a lane of zero steps keeps its start value there),
    /// and its captured value once it has run `capture` steps. The lane
    /// masks are scalars, so they hold no vector register through the
    /// rounds.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    fn chains16(lanes: &mut Lanes, rounds: u8) {
        // SAFETY: each row is 64 bytes, so every unaligned 64-byte load
        // stays inside `lanes`. The intrinsics rely on the detection in
        // `try_wots_chains`, the only caller.
        let load = |row: &[u32; 16]| unsafe { _mm512_loadu_si512(row.as_ptr().cast()) };
        let prefix = load(&lanes.prefix);
        let mut value = lanes.value.each_ref().map(load);
        if lanes.seeded != 0 {
            value = secrets16(prefix, value, lanes.seeded);
            store_where(&mut lanes.value, lanes.seeded & lanes.ends[0], &value);
        }
        store_where(&mut lanes.captured, lanes.captures[0], &value);
        for step in 0..rounds {
            let mut w = [_mm512_setzero_si512(); 16];
            w[0] = _mm512_add_epi32(prefix, splat(u32::from(step)));
            w[1..9].copy_from_slice(&value);
            w[9] = splat(0x8000_0000);
            w[15] = splat(CHAIN_BLOCK_LEN * 8);
            value = compress16(w);
            let ran = usize::from(step) + 1;
            store_where(&mut lanes.value, lanes.ends[ran], &value);
            store_where(&mut lanes.captured, lanes.captures[ran], &value);
        }
    }

    /// Replaces the value of each lane in `seeded`, a key seed, with that
    /// key's secret for the lane's chain: `H(0x03 ‖ seed ‖ chain index)`,
    /// 35 bytes, so the seed sits one byte into the message words.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn secrets16(prefix: __m512i, seed: [__m512i; 8], seeded: __mmask16) -> [__m512i; 8] {
        let chain = _mm512_and_si512(_mm512_srli_epi32::<8>(prefix), splat(0xFFFF));
        let mut w = [_mm512_setzero_si512(); 16];
        w[0] = _mm512_or_si512(splat(0x0300_0000), _mm512_srli_epi32::<8>(seed[0]));
        for k in 1..8 {
            w[k] = _mm512_or_si512(
                _mm512_slli_epi32::<24>(seed[k - 1]),
                _mm512_srli_epi32::<8>(seed[k]),
            );
        }
        w[8] = _mm512_ternarylogic_epi32::<0xFE>(
            _mm512_slli_epi32::<24>(seed[7]),
            _mm512_slli_epi32::<8>(chain),
            splat(0x80),
        );
        w[15] = splat(SECRET_BLOCK_LEN * 8);
        let secret = compress16(w);
        std::array::from_fn(|j| _mm512_mask_mov_epi32(seed[j], seeded, secret[j]))
    }

    /// One SHA-256 compression from the initial hash value in every lane:
    /// the digest words of the one-block messages whose padded words are
    /// `w`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn compress16(mut w: [__m512i; 16]) -> [__m512i; 8] {
        let h0 = H0.map(|h| splat(h));
        let mut st = h0;
        unroll16!(|j| round16(&mut st, _mm512_add_epi32(w[j], splat(K[j]))));
        for k in K[16..].chunks_exact(16) {
            unroll16!(|j| {
                w[j] = schedule16(&w, j);
                round16(&mut st, _mm512_add_epi32(w[j], splat(k[j])));
            });
        }
        std::array::from_fn(|j| _mm512_add_epi32(st[j], h0[j]))
    }

    /// Stores the lanes of `value` that `mask` selects into `rows`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store_where(rows: &mut [[u32; 16]; 8], mask: __mmask16, value: &[__m512i; 8]) {
        if mask == 0 {
            return;
        }
        for (row, &v) in rows.iter_mut().zip(value) {
            // SAFETY: `row` is 64 bytes, so the masked unaligned 64-byte
            // store stays inside it. The intrinsic relies on the detection
            // in `try_wots_chains`, the only caller of `chains16`.
            unsafe { _mm512_mask_storeu_epi32(row.as_mut_ptr().cast(), mask, v) }
        }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(x: u32) -> __m512i {
        _mm512_set1_epi32(x as i32)
    }

    /// One round on the working variables `s = [a, b, .., h]` of every
    /// lane, with `wk` holding `W[i] + K[i]`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn round16(s: &mut [__m512i; 8], wk: __m512i) {
        let [a, b, c, d, e, f, g, h] = *s;
        // 0x96 is a ^ b ^ c, 0xCA is (e & f) | (!e & g), 0xE8 the majority.
        let sigma1 = _mm512_ternarylogic_epi32::<0x96>(
            _mm512_ror_epi32::<6>(e),
            _mm512_ror_epi32::<11>(e),
            _mm512_ror_epi32::<25>(e),
        );
        let ch = _mm512_ternarylogic_epi32::<0xCA>(e, f, g);
        let t1 = _mm512_add_epi32(_mm512_add_epi32(h, sigma1), _mm512_add_epi32(ch, wk));
        let sigma0 = _mm512_ternarylogic_epi32::<0x96>(
            _mm512_ror_epi32::<2>(a),
            _mm512_ror_epi32::<13>(a),
            _mm512_ror_epi32::<22>(a),
        );
        let maj = _mm512_ternarylogic_epi32::<0xE8>(a, b, c);
        let t2 = _mm512_add_epi32(sigma0, maj);
        *s = [
            _mm512_add_epi32(t1, t2),
            a,
            b,
            c,
            _mm512_add_epi32(d, t1),
            e,
            f,
            g,
        ];
    }

    /// Message word `i >= 16` from the 16 before it, held in `w` at
    /// their indices modulo 16.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn schedule16(w: &[__m512i; 16], i: usize) -> __m512i {
        let (w15, w2) = (w[(i + 1) % 16], w[(i + 14) % 16]);
        let s0 = _mm512_ternarylogic_epi32::<0x96>(
            _mm512_ror_epi32::<7>(w15),
            _mm512_ror_epi32::<18>(w15),
            _mm512_srli_epi32::<3>(w15),
        );
        let s1 = _mm512_ternarylogic_epi32::<0x96>(
            _mm512_ror_epi32::<17>(w2),
            _mm512_ror_epi32::<19>(w2),
            _mm512_srli_epi32::<10>(w2),
        );
        _mm512_add_epi32(
            _mm512_add_epi32(w[i % 16], s0),
            _mm512_add_epi32(w[(i + 9) % 16], s1),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::to_hex;

    const FIPS_VECTORS: [(&[u8], &str); 3] = [
        (
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        ),
        (
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        ),
        (
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        ),
    ];

    /// Hashes `msg` with one kernel, padding it by hand, so each kernel
    /// is checked on its own whichever one `compress` dispatches to.
    fn digest_with(kernel: impl Fn(&mut [u32; 8], &[[u8; 64]]), msg: &[u8]) -> String {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, padded.as_chunks::<64>().0);
        to_hex(&to_digest(&state))
    }

    /// The SHA-extension kernel's output, or `None` on a CPU without
    /// the extensions.
    #[cfg(target_arch = "x86_64")]
    fn hardware(state: &[u32; 8], blocks: &[[u8; 64]]) -> Option<[u32; 8]> {
        let mut out = *state;
        x86::try_compress(&mut out, blocks).then_some(out)
    }

    #[test]
    fn fips_vectors_through_every_kernel() {
        for (msg, want) in FIPS_VECTORS {
            assert_eq!(to_hex(&Sha256::digest(msg)), want);
            assert_eq!(digest_with(compress_portable, msg), want);
            #[cfg(target_arch = "x86_64")]
            if hardware(&H0, &[]).is_some() {
                let hw = |state: &mut [u32; 8], blocks: &[[u8; 64]]| {
                    *state = hardware(state, blocks).expect("SHA extensions detected");
                };
                assert_eq!(digest_with(hw, msg), want);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn hardware_kernel_matches_portable_on_random_blocks_and_states() {
        use rand::rngs::StdRng;
        use rand::{RngCore, SeedableRng};

        if hardware(&H0, &[]).is_none() {
            eprintln!("no SHA extensions on this CPU: only the portable kernel runs");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x5A25_6000);
        let mut blocks = vec![[0u8; 64]; 10_240];
        for block in &mut blocks {
            rng.fill_bytes(block);
        }
        // One block at a time, each from its own random chaining state...
        for block in &blocks {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let mut want = state;
            compress_portable(&mut want, std::slice::from_ref(block));
            assert_eq!(hardware(&state, std::slice::from_ref(block)), Some(want));
        }
        // ...and in runs, where the hardware kernel carries its state in
        // registers from one block to the next.
        for run in blocks.chunks(97) {
            let state: [u32; 8] = std::array::from_fn(|_| rng.next_u32());
            let mut want = state;
            compress_portable(&mut want, run);
            assert_eq!(hardware(&state, run), Some(want));
        }
    }

    #[test]
    fn lockstep_chains_match_the_one_chain_function() {
        use crate::ots::{chain, WOTS_CHAINS};
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};

        let mut rng = StdRng::seed_from_u64(0x3075_c4a1);
        let mut ran = false;
        // Batch sizes 1..=33 cover partial, exact and one-past 16-lane
        // groups; 67 is one whole key, every chain index once, and 134
        // two keys, whose indices wrap inside a group.
        for len in (1..=33).chain([WOTS_CHAINS, 2 * WOTS_CHAINS]) {
            // Sixteen batches with every lane at step 0 and the same count,
            // 0 to 15, as key generation runs them; then sixteen with a
            // random chain index, first step and count per lane. Every
            // lane captures at a random point of its count, and every
            // other lane (at random in the second half) starts from a
            // key seed.
            for round in 0..32u8 {
                let jobs: Vec<ChainJob> = (0..len)
                    .map(|k| {
                        let mut value = [0u8; 32];
                        rng.fill_bytes(&mut value);
                        let (chain, start, steps, seeded) = if round < 16 {
                            ((k % WOTS_CHAINS) as u16, 0, round, k % 2 == 1)
                        } else {
                            let start = rng.gen_range(0..=15);
                            let steps = rng.gen_range(0..=15 - start);
                            (rng.gen_range(0..=u16::MAX), start, steps, rng.gen_bool(0.5))
                        };
                        ChainJob {
                            value,
                            chain,
                            start,
                            steps,
                            capture: rng.gen_range(0..=steps),
                            seeded,
                            captured: [0u8; 32],
                        }
                    })
                    .collect();
                let mut got = jobs.clone();
                if !try_wots_chains(&mut got) {
                    continue;
                }
                ran = true;
                for (k, (job, got)) in jobs.iter().zip(&got).enumerate() {
                    let idx = usize::from(job.chain);
                    let first = if job.seeded {
                        Sha256::digest_parts(&[&[0x03], &job.value, &job.chain.to_be_bytes()])
                    } else {
                        job.value
                    };
                    let want = ChainJob {
                        value: chain(&first, idx, job.start, job.steps),
                        captured: chain(&first, idx, job.start, job.capture),
                        seeded: false,
                        ..*job
                    };
                    assert_eq!(*got, want, "{len} chains, round {round}, lane {k}");
                }
            }
        }
        if !ran {
            eprintln!("no lockstep kernel on this CPU: WOTS runs the one-chain function");
        }
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            to_hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let want = Sha256::digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split at {split}");
        }
    }

    #[test]
    fn digest_parts_equals_concat() {
        assert_eq!(
            Sha256::digest_parts(&[b"ab", b"", b"c"]),
            Sha256::digest(b"abc")
        );
    }

    #[test]
    fn digest_parts_matches_streaming_for_every_length_and_split() {
        // Covers the single-block fast path (< 56 bytes), the padding
        // spill into a second block (56..64) and multi-block inputs.
        let data: Vec<u8> = (0u8..=130).map(|b| b.wrapping_mul(37) ^ 0xa5).collect();
        let cuts = [0, 1, 54, 55, 56, 57, 62, 63, 64, 65, 127, 128];
        for len in 0..=130usize {
            let msg = &data[..len];
            let mut bytewise = Sha256::new();
            for b in msg {
                bytewise.update(std::slice::from_ref(b));
            }
            let want = bytewise.finalize();
            assert_eq!(Sha256::digest(msg), want, "len {len}");
            for &a in cuts.iter().filter(|&&a| a <= len) {
                for &b in cuts.iter().filter(|&&b| a <= b && b <= len) {
                    let parts: [&[u8]; 3] = [&msg[..a], &msg[a..b], &msg[b..]];
                    assert_eq!(Sha256::digest_parts(&parts), want, "len {len} cuts {a},{b}");
                    let mut h = Sha256::new();
                    parts.iter().for_each(|p| h.update(p));
                    assert_eq!(h.finalize(), want, "streamed len {len} cuts {a},{b}");
                }
            }
        }
    }
}
