//! Struct-of-arrays RNG columns and the Bernoulli sweep over them.
//!
//! A population model that gives each member its own [`SimRng`]
//! substream spends most of its steps on draws that miss. [`RngColumn`]
//! stores `n` such streams as five `u64` columns: the four xoshiro256**
//! state words and each stream's seed, so that [`SimRng`] round-trips
//! through the column exactly. The layout lets the sweep step eight
//! streams at once.
//!
//! ## The sweep
//!
//! [`RngColumnMut::sweep`] walks a window of streams once. Each lane
//! carries a class byte (taken mod [`SweepTable::CLASSES`]), and the
//! [`SweepTable`] lists each class's Bernoulli draws as
//! [`SimRng::chance_threshold`]s. Per lane:
//!
//! - a skipped class draws nothing, and its stream stays as it was;
//! - any other class draws its thresholds in order, each exactly as
//!   [`SimRng::below`] would, and stops at the first hit:
//!   - when every draw misses (an empty list included), the lane is
//!     *calm*: its advanced stream is committed and it is counted;
//!   - when a draw hits, the lane's index goes to the caller's hit
//!     list, in lane order. Its stream is committed through the hitting
//!     draw if the class commits hits; otherwise it is left untouched,
//!     so that the caller can replay the lane's step from the start.
//!
//! On x86-64 CPUs with AVX-512F a kernel sweeps eight lanes at a time,
//! one per 64-bit vector lane; detection runs once per process. The
//! window's last `len % 8` lanes, and the whole window on other CPUs,
//! run the portable path, one lane at a time under the same contract.
//! Every `unsafe` block of this crate lives in this module.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::RngCore as _;

use crate::SimRng;

/// `n` independent [`SimRng`] streams, one column per state word.
///
/// # Example
///
/// ```
/// use autosec_sim::{RngColumn, SimRng};
/// use rand::RngCore;
///
/// let base = SimRng::seed(42).fork("members");
/// let mut col = RngColumn::forks(&base, 3);
/// let mut view = col.view_mut();
/// let mut rng = view.get(2);
/// assert_eq!(rng.next_u64(), base.fork_idx(2).next_u64());
/// view.set(2, &rng);
/// assert_eq!(col.get(2).next_u64(), rng.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RngColumn {
    /// The xoshiro256** state words, `s[k][i]` being word `k` of
    /// stream `i`.
    s: [Vec<u64>; 4],
    /// Each stream's [`SimRng::master_seed`].
    seed: Vec<u64>,
}

impl RngColumn {
    /// Streams `base.fork_idx(i)` for `i` in `0..n`, each forked once.
    pub fn forks(base: &SimRng, n: usize) -> Self {
        let mut col = RngColumn {
            s: std::array::from_fn(|_| Vec::with_capacity(n)),
            seed: Vec::with_capacity(n),
        };
        for i in 0..n {
            let (state, seed) = base.fork_idx(i as u64).to_parts();
            for (word, w) in col.s.iter_mut().zip(state) {
                word.push(w);
            }
            col.seed.push(seed);
        }
        col
    }

    /// Streams in the column.
    pub fn len(&self) -> usize {
        self.seed.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.seed.is_empty()
    }

    /// A copy of stream `i`.
    pub fn get(&self, i: usize) -> SimRng {
        SimRng::from_parts(self.s.each_ref().map(|word| word[i]), self.seed[i])
    }

    /// A mutable window over the whole column.
    pub fn view_mut(&mut self) -> RngColumnMut<'_> {
        let [s0, s1, s2, s3] = &mut self.s;
        RngColumnMut {
            s: [s0, s1, s2, s3].map(Vec::as_mut_slice),
            seed: &mut self.seed,
        }
    }
}

/// A mutable window over a contiguous range of an [`RngColumn`]; index
/// `i` of the window is its `i`-th stream.
#[derive(Debug)]
pub struct RngColumnMut<'a> {
    s: [&'a mut [u64]; 4],
    seed: &'a mut [u64],
}

impl<'a> RngColumnMut<'a> {
    /// Streams in the window.
    pub fn len(&self) -> usize {
        self.seed.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.seed.is_empty()
    }

    /// Streams `range` of the window, as a window of their own.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    pub fn slice_mut(&mut self, range: Range<usize>) -> RngColumnMut<'_> {
        let [s0, s1, s2, s3] = &mut self.s;
        RngColumnMut {
            s: [s0, s1, s2, s3].map(|word| &mut word[range.clone()]),
            seed: &mut self.seed[range],
        }
    }

    /// Splits the window at `mid`, as [`slice::split_at_mut`] does.
    ///
    /// # Panics
    ///
    /// Panics if `mid > len`.
    pub fn split_at_mut(self, mid: usize) -> (RngColumnMut<'a>, RngColumnMut<'a>) {
        let (seed, seed_rest) = self.seed.split_at_mut(mid);
        let [a, b, c, d] = self.s.map(|word| word.split_at_mut(mid));
        (
            RngColumnMut {
                s: [a.0, b.0, c.0, d.0],
                seed,
            },
            RngColumnMut {
                s: [a.1, b.1, c.1, d.1],
                seed: seed_rest,
            },
        )
    }

    /// A copy of stream `i`.
    pub fn get(&self, i: usize) -> SimRng {
        SimRng::from_parts(self.s.each_ref().map(|word| word[i]), self.seed[i])
    }

    /// Stores `rng` as stream `i`.
    pub fn set(&mut self, i: usize, rng: &SimRng) {
        let (state, seed) = rng.to_parts();
        for (word, w) in self.s.iter_mut().zip(state) {
            word[i] = w;
        }
        self.seed[i] = seed;
    }

    /// Sweeps every lane of the window under `table` (see the module
    /// docs): appends the hit lanes to `hits` in lane order and returns
    /// the number of calm lanes.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is not one byte per lane.
    pub fn sweep(&mut self, classes: &[u8], table: &SweepTable, hits: &mut Vec<usize>) -> u64 {
        assert_eq!(classes.len(), self.len(), "one class byte per lane");
        let mut calm = 0;
        #[cfg(target_arch = "x86_64")]
        let from = x86::try_sweep(self, classes, table, hits, &mut calm);
        #[cfg(not(target_arch = "x86_64"))]
        let from = 0;
        calm + sweep_portable(self, classes, table, from, hits)
    }
}

/// The draws of one sweep, per lane class: each class is skipped or
/// lists up to [`SweepTable::MAX_DRAWS`] thresholds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepTable {
    /// `thresholds[k][c]`: class `c`'s `k`-th draw.
    thresholds: [[u64; SweepTable::CLASSES]; SweepTable::MAX_DRAWS],
    /// Draws per class, zero for a skipped class.
    draws: [u64; SweepTable::CLASSES],
    /// Bit `c`: class `c` is skipped.
    skip: u16,
    /// Bit `c`: a hit in class `c` commits the stream through the
    /// hitting draw.
    commit_hit: u16,
    /// The longest list.
    max_draws: usize,
}

impl SweepTable {
    /// Lane classes a table distinguishes.
    pub const CLASSES: usize = 16;
    /// The longest draw list a class can hold.
    pub const MAX_DRAWS: usize = 8;

    /// A table that skips every class.
    pub fn new() -> Self {
        SweepTable {
            thresholds: [[0; Self::CLASSES]; Self::MAX_DRAWS],
            draws: [0; Self::CLASSES],
            skip: u16::MAX,
            commit_hit: 0,
            max_draws: 0,
        }
    }

    /// Makes class `class` draw `thresholds` in order; `commit_hit`
    /// says whether a hit commits the stream through the hitting draw.
    ///
    /// # Panics
    ///
    /// Panics if `class` is not below [`SweepTable::CLASSES`] or the
    /// list is longer than [`SweepTable::MAX_DRAWS`].
    pub fn set_draws(&mut self, class: usize, thresholds: &[u64], commit_hit: bool) {
        assert!(class < Self::CLASSES, "class {class} out of range");
        assert!(
            thresholds.len() <= Self::MAX_DRAWS,
            "{} draws exceed the sweep's {}",
            thresholds.len(),
            Self::MAX_DRAWS
        );
        for (k, row) in self.thresholds.iter_mut().enumerate() {
            row[class] = thresholds.get(k).copied().unwrap_or(0);
        }
        self.draws[class] = thresholds.len() as u64;
        self.skip &= !(1 << class);
        self.commit_hit = (self.commit_hit & !(1 << class)) | (u16::from(commit_hit) << class);
        self.max_draws = self.draws.iter().max().map_or(0, |&n| n as usize);
    }

    fn skips(&self, class: usize) -> bool {
        (self.skip >> class) & 1 == 1
    }

    fn commits_hit(&self, class: usize) -> bool {
        (self.commit_hit >> class) & 1 == 1
    }
}

impl Default for SweepTable {
    fn default() -> Self {
        Self::new()
    }
}

/// The portable sweep of lanes `from..` of `cols`: appends their hit
/// lanes to `hits` and returns the number of calm ones.
fn sweep_portable(
    cols: &mut RngColumnMut<'_>,
    classes: &[u8],
    table: &SweepTable,
    from: usize,
    hits: &mut Vec<usize>,
) -> u64 {
    // The columns are sliced to the class count once and the draw
    // count is capped, so that the lane loop indexes without bounds
    // checks; with them, the fleet's portable sweep ran ~20% slower
    // than stepping each vehicle through a `SimRng` copy.
    let n = classes.len();
    let [s0, s1, s2, s3] = &mut cols.s;
    let (s0, s1, s2, s3) = (&mut s0[..n], &mut s1[..n], &mut s2[..n], &mut s3[..n]);
    let mut calm = 0;
    for i in from..n {
        let c = usize::from(classes[i]) % SweepTable::CLASSES;
        if table.skips(c) {
            continue;
        }
        let mut rng = StdRng::from_state([s0[i], s1[i], s2[i], s3[i]]);
        let draws = (table.draws[c] as usize).min(SweepTable::MAX_DRAWS);
        let mut hit = false;
        for row in &table.thresholds[..draws] {
            if (rng.next_u64() >> 11) < row[c] {
                hit = true;
                break;
            }
        }
        if hit {
            hits.push(i);
            if !table.commits_hit(c) {
                continue;
            }
        } else {
            calm += 1;
        }
        [s0[i], s1[i], s2[i], s3[i]] = rng.state();
    }
    calm
}

/// The eight-lane AVX-512F sweep kernel.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::{
        __m512i, __mmask8, _mm512_add_epi64, _mm512_and_si512, _mm512_cmplt_epu64_mask,
        _mm512_cvtepu8_epi64, _mm512_loadu_si512, _mm512_mask_cmplt_epu64_mask,
        _mm512_mask_rol_epi64, _mm512_mask_storeu_epi64, _mm512_mask_xor_epi64,
        _mm512_permutex2var_epi64, _mm512_rol_epi64, _mm512_set1_epi64, _mm512_slli_epi64,
        _mm512_srli_epi64, _mm512_srlv_epi64, _mm512_test_epi64_mask, _mm_loadl_epi64,
    };
    use std::sync::OnceLock;

    use super::{RngColumnMut, SweepTable};

    /// Sweeps the window's whole groups of eight lanes and returns how
    /// many lanes that covered, adding their calm count to `calm`; on a
    /// CPU without AVX-512F it sweeps nothing and returns 0. Detection
    /// runs once per process.
    pub(super) fn try_sweep(
        cols: &mut RngColumnMut<'_>,
        classes: &[u8],
        table: &SweepTable,
        hits: &mut Vec<usize>,
        calm: &mut u64,
    ) -> usize {
        static DETECTED: OnceLock<bool> = OnceLock::new();
        if !*DETECTED.get_or_init(|| is_x86_feature_detected!("avx512f")) {
            return 0;
        }
        // SAFETY: `sweep8` is compiled for avx512f, and
        // `is_x86_feature_detected!` confirmed avx512f on this CPU
        // (cached in `DETECTED`).
        unsafe { sweep8(cols, classes, table, hits, calm) }
    }

    /// Sweeps lanes `0 .. len / 8 * 8` of `cols`, eight per iteration,
    /// and returns that count. A lane's class picks its draw count and
    /// each draw's threshold out of two 8-entry halves of the table
    /// (`permutex2var`), and every state update is masked to the lanes
    /// still drawing. AVX-512F has no 64-bit multiply, so the output
    /// function's `* 5` and `* 9` are a shift and an add each.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F.
    #[target_feature(enable = "avx512f")]
    fn sweep8(
        cols: &mut RngColumnMut<'_>,
        classes: &[u8],
        table: &SweepTable,
        hits: &mut Vec<usize>,
        calm: &mut u64,
    ) -> usize {
        let whole = cols.len() / 8 * 8;
        // SAFETY: each load reads the eight words of a bounds-checked
        // eight-word slice.
        let halves = |row: &[u64; 16]| unsafe {
            [0, 8].map(|at| _mm512_loadu_si512(row[at..at + 8].as_ptr().cast()))
        };
        let [draws_lo, draws_hi] = halves(&table.draws);
        let thresholds = table.thresholds.each_ref().map(halves);
        let (skip, commit_hit) = (
            _mm512_set1_epi64(i64::from(table.skip)),
            _mm512_set1_epi64(i64::from(table.commit_hit)),
        );
        let (one, fifteen) = (_mm512_set1_epi64(1), _mm512_set1_epi64(15));
        for base in (0..whole).step_by(8) {
            let lanes = base..base + 8;
            // SAFETY: each load reads the eight bytes or words of a
            // bounds-checked eight-lane slice.
            let (class, mut s) = unsafe {
                (
                    _mm512_cvtepu8_epi64(_mm_loadl_epi64(classes[lanes.clone()].as_ptr().cast())),
                    cols.s
                        .each_ref()
                        .map(|word| _mm512_loadu_si512(word[lanes.clone()].as_ptr().cast())),
                )
            };
            let class = _mm512_and_si512(class, fifteen);
            let flag = |bits: __m512i| _mm512_test_epi64_mask(_mm512_srlv_epi64(bits, class), one);
            let skipped = flag(skip);
            let draws = _mm512_permutex2var_epi64(draws_lo, class, draws_hi);
            let mut live: __mmask8 = !skipped;
            let mut hit: __mmask8 = 0;
            for (k, [lo, hi]) in thresholds.iter().enumerate().take(table.max_draws) {
                let draw = live & _mm512_cmplt_epu64_mask(_mm512_set1_epi64(k as i64), draws);
                if draw == 0 {
                    break;
                }
                let [s0, s1, s2, s3] = &mut s;
                let x = _mm512_rol_epi64::<7>(_mm512_add_epi64(*s1, _mm512_slli_epi64::<2>(*s1)));
                let x = _mm512_add_epi64(x, _mm512_slli_epi64::<3>(x));
                let t = _mm512_slli_epi64::<17>(*s1);
                *s2 = _mm512_mask_xor_epi64(*s2, draw, *s2, *s0);
                *s3 = _mm512_mask_xor_epi64(*s3, draw, *s3, *s1);
                *s1 = _mm512_mask_xor_epi64(*s1, draw, *s1, *s2);
                *s0 = _mm512_mask_xor_epi64(*s0, draw, *s0, *s3);
                *s2 = _mm512_mask_xor_epi64(*s2, draw, *s2, t);
                *s3 = _mm512_mask_rol_epi64::<45>(*s3, draw, *s3);
                let threshold = _mm512_permutex2var_epi64(*lo, class, *hi);
                let h = _mm512_mask_cmplt_epu64_mask(draw, _mm512_srli_epi64::<11>(x), threshold);
                hit |= h;
                live &= !h;
            }
            let calm_lanes = !skipped & !hit;
            let commit = calm_lanes | (hit & flag(commit_hit));
            for (word, v) in cols.s.iter_mut().zip(s) {
                let out = &mut word[lanes.clone()];
                // SAFETY: as for the loads, the store writes at most the
                // eight words of a bounds-checked eight-lane slice.
                unsafe { _mm512_mask_storeu_epi64(out.as_mut_ptr().cast(), commit, v) };
            }
            *calm += u64::from(calm_lanes.count_ones());
            let mut rest = hit;
            while rest != 0 {
                hits.push(base + rest.trailing_zeros() as usize);
                rest &= rest - 1;
            }
        }
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    /// A column of random states, each stream its own seed.
    fn random_column(rng: &mut StdRng, n: usize) -> RngColumn {
        RngColumn {
            s: std::array::from_fn(|_| (0..n).map(|_| rng.next_u64()).collect()),
            seed: (0..n).map(|_| rng.next_u64()).collect(),
        }
    }

    /// Per class: skipped, or its draw list and whether a hit commits.
    type Lists = Vec<Option<(Vec<u64>, bool)>>;

    /// A table with random classes skipped, committing hits or not, and
    /// draw lists of length 0..=8 whose thresholds are 0 (never hits),
    /// 2^53 (always hits) or in between.
    fn random_table(rng: &mut StdRng) -> (SweepTable, Lists) {
        let mut table = SweepTable::new();
        let lists: Lists = (0..SweepTable::CLASSES)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    return None;
                }
                let len = rng.gen_range(0..=SweepTable::MAX_DRAWS);
                let list = (0..len)
                    .map(|_| match rng.gen_range(0..5) {
                        0 => 0,
                        1 => 1 << 53,
                        2 => rng.gen_range(0..1u64 << 53),
                        _ => SimRng::chance_threshold(rng.gen_range(0.0..0.2)),
                    })
                    .collect();
                Some((list, rng.gen_bool(0.5)))
            })
            .collect();
        for (c, list) in lists.iter().enumerate() {
            if let Some((list, commit_hit)) = list {
                table.set_draws(c, list, *commit_hit);
            }
        }
        (table, lists)
    }

    /// The contract written out with [`SimRng::below`], one stream at a
    /// time.
    fn reference(col: &mut RngColumn, classes: &[u8], lists: &Lists) -> (u64, Vec<usize>) {
        let (mut calm, mut hits) = (0, Vec::new());
        let mut view = col.view_mut();
        for (i, &class) in classes.iter().enumerate() {
            let Some((list, commit_hit)) = &lists[usize::from(class) % 16] else {
                continue;
            };
            let mut rng = view.get(i);
            if list.iter().any(|&t| rng.below(t)) {
                hits.push(i);
                if !commit_hit {
                    continue;
                }
            } else {
                calm += 1;
            }
            view.set(i, &rng);
        }
        (calm, hits)
    }

    #[test]
    fn kernel_and_portable_sweeps_match_the_one_stream_draws() {
        let mut rng = StdRng::seed_from_u64(0x5eed_5a1e);
        let mut ran_kernel = false;
        // Window lengths 0..=33 cover empty, partial, exact and
        // one-past groups of eight; 1000 many groups at once.
        for len in (0..=33).chain([1000]) {
            for round in 0..24 {
                let col = random_column(&mut rng, len);
                let (table, lists) = random_table(&mut rng);
                // Class bytes above 15 name class `byte % 16`.
                let classes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=40)).collect();
                let case = format!("{len} lanes, round {round}");

                let mut want = col.clone();
                let (want_calm, want_hits) = reference(&mut want, &classes, &lists);

                let mut portable = col.clone();
                let mut hits = Vec::new();
                let calm = sweep_portable(&mut portable.view_mut(), &classes, &table, 0, &mut hits);
                assert_eq!((calm, &hits), (want_calm, &want_hits), "{case}: portable");
                assert_eq!(portable, want, "{case}: portable columns");

                let mut swept = col.clone();
                let mut hits = Vec::new();
                let calm = swept.view_mut().sweep(&classes, &table, &mut hits);
                assert_eq!((calm, &hits), (want_calm, &want_hits), "{case}: sweep");
                assert_eq!(swept, want, "{case}: sweep columns");

                #[cfg(target_arch = "x86_64")]
                {
                    let mut kernel = col.clone();
                    let (mut calm, mut hits) = (0, Vec::new());
                    let covered = x86::try_sweep(
                        &mut kernel.view_mut(),
                        &classes,
                        &table,
                        &mut hits,
                        &mut calm,
                    );
                    if covered > 0 || len < 8 {
                        ran_kernel |= covered > 0;
                        assert_eq!(covered, len / 8 * 8, "{case}: whole groups");
                        let mut want = col.clone();
                        let (want_calm, want_hits) =
                            reference(&mut want, &classes[..covered], &lists);
                        assert_eq!((calm, &hits), (want_calm, &want_hits), "{case}: kernel");
                        assert_eq!(kernel, want, "{case}: kernel columns");
                    }
                }
            }
        }
        if !ran_kernel {
            eprintln!("no AVX-512F on this CPU: the sweep runs the portable path only");
        }
    }

    #[test]
    fn a_column_round_trips_its_streams() {
        let base = SimRng::seed(9).fork("members");
        let mut col = RngColumn::forks(&base, 5);
        assert_eq!(col.len(), 5);
        for i in 0..5 {
            let mut got = col.get(i);
            let mut want = base.fork_idx(i as u64);
            assert_eq!(got.master_seed(), want.master_seed());
            assert_eq!(got.next_u64(), want.next_u64());
        }
        let (mut head, tail) = col.view_mut().split_at_mut(2);
        assert_eq!((head.len(), tail.len()), (2, 3));
        let mut moved = tail.get(0);
        moved.next_u64();
        head.set(1, &moved);
        assert_eq!(format!("{:?}", col.get(1)), format!("{moved:?}"));
        let mut view = col.view_mut();
        let mut middle = view.slice_mut(3..5);
        assert_eq!(middle.len(), 2);
        middle.set(0, &moved);
        assert_eq!(format!("{:?}", col.get(3)), format!("{moved:?}"));
    }
}
