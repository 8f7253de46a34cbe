//! Portable SIMD micro-kernels for the Montgomery GEMM register tiles.
//!
//! [`crate::gemm_fast`]'s tiled kernel bottoms out in an `MR×NR`
//! register tile: `MR` data rows multiply-accumulated against a packed
//! `k×NR` column panel, one `REDC` per output. This module makes that
//! tile pluggable behind the [`MicroKernel`] trait and provides three
//! implementations:
//!
//! * [`ScalarTile`] — the PR-9 reference tile: each lane accumulates in a
//!   single `u128` (`acc += a·b'` with a 64×64→128 multiply). Exact, but
//!   128-bit lanes defeat autovectorization, so every MAC is a serial
//!   `mul`/`add`/`adc` chain.
//! * [`Simd4`] — the lane-parallel **limb-split** tile, for any `q < 2^32`.
//!   Residues and Montgomery-form panel entries are both `< 2^32` (asserted
//!   by [`crate::gemm_fast::MontOperand`]), so each product fits one `u64`:
//!   a 32×32→64 multiply. The tile accumulates **two** `u64` vectors per
//!   lane group — the wrapping sum `sum += p` and the exact high-limb sum
//!   `hi += ⌊p / 2^32⌋` — with *no* `u128` arithmetic in the inner loop:
//!   one multiply, one shift and two adds per product.
//! * [`Narrow`] — the lane-parallel **single-accumulator** tile, for
//!   word-size primes (`q < 2^31`, every admitted CKKS prime). One `u64`
//!   lane holds the exact sum of a whole run of products, so the inner
//!   loop is one multiply and one add per product — half the vector work
//!   of the limb split — and the per-output `REDC` is two 32-bit Shoup
//!   products in `u64` lanes: no `u128` anywhere in the tile.
//!
//! In both lane-parallel tiles the compiler turns the masked multiplies
//! into packed 32×32→64 instructions (`pmuludq` / `vpmuludq`) and the rest
//! into packed 64-bit shifts and adds, four-plus lanes wide.
//!
//! # Why the limb split is exact
//!
//! Every product is `p = a·b′ < q² < 2^64` with `p = p_lo + 2^32·p_hi`.
//! Summing limbs separately over the `k` inner terms,
//!
//! ```text
//!   Σ p  =  Σ p_lo  +  2^32 · Σ p_hi        (exactly, over ℤ)
//! ```
//!
//! and each limb sum stays below `k·2^32`, which fits a `u64` for every
//! `k < 2^32` — a bound [`crate::gemm_fast::MontOperand::new`] enforces on
//! both dimensions of every operand, so no kernel re-checks it per tile.
//! The low-limb sum is never accumulated: `sum ≡ Σ p_lo + 2^32·Σ p_hi
//! (mod 2^64)` and `Σ p_lo < 2^64`, so `Σ p_lo = sum − (hi << 32)` in
//! wrapping arithmetic, exactly. The tile reconstructs the exact
//! 96-bit-bounded sum `t = lo + (hi << 32)` in `u128` **once per output
//! element**, then applies the same single `REDC(t) = Σ a·b mod q` lazy
//! reduction as the scalar tile — so the two kernels are bit-identical by
//! construction, a property the proptest suites pin across all nine paper
//! presets.
//!
//! # Why the narrow tile is exact
//!
//! Operands are reduced, so a product is at most `(q−1)²` and a lane that
//! starts below `2^33` takes
//!
//! ```text
//!   fold = ⌊(2^64 − 2^33) / (q−1)²⌋
//! ```
//!
//! products before it can wrap. `fold ≥ 256` for every prime below `2^28`
//! and `≥ 64` below `2^29`, so at every HEAX / Table V shape (`k ≤ 256`)
//! a 28-bit prime never spills and the 29-bit Default set at `N = 2^16`
//! runs four runs of 64. Between runs the lane *spills*: its high limb is
//! folded back in as `acc ← acc_lo + [2^32·acc_hi]`, where `[w·x]` is the
//! lazy 32-bit Shoup product ([`crate::Modulus::mul_shoup32_lazy`]: a
//! value in `[0, 2q)` congruent to `w·x`, for any `x < 2^32`). The lane
//! stays congruent to the exact sum and drops below `2^32 + 2q < 2^33` —
//! eight vector ops per `fold` products instead of two more per product.
//!
//! The final reduction must equal `REDC` with `R = 2^64`, because the
//! constant operand is stored as `b·R mod q` whichever tile multiplies
//! it. The lane is below `2^64`, so with `c₁ = 2^-32` and `c₂ = 2^-64
//! (mod q)`,
//!
//! ```text
//!   acc·R⁻¹  ≡  [c₁·acc_hi] + [c₂·acc_lo]   ∈ [0, 4q)
//! ```
//!
//! and two conditional subtractions make it the canonical residue
//! [`Montgomery::redc`] returns. Every multiply in the tile is a 32×32→64
//! one whose full result is used, which is what lets the compiler keep
//! them all packed (`vpmuludq`); the textbook alternative — two 32-bit
//! Montgomery steps — needs the *low* half of a product, and LLVM lowers
//! that to the slow 64-bit `vpmullq` wherever AVX-512DQ makes it legal.
//!
//! # Selection
//!
//! There is one rule and one place it is applied. [`Narrow::select`]
//! computes `fold` and the three Shoup constants from the prime — `Some`
//! exactly when the prime is word-size ([`crate::Modulus::is_word_size`],
//! which gives `fold ≥ 4`), `None` for `2^31 ≤ q < 2^32` where a run would
//! be too short to pay — and
//! [`crate::gemm_fast::MontOperand`] calls it **once, at construction**:
//! every product against that operand dispatches through the captured
//! tile, [`Narrow`] if selected and [`Simd4`] otherwise. No runtime
//! switch, no feature probe. A [`Narrow`] tile remembers the prime it was
//! sized for ([`MicroKernel::sized_for`]) and every GEMM entry point
//! refuses (asserts) a product under any other — once per product, before
//! the first tile, not in the tile loop — so a `fold` can never be applied
//! to products it does not bound.
//! [`ScalarTile`] and [`Simd4`] stay reachable through the `*_with` GEMM
//! entry points as the differential references for the A/B benches and the
//! equivalence proofs.

use crate::modulus::{csub, Modulus, LO32};
use crate::montgomery::Montgomery;
use std::ops::Range;

/// A strided view of a GEMM's streamed data operand: element `(i, kk)` of
/// the logical `m×k` matrix lives at `data[i·row_stride + kk·k_stride]`.
///
/// A dense row-major matrix is `row_stride = k, k_stride = 1`; a
/// column-major one (`row_stride = 1`) lets a kernel multiply a matrix
/// straight out of the layout it arrived in instead of a gathered copy —
/// the four-step NTT reads its `N1×N2` input block this way.
#[derive(Debug, Clone, Copy)]
pub struct Strided<'a> {
    /// Backing elements.
    pub data: &'a [u64],
    /// Distance between consecutive rows.
    pub row_stride: usize,
    /// Distance between consecutive inner-dimension entries of one row.
    pub k_stride: usize,
}

impl<'a> Strided<'a> {
    /// The dense row-major `m×k` view of `data`.
    #[must_use]
    pub fn row_major(data: &'a [u64], k: usize) -> Self {
        Self {
            data,
            row_stride: k,
            k_stride: 1,
        }
    }

    /// Element `(i, kk)`.
    #[inline]
    #[must_use]
    pub fn at(&self, i: usize, kk: usize) -> u64 {
        self.data[i * self.row_stride + kk * self.k_stride]
    }

    /// The view starting at row `i` (the operand of one register tile).
    #[inline]
    #[must_use]
    pub fn from_row(&self, i: usize) -> Self {
        Self {
            data: &self.data[i * self.row_stride..],
            ..*self
        }
    }
}

/// Register-tile height (data rows per tile). Mirrored by
/// [`crate::gemm_fast`]'s blocking.
pub const MR: usize = 4;
/// Register-tile width (panel columns per tile).
pub const NR: usize = 8;

/// One `MR×NR` register tile of the Montgomery lazy-reduction GEMM.
///
/// Implementations must produce canonical residues bit-identical to the
/// Barrett reference: the accumulation is exact over ℤ and the only
/// reduction is the final per-output `REDC`.
pub trait MicroKernel: Send + Sync + std::fmt::Debug {
    /// Stable kernel name (bench tables, `ServiceStats`).
    fn label(&self) -> &'static str;

    /// Parallel lanes the inner loop is written for (1 = scalar).
    fn lanes(&self) -> usize;

    /// The one prime this tile is exact for, if it was sized for one
    /// ([`Narrow`]); `None` for a tile exact under every `q < 2^32`. The
    /// GEMM entry points check it against the operand's prime once per
    /// product, so [`MicroKernel::tile`] never does.
    fn sized_for(&self) -> Option<u64> {
        None
    }

    /// Computes one full tile.
    ///
    /// `a` views the `MR` data rows of the tile (row `ii`, inner index
    /// `kk` at `a.at(ii, kk)`, `kk < k`); `panel` is the packed `k×NR`
    /// column panel; `out` receives the `MR×NR` canonical residues
    /// row-major. `k < 2^32` and `k·q < 2^64` are the caller's contract
    /// (established once by [`crate::gemm_fast::MontOperand::new`]), as is
    /// `mont`'s prime matching [`MicroKernel::sized_for`] (checked once per
    /// product by the GEMM entry points).
    fn tile(
        &self,
        a: Strided<'_>,
        k: usize,
        panel: &[u64],
        mont: &Montgomery,
        out: &mut [u64; MR * NR],
    );
}

/// The PR-9 scalar register tile: one `u128` accumulator per lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarTile;

impl MicroKernel for ScalarTile {
    fn label(&self) -> &'static str {
        "scalar-tile"
    }

    fn lanes(&self) -> usize {
        1
    }

    fn tile(
        &self,
        a: Strided<'_>,
        k: usize,
        panel: &[u64],
        mont: &Montgomery,
        out: &mut [u64; MR * NR],
    ) {
        debug_assert_eq!(panel.len(), k * NR);
        debug_assert!((k as u128) * (mont.modulus() as u128) < (1u128 << 64));
        let mut acc = [[0u128; NR]; MR];
        for kk in 0..k {
            let prow: &[u64; NR] = panel[kk * NR..(kk + 1) * NR]
                .try_into()
                .expect("panel row width");
            for (ii, acc_row) in acc.iter_mut().enumerate() {
                let av = a.at(ii, kk) as u128;
                for (jj, lane) in acc_row.iter_mut().enumerate() {
                    *lane += av * prow[jj] as u128;
                }
            }
        }
        for (ii, acc_row) in acc.iter().enumerate() {
            for (jj, &lane) in acc_row.iter().enumerate() {
                out[ii * NR + jj] = mont.redc(lane);
            }
        }
    }
}

/// The lane-parallel tile: 32×32→64 products, 32-bit limb-split `u64`
/// accumulators, no `u128` in the inner loop (see the module docs for the
/// exactness argument).
#[derive(Debug, Clone, Copy, Default)]
pub struct Simd4;

impl MicroKernel for Simd4 {
    fn label(&self) -> &'static str {
        "simd4"
    }

    fn lanes(&self) -> usize {
        LANES
    }

    fn tile(
        &self,
        a: Strided<'_>,
        k: usize,
        panel: &[u64],
        mont: &Montgomery,
        out: &mut [u64; MR * NR],
    ) {
        debug_assert_eq!(panel.len(), k * NR);
        // Limb sums of k terms each < 2^32 must fit u64.
        debug_assert!(
            (k as u64) < (1u64 << 32),
            "inner dimension overflows limb sums"
        );
        // Per lane: `sum = Σ p mod 2^64` and `hi = Σ ⌊p / 2^32⌋` (exact).
        let mut sum = [[0u64; NR]; MR];
        let mut hi = [[0u64; NR]; MR];
        for kk in 0..k {
            let prow: &[u64; NR] = panel[kk * NR..(kk + 1) * NR]
                .try_into()
                .expect("panel row width");
            for ii in 0..MR {
                // Residues are < 2^32; the masks prove it to the
                // vectorizer, which lowers the multiply to packed
                // 32×32→64 (`vpmuludq`) instead of a serial 64×64 chain.
                let av = a.at(ii, kk) & LO32;
                for jj in 0..NR {
                    let p = av.wrapping_mul(prow[jj] & LO32);
                    sum[ii][jj] = sum[ii][jj].wrapping_add(p);
                    hi[ii][jj] = hi[ii][jj].wrapping_add(p >> 32);
                }
            }
        }
        for ii in 0..MR {
            for jj in 0..NR {
                // The low-limb sum lo = Σ (p mod 2^32) < k·2^32 ≤ 2^64 is
                // recovered exactly from sum ≡ lo + 2^32·hi (mod 2^64).
                // Then one u128 op per *output*, not per MAC:
                // t = Σ a·b′ < k·q² < q·2^64, inside REDC's domain.
                let lo = sum[ii][jj].wrapping_sub(hi[ii][jj] << 32);
                let t = lo as u128 + ((hi[ii][jj] as u128) << 32);
                out[ii * NR + jj] = mont.redc(t);
            }
        }
    }
}

/// The single-accumulator tile for a word-size prime: one `u64` lane per
/// output holds the exact sum of up to `fold` products, and every
/// reduction is a 32-bit Shoup product in the same lanes (see the module
/// docs for the exactness argument). Built only by [`Narrow::select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Narrow {
    /// The prime everything below was computed for.
    q: Modulus,
    /// Products a lane below `2^33` takes before it can wrap.
    fold: usize,
    /// `2^32 mod q` — folds a lane's high limb back in at a spill — as a
    /// Shoup pair `[w, ⌊w·2^32/q⌋]`.
    spill: [u64; 2],
    /// `2^-32 mod q` and `2^-64 mod q`, as Shoup pairs — `REDC` of the
    /// high and low limb.
    redc: [[u64; 2]; 2],
}

impl Narrow {
    /// The selection rule: the narrow tile sized for `q` if `q` is an odd
    /// word-size modulus (`q < 2^31`), else `None` — the caller keeps
    /// [`Simd4`].
    ///
    /// # Panics
    ///
    /// Panics if `q < 2`.
    #[must_use]
    pub fn select(q: u64) -> Option<Self> {
        let m = Modulus::new(q);
        if q.is_multiple_of(2) || !m.is_word_size() {
            return None;
        }
        let fold = (u64::MAX - LO32 - (1 << 32)) / ((q - 1) * (q - 1));
        // R⁻¹ = REDC(1) and 2^-32 = REDC(2^32), for R = 2^64.
        let mont = Montgomery::new(q);
        let shoup = |w: u64| [w, m.shoup32(w)];
        Some(Self {
            q: m,
            fold: usize::try_from(fold).unwrap_or(usize::MAX),
            spill: shoup(m.reduce(1 << 32)),
            redc: [shoup(mont.redc(1 << 32)), shoup(mont.redc(1))],
        })
    }

    /// Products per accumulator run: `⌊(2^64 − 2^33) / (q−1)²⌋`.
    #[must_use]
    pub fn fold(&self) -> usize {
        self.fold
    }
}

/// `acc[ii·NR + jj] += Σ_{kk ∈ run} a[ii][kk]·panel[kk][jj]`, one multiply
/// and one add per product.
///
/// Deliberately its own function: inlined next to the reduction loop,
/// LLVM's SLP pass merges the two and fills this loop with cross-lane
/// shuffles; on its own it compiles to `MR·NR / lanes` independent
/// multiply-accumulate chains.
#[inline(never)]
fn accumulate(a: Strided<'_>, run: Range<usize>, panel: &[u64], acc: &mut [u64; MR * NR]) {
    let mut s = *acc;
    let rows = panel[run.start * NR..run.end * NR].chunks_exact(NR);
    for (kk, prow) in run.zip(rows) {
        for ii in 0..MR {
            // Both factors are < 2^32; the masks prove it to the
            // vectorizer (packed 32×32→64, `vpmuludq`).
            let av = a.at(ii, kk) & LO32;
            for jj in 0..NR {
                s[ii * NR + jj] += av * (prow[jj] & LO32);
            }
        }
    }
    *acc = s;
}

impl MicroKernel for Narrow {
    fn label(&self) -> &'static str {
        "narrow"
    }

    fn lanes(&self) -> usize {
        LANES
    }

    fn sized_for(&self) -> Option<u64> {
        Some(self.q.value())
    }

    fn tile(
        &self,
        a: Strided<'_>,
        k: usize,
        panel: &[u64],
        mont: &Montgomery,
        out: &mut [u64; MR * NR],
    ) {
        let q = &self.q;
        debug_assert_eq!(mont.modulus(), q.value());
        debug_assert_eq!(panel.len(), k * NR);
        let mut acc = [0u64; MR * NR];
        let mut k0 = 0usize;
        loop {
            let k1 = k.min(k0.saturating_add(self.fold));
            accumulate(a, k0..k1, panel, &mut acc);
            if k1 == k {
                break;
            }
            // Spill: fold the high limb back in. Congruent to the exact
            // sum, and below 2^32 + 2q < 2^33.
            let [w, ws] = self.spill;
            for acc in &mut acc {
                *acc = (*acc & LO32) + q.mul_shoup32_lazy(w, ws, *acc >> 32);
            }
            k0 = k1;
        }
        let [[hi, his], [lo, los]] = self.redc;
        for (o, &acc) in out.iter_mut().zip(&acc) {
            // acc·2^-64 = acc_hi·2^-32 + acc_lo·2^-64, in [0, 4q).
            let r =
                q.mul_shoup32_lazy(hi, his, acc >> 32) + q.mul_shoup32_lazy(lo, los, acc & LO32);
            *o = csub(csub(r, 2 * q.value()), q.value());
        }
    }
}

static SCALAR_TILE: ScalarTile = ScalarTile;
static SIMD4: Simd4 = Simd4;

/// The scalar reference tile instance.
#[must_use]
pub fn scalar_tile() -> &'static dyn MicroKernel {
    &SCALAR_TILE
}

/// The limb-split lane-parallel tile instance.
#[must_use]
pub fn simd4() -> &'static dyn MicroKernel {
    &SIMD4
}

/// Lanes both lane-parallel tiles ([`Simd4`], [`Narrow`]) are written for.
const LANES: usize = 4;

/// Lane count of the tile a [`crate::gemm_fast::MontOperand`] captures,
/// whichever of the two it is (what `ServiceStats` reports as `simd_lanes`
/// for the fast host backend).
#[must_use]
pub fn active_lanes() -> usize {
    LANES
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prime::generate_ntt_primes;

    fn fill(len: usize, q: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % q
            })
            .collect()
    }

    /// Runs all three tiles on the same operands and demands equal bits.
    fn assert_tiles_agree(q: u64, k: usize, a: &[u64], panel: &[u64]) {
        let mont = Montgomery::new(q);
        let view = Strided::row_major(a, k);
        let mut want = [0u64; MR * NR];
        scalar_tile().tile(view, k, panel, &mont, &mut want);
        let mut got = [0u64; MR * NR];
        simd4().tile(view, k, panel, &mont, &mut got);
        assert_eq!(got, want, "limb-split q={q} k={k}");
        if let Some(narrow) = Narrow::select(q) {
            let mut got = [0u64; MR * NR];
            narrow.tile(view, k, panel, &mont, &mut got);
            assert_eq!(got, want, "narrow (fold {}) q={q} k={k}", narrow.fold());
        }
    }

    #[test]
    fn simd_tile_matches_scalar_tile() {
        // 28-bit: no spill up to k = 256, one at 257. 29-bit: runs of 64.
        // 30- and 31-bit: runs of 16 and 4.
        let cases: [(u32, &[usize]); 4] = [
            (28, &[1, 2, 7, 16, 64, 128, 256, 257]),
            (29, &[64, 65, 256]),
            (30, &[15, 16, 17, 256]),
            (31, &[3, 4, 5, 64, 256]),
        ];
        for (bits, ks) in cases {
            let q = generate_ntt_primes(1, bits, 1 << 8)[0];
            for &k in ks {
                let a = fill(MR * k, q, 7 + k as u64);
                let panel = fill(k * NR, q, 99 + k as u64);
                assert_tiles_agree(q, k, &a, &panel);
            }
        }
    }

    #[test]
    fn fold_is_the_last_run_length_that_cannot_wrap() {
        for bits in [20u32, 28, 29, 30, 31] {
            let q = generate_ntt_primes(1, bits, 1 << 8)[0];
            let fold = Narrow::select(q).expect("word-size").fold() as u128;
            let p = (q as u128 - 1) * (q as u128 - 1);
            // A lane that starts at 2^33 − 1 and takes `fold` worst-case
            // products stays inside u64; one more product would not.
            assert!((1 << 33) - 1 + fold * p < 1 << 64, "{bits}-bit fold wraps");
            assert!(
                (1 << 33) - 1 + (fold + 1) * p >= 1 << 64,
                "{bits}-bit slack"
            );
        }
        let fold = |bits: u32| {
            let q = generate_ntt_primes(1, bits, 1 << 8)[0];
            Narrow::select(q).expect("word-size").fold()
        };
        assert!(fold(28) >= 256, "28-bit primes never spill at k ≤ 256");
        assert!(
            (64..256).contains(&fold(29)),
            "29-bit primes run 64 at a time"
        );
        assert!(fold(31) >= 4);
    }

    #[test]
    fn saturated_runs_at_the_fold_edge() {
        // Every operand q − 1, inner dimension one product below, at and
        // above a whole number of runs: the last product a lane may take,
        // the first spill, and runs that start from a spilled lane.
        for bits in [28u32, 29, 30, 31] {
            let q = generate_ntt_primes(1, bits, 1 << 8)[0];
            let fold = Narrow::select(q).expect("word-size").fold();
            for k in [
                fold - 1,
                fold,
                fold + 1,
                2 * fold,
                2 * fold + 1,
                5 * fold + 3,
            ] {
                assert_tiles_agree(q, k, &vec![q - 1; MR * k], &vec![q - 1; k * NR]);
            }
        }
        // The largest word-size prime: (q−1)² is as close to 2^62 as it gets.
        let q = (1u64 << 31) - 1;
        assert_eq!(Narrow::select(q).expect("word-size").fold(), 4);
        for k in [3usize, 4, 5, 8, 9, 256, 1021] {
            assert_tiles_agree(q, k, &vec![q - 1; MR * k], &vec![q - 1; k * NR]);
        }
    }

    #[test]
    fn saturated_tile_does_not_overflow() {
        // Worst case: every entry q−1 at the widest supported modulus —
        // not word-size, so only the limb split takes it.
        let q = (1u64 << 32) - 5;
        assert_eq!(Narrow::select(q), None);
        let k = 256usize;
        assert_tiles_agree(q, k, &vec![q - 1; MR * k], &vec![q - 1; k * NR]);
    }

    #[test]
    fn selection_is_simd() {
        for q in [3u64, 97, (1 << 28) - 57, (1 << 30) + 1, (1 << 31) - 1] {
            let narrow = Narrow::select(q).expect("word-size prime");
            assert_eq!((narrow.label(), narrow.lanes()), ("narrow", 4));
        }
        for q in [(1u64 << 31) + 11, (1 << 32) - 5, (1 << 61) - 1] {
            assert_eq!(Narrow::select(q), None, "q = {q} keeps the limb split");
        }
        assert_eq!((simd4().label(), simd4().lanes()), ("simd4", 4));
        assert_eq!(active_lanes(), 4);
        assert_eq!(scalar_tile().lanes(), 1);
    }

    #[test]
    #[should_panic(expected = "sized for another prime")]
    fn narrow_tile_refuses_another_prime() {
        // Checked at the GEMM entry point, once per product.
        let narrow = Narrow::select(97).expect("word-size");
        assert_eq!(narrow.sized_for(), Some(97));
        let b = crate::gemm_fast::MontOperand::new((1 << 31) - 1, &[0; NR], 1, NR);
        let mut out = [0u64; MR * NR];
        crate::gemm_fast::gemm_rm_with(&[0; MR], MR, &b, &narrow, &mut out);
    }
}
