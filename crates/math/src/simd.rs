//! Portable SIMD micro-kernels for the Montgomery GEMM register tiles.
//!
//! [`crate::gemm_fast`]'s tiled kernel bottoms out in an `MR×NR`
//! register tile: `MR` data rows multiply-accumulated against a packed
//! `k×NR` column panel, one `REDC` per output. This module makes that
//! tile pluggable behind the [`MicroKernel`] trait and provides two
//! implementations:
//!
//! * [`ScalarTile`] — the PR-9 reference tile: each lane accumulates in a
//!   single `u128` (`acc += a·b'` with a 64×64→128 multiply). Exact, but
//!   128-bit lanes defeat autovectorization, so every MAC is a serial
//!   `mul`/`add`/`adc` chain.
//! * [`Simd4`] — the lane-parallel tile. Residues and Montgomery-form
//!   panel entries are both `< 2^32` (asserted by
//!   [`crate::gemm_fast::MontOperand`]), so each product fits one `u64`:
//!   a 32×32→64 multiply. The tile accumulates **two** `u64` vectors per
//!   lane group — the wrapping sum `sum += p` and the exact high-limb sum
//!   `hi += ⌊p / 2^32⌋` — with *no* `u128` arithmetic in the inner loop:
//!   one multiply, one shift and two adds per product. The compiler turns
//!   the masked multiplies into packed 32×32→64 instructions (`pmuludq` /
//!   `vpmuludq`) and the rest into packed 64-bit shifts and adds,
//!   four-plus lanes wide.
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
//! # Selection
//!
//! A kernel is selected **once per plan**: [`crate::gemm_fast::MontOperand`]
//! captures [`active`]'s choice at construction, and every GEMM against
//! that operand dispatches through it. [`active`] always returns
//! [`Simd4`] — it is portable safe Rust with no feature detection to go
//! wrong — while [`ScalarTile`] stays reachable through the `*_with`
//! GEMM entry points for the A/B benches and the equivalence proofs.

use crate::montgomery::Montgomery;

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

    /// Computes one full tile.
    ///
    /// `a` views the `MR` data rows of the tile (row `ii`, inner index
    /// `kk` at `a.at(ii, kk)`, `kk < k`); `panel` is the packed `k×NR`
    /// column panel; `out` receives the `MR×NR` canonical residues
    /// row-major. `k < 2^32` and `k·q < 2^64` are the caller's contract
    /// (established once by [`crate::gemm_fast::MontOperand::new`]).
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

/// 32-bit mask exposing the zero high halves to the autovectorizer.
const LO32: u64 = 0xFFFF_FFFF;

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
        4
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

static SCALAR_TILE: ScalarTile = ScalarTile;
static SIMD4: Simd4 = Simd4;

/// The scalar reference tile instance.
#[must_use]
pub fn scalar_tile() -> &'static dyn MicroKernel {
    &SCALAR_TILE
}

/// The lane-parallel tile instance.
#[must_use]
pub fn simd4() -> &'static dyn MicroKernel {
    &SIMD4
}

/// The micro-kernel new plans capture: always [`Simd4`]. Portable safe
/// Rust — there is no feature probe to mis-detect, and the kernel is
/// bit-identical to [`ScalarTile`] everywhere, so the selection is a pure
/// perf choice made once per plan (see the module docs).
#[must_use]
pub fn active() -> &'static dyn MicroKernel {
    &SIMD4
}

/// Lane count of the [`active`] micro-kernel (what `ServiceStats`
/// reports as `simd_lanes` for the fast host backend).
#[must_use]
pub fn active_lanes() -> usize {
    active().lanes()
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

    #[test]
    fn simd_tile_matches_scalar_tile() {
        let q = generate_ntt_primes(1, 28, 1 << 8)[0];
        let mont = Montgomery::new(q);
        for k in [1usize, 2, 7, 16, 64, 257] {
            let a = fill(MR * k, q, 7 + k as u64);
            let panel = fill(k * NR, q, 99 + k as u64);
            let mut want = [0u64; MR * NR];
            let mut got = [0u64; MR * NR];
            scalar_tile().tile(Strided::row_major(&a, k), k, &panel, &mont, &mut want);
            simd4().tile(Strided::row_major(&a, k), k, &panel, &mont, &mut got);
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn saturated_tile_does_not_overflow() {
        // Worst case: every entry q−1 at the widest supported modulus.
        let q = (1u64 << 32) - 5;
        let mont = Montgomery::new(q);
        let k = 256usize;
        let a = vec![q - 1; MR * k];
        let panel = vec![q - 1; k * NR];
        let mut want = [0u64; MR * NR];
        let mut got = [0u64; MR * NR];
        scalar_tile().tile(Strided::row_major(&a, k), k, &panel, &mont, &mut want);
        simd4().tile(Strided::row_major(&a, k), k, &panel, &mont, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn selection_is_simd() {
        assert_eq!(active().label(), "simd4");
        assert_eq!(active_lanes(), 4);
        assert_eq!(scalar_tile().lanes(), 1);
    }
}
