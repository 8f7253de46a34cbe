//! Cache-blocked, register-tiled Montgomery GEMM over `Z_q`.
//!
//! The four-step NTT and the fast basis conversion both bottom out in
//! dense `u64` matrix products against a *constant* operand (twiddle or
//! conversion matrices). The scalar reference path accumulates each output
//! in 128 bits and pays one Barrett reduction per element; this module is
//! the host fast path for the same products:
//!
//! * The constant operand is pre-converted to Montgomery form once per
//!   plan ([`MontOperand`], `b′ = b·R mod q`), so the inner kernel's only
//!   reduction is a single `REDC` per output element:
//!   `REDC(Σ aᵢ·b′ᵢ) = Σ aᵢ·bᵢ mod q` — the lazy-reduction identity that
//!   makes the result **bit-identical** to the Barrett path (both produce
//!   the canonical residue).
//! * The kernel is blocked for the memory hierarchy: the right operand is
//!   consumed as zero-padded `k×NR` column panels that stay L1-resident
//!   while every row of the left operand streams through, and each `4×8`
//!   output tile is accumulated in registers before its `REDC`s. A
//!   constant right operand is packed into that layout **once**, at plan
//!   build ([`MontOperand::new_packed`]); a row-major one is packed panel
//!   by panel on every call. The register tile itself is pluggable
//!   ([`crate::simd::MicroKernel`]): each [`MontOperand`] selects its tile
//!   once, at construction, from its prime alone — the single-accumulator
//!   [`crate::simd::Narrow`] tile when [`crate::simd::Narrow::select`]
//!   admits the prime (`q < 2^31`), the limb-split [`crate::simd::Simd4`]
//!   tile otherwise — and every product against that operand dispatches
//!   through it. All tiles are bit-identical; see [`crate::simd`] for the
//!   two exactness arguments.
//! * Input and output layouts are the caller's: the streamed left operand
//!   is a [`Strided`] view (so a column-major block multiplies in place of
//!   a gathered copy), pre-laid panels are accepted as the right operand
//!   ([`gemm_lm_fused`]), and every finished register tile is handed to an
//!   *epilogue* closure ([`TileOut`]) that may post-process and store it
//!   anywhere — the four-step NTT folds its twiddle Hadamard and both
//!   repacks into those hooks. [`gemm_rm`] / [`gemm_lm`] are the plain
//!   row-major instances.
//!
//! Overflow never occurs: residues are `< 2^32` and both dimensions of an
//! operand are `< 2^32` (checked once, by [`MontOperand::new`]), so `k`
//! terms accumulate to `< k·q² < q·2^64`, within `REDC`'s `t < q·R` domain.
//! How a tile *holds* that sum is its own business: the limb-split tile
//! keeps two `u64` limb sums per lane, the narrow tile one `u64` lane whose
//! high limb is folded back in every `fold = ⌊(2^64 − 2^33)/(q−1)²⌋`
//! products (never, at `k ≤ 256` with a 28-bit prime) — `fold` is computed
//! with the selection, from the same `q` the operand's entries are checked
//! against.
//!
//! The kernel is symmetric in which side carries the Montgomery form —
//! exactly one operand must. [`gemm_rm`] keeps the *right* operand
//! constant (`stacked × W`), [`gemm_lm`] the *left* (`W × wide`), covering
//! both GEMM orientations of the batched NTT pipeline.

use crate::montgomery::Montgomery;
use crate::scratch;
pub use crate::simd::Strided;
use crate::simd::{MicroKernel, Narrow, MR, NR};

/// How a [`MontOperand`]'s entries are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Row-major `rows × cols`: usable on either side of a product.
    RowMajor,
    /// Zero-padded `rows × NR` column panels ([`panel_index`]): the form
    /// the tiled kernel consumes a right operand in.
    Panels,
}

/// Elements of a `k×n` right operand laid out as zero-padded `k×NR` column
/// panels (`⌈n/NR⌉` panels back to back).
#[must_use]
pub const fn packed_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Position of entry `(row, col)` of a `k`-row right operand in the panel
/// layout: panel `col / NR`, then row-major `k×NR` inside it.
#[inline]
#[must_use]
pub const fn panel_index(k: usize, row: usize, col: usize) -> usize {
    (col / NR) * (k * NR) + row * NR + col % NR
}

/// A constant GEMM operand held in Montgomery form.
///
/// Built once per plan from canonical residues; [`gemm_rm`] / [`gemm_lm`]
/// then multiply plain data against it with one `REDC` per output.
#[derive(Debug, Clone)]
pub struct MontOperand {
    mont: Montgomery,
    rows: usize,
    cols: usize,
    /// Every entry `b·R mod q`, stored once, in `layout`.
    data: Vec<u64>,
    layout: Layout,
    /// The narrow register tile, if the prime admits it — decided once,
    /// here at construction (plan build time); `None` means limb-split.
    narrow: Option<Narrow>,
}

impl MontOperand {
    /// Converts a row-major `rows × cols` matrix of canonical residues
    /// into Montgomery form, kept row-major: the operand may sit on either
    /// side of a product ([`gemm_rm`] packs it panel by panel per call).
    ///
    /// # Panics
    ///
    /// Panics if `q` is even or `≥ 2^32`, or a dimension is `≥ 2^32` (the
    /// lazy-reduction overflow argument needs 32-bit residues and
    /// `k·q < 2^64` for either dimension as `k`), if
    /// `data.len() ≠ rows·cols`, or if any entry is `≥ q`.
    #[must_use]
    pub fn new(q: u64, data: &[u64], rows: usize, cols: usize) -> Self {
        Self::build(q, data, rows, cols, Layout::RowMajor)
    }

    /// [`MontOperand::new`] for a **right-hand** constant: the entries are
    /// stored only as the `rows × NR` column panels the kernel consumes,
    /// so products against it ([`gemm_rm`], [`gemm_rm_fused`]) skip the
    /// per-call pack. Such an operand cannot be a left operand.
    ///
    /// # Panics
    ///
    /// As [`MontOperand::new`].
    #[must_use]
    pub fn new_packed(q: u64, data: &[u64], rows: usize, cols: usize) -> Self {
        Self::build(q, data, rows, cols, Layout::Panels)
    }

    fn build(q: u64, data: &[u64], rows: usize, cols: usize, layout: Layout) -> Self {
        assert!(q < (1 << 32), "Montgomery GEMM requires q < 2^32");
        // Either dimension may become the inner one. k < 2^32 keeps the
        // tiles' 32-bit limb sums in a u64 and, with q < 2^32, gives
        // k·q < 2^64: k terms of a·b′ < q² stay inside REDC's domain.
        assert!(
            (rows.max(cols) as u64) < (1 << 32),
            "inner dimension too large for lazy reduction"
        );
        assert_eq!(data.len(), rows * cols, "operand shape mismatch");
        let mont = Montgomery::new(q);
        let conv = |b: u64| {
            assert!(b < q, "operand entry {b} not reduced mod {q}");
            mont.to_mont(b)
        };
        let data = match layout {
            Layout::RowMajor => data.iter().map(|&b| conv(b)).collect(),
            Layout::Panels => {
                let mut panels = vec![0u64; packed_len(rows, cols)];
                for (idx, &b) in data.iter().enumerate() {
                    panels[panel_index(rows, idx / cols, idx % cols)] = conv(b);
                }
                panels
            }
        };
        Self {
            mont,
            rows,
            cols,
            data,
            layout,
            narrow: Narrow::select(q),
        }
    }

    /// The register tile this operand's products dispatch through.
    #[must_use]
    pub fn kernel(&self) -> &dyn MicroKernel {
        match &self.narrow {
            Some(narrow) => narrow,
            None => crate::simd::simd4(),
        }
    }

    /// Row count.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The modulus the operand is reduced by.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.mont.modulus()
    }

    /// The Montgomery context of the operand's modulus (what an epilogue
    /// multiplies Montgomery-form constants with).
    #[must_use]
    pub fn montgomery(&self) -> &Montgomery {
        &self.mont
    }

    /// The operand as the kernel's right-hand side.
    fn as_right(&self) -> Right<'_> {
        match self.layout {
            Layout::RowMajor => Right::RowMajor(&self.data),
            Layout::Panels => Right::Packed(&self.data),
        }
    }

    /// The operand as the kernel's left-hand side.
    fn as_left(&self) -> Strided<'_> {
        assert_eq!(
            self.layout,
            Layout::RowMajor,
            "a pre-packed operand is right-hand only"
        );
        Strided::row_major(&self.data, self.cols)
    }
}

/// One finished register tile, handed to a GEMM epilogue: `vals` holds the
/// canonical residues of output rows `row0..row0+rows`, columns
/// `col0..col0+cols`, row-major with stride [`NR`] (`rows ≤ MR`,
/// `cols ≤ NR`; `col0` is a multiple of `NR`). Rows beyond `rows` are
/// unspecified; columns `cols..NR` of a valid row are the products against
/// the panel's padding columns — zero whenever the padding is, which it
/// always is for a [`MontOperand`]'s panels and per-call packs.
#[derive(Debug, Clone, Copy)]
pub struct TileOut<'a> {
    /// First output row of the tile.
    pub row0: usize,
    /// First output column of the tile.
    pub col0: usize,
    /// Valid rows.
    pub rows: usize,
    /// Valid columns.
    pub cols: usize,
    /// The tile, row-major with stride `NR`.
    pub vals: &'a [u64; MR * NR],
}

impl TileOut<'_> {
    /// Copies the tile to its place in a row-major output whose rows are
    /// `n` elements long — the whole epilogue of a plain product.
    pub fn store_row_major(&self, out: &mut [u64], n: usize) {
        for ii in 0..self.rows {
            let at = (self.row0 + ii) * n + self.col0;
            out[at..at + self.cols].copy_from_slice(&self.vals[ii * NR..ii * NR + self.cols]);
        }
    }
}

/// `C (m×n) = A (m×k) × B (k×n) mod q` where the **right** operand is the
/// Montgomery-form constant: the `stacked × W_n2` orientation.
///
/// Outputs are canonical residues, bit-identical to the Barrett reference.
///
/// # Panics
///
/// Panics on shape mismatches (`a.len() ≠ m·k`, `out.len() ≠ m·n`).
pub fn gemm_rm(a: &[u64], m: usize, b: &MontOperand, out: &mut [u64]) {
    gemm_rm_with(a, m, b, b.kernel(), out);
}

/// [`gemm_rm`] with an explicit register tile, overriding the one the
/// operand captured — the A/B hook for benches and equivalence tests.
pub fn gemm_rm_with(
    a: &[u64],
    m: usize,
    b: &MontOperand,
    kernel: &dyn MicroKernel,
    out: &mut [u64],
) {
    assert_eq!(a.len(), m * b.rows, "left operand shape mismatch");
    assert_eq!(out.len(), m * b.cols, "output shape mismatch");
    let a = Strided::row_major(a, b.rows);
    gemm_tiled(a, m, b.rows, b.as_right(), b.cols, &b.mont, kernel, |t| {
        t.store_row_major(out, b.cols)
    });
}

/// [`gemm_rm`] with the layout hooks exposed: the left operand is any
/// [`Strided`] view of `m` rows, and each finished tile goes to `epilogue`
/// instead of a row-major output.
///
/// # Panics
///
/// Panics if the view does not cover `m × b.rows()` elements.
pub fn gemm_rm_fused(a: Strided<'_>, m: usize, b: &MontOperand, epilogue: impl FnMut(TileOut<'_>)) {
    if m > 0 && b.rows > 0 {
        let last = (m - 1) * a.row_stride + (b.rows - 1) * a.k_stride;
        assert!(last < a.data.len(), "left operand shape mismatch");
    }
    gemm_tiled(
        a,
        m,
        b.rows,
        b.as_right(),
        b.cols,
        &b.mont,
        b.kernel(),
        epilogue,
    );
}

/// `C (m×n) = A (m×k) × B (k×n) mod q` where the **left** operand is the
/// Montgomery-form constant: the `W_dft × wide` orientation.
///
/// # Panics
///
/// Panics on shape mismatches (`b.len() ≠ k·n`, `out.len() ≠ m·n`) or if
/// `a` was built with [`MontOperand::new_packed`].
pub fn gemm_lm(a: &MontOperand, b: &[u64], n: usize, out: &mut [u64]) {
    gemm_lm_with(a, b, n, a.kernel(), out);
}

/// [`gemm_lm`] with an explicit register tile (see [`gemm_rm_with`]).
pub fn gemm_lm_with(
    a: &MontOperand,
    b: &[u64],
    n: usize,
    kernel: &dyn MicroKernel,
    out: &mut [u64],
) {
    assert_eq!(b.len(), a.cols * n, "data operand shape mismatch");
    assert_eq!(out.len(), a.rows * n, "output shape mismatch");
    gemm_tiled(
        a.as_left(),
        a.rows,
        a.cols,
        Right::RowMajor(b),
        n,
        &a.mont,
        kernel,
        |t| t.store_row_major(out, n),
    );
}

/// [`gemm_lm`] with the layout hooks exposed: the data operand arrives
/// already laid out as `k×NR` panels ([`packed_len`], [`panel_index`] —
/// typically written there by a previous product's epilogue, padding
/// columns zero), and each finished tile goes to `epilogue`.
///
/// # Panics
///
/// Panics if `panels.len() ≠ packed_len(a.cols(), n)` or if `a` was built
/// with [`MontOperand::new_packed`].
pub fn gemm_lm_fused(a: &MontOperand, panels: &[u64], n: usize, epilogue: impl FnMut(TileOut<'_>)) {
    assert_eq!(
        panels.len(),
        packed_len(a.cols, n),
        "data operand shape mismatch"
    );
    gemm_tiled(
        a.as_left(),
        a.rows,
        a.cols,
        Right::Packed(panels),
        n,
        &a.mont,
        a.kernel(),
        epilogue,
    );
}

/// Scalar (untiled) reference of the same lazy-reduction product, for the
/// equivalence proofs: identical math, no blocking.
#[must_use]
pub fn gemm_rm_ref(a: &[u64], m: usize, b: &MontOperand) -> Vec<u64> {
    assert_eq!(a.len(), m * b.rows, "data operand shape mismatch");
    let (k, n) = (b.rows, b.cols);
    let mut out = vec![0u64; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0u128;
            for kk in 0..k {
                let at = match b.layout {
                    Layout::RowMajor => kk * n + j,
                    Layout::Panels => panel_index(k, kk, j),
                };
                acc += a[i * k + kk] as u128 * b.data[at] as u128;
            }
            out[i * n + j] = b.mont.redc(acc);
        }
    }
    out
}

/// The tiled kernel's right operand (`k×n`).
#[derive(Clone, Copy)]
enum Right<'a> {
    /// Already in the panel layout.
    Packed(&'a [u64]),
    /// Row-major: each panel is packed into scratch as it comes up.
    RowMajor(&'a [u64]),
}

/// The shared tiled kernel. Exactly one of `a`/`b` is in Montgomery form;
/// `REDC` folds the `R` factor away either way. Panels are zero-padded to
/// `NR` columns, so every `MR`-row strip — edge panels included — goes
/// through `kernel`; only the last `m mod MR` rows take the scalar path
/// below (bit-identical, off the hot path). Shape and overflow
/// preconditions are the callers' (checked per call and at
/// [`MontOperand::new`] respectively); the tile's prime is checked here,
/// once per product, for every entry point.
// The GEMM shape (two operands + dims + modulus + tile + sink) is
// irreducibly eight values; bundling them into a struct for one private fn
// obscures the call sites.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled(
    a: Strided<'_>,
    m: usize,
    k: usize,
    b: Right<'_>,
    n: usize,
    mont: &Montgomery,
    kernel: &dyn MicroKernel,
    mut epilogue: impl FnMut(TileOut<'_>),
) {
    debug_assert!((k as u128) * (mont.modulus() as u128) < (1u128 << 64));
    if let Some(p) = kernel.sized_for() {
        assert_eq!(p, mont.modulus(), "narrow tile sized for another prime");
    }
    if m == 0 || n == 0 {
        return;
    }
    let mut pack = match b {
        Right::RowMajor(data) => {
            assert_eq!(data.len(), k * n, "right operand shape mismatch");
            // Every panel pack below overwrites the buffer whole.
            scratch::take_dirty_u64(k * NR)
        }
        Right::Packed(_) => Vec::new(),
    };
    let mut tile = [0u64; MR * NR];
    for j0 in (0..n).step_by(NR) {
        let nr = NR.min(n - j0);
        // The k×NR column panel stays L1-resident while every data row
        // streams through it.
        let panel: &[u64] = match b {
            Right::Packed(panels) => &panels[j0 * k..(j0 + NR) * k],
            Right::RowMajor(data) => {
                for (kk, dst) in pack.chunks_exact_mut(NR).enumerate() {
                    dst[..nr].copy_from_slice(&data[kk * n + j0..kk * n + j0 + nr]);
                    dst[nr..].fill(0);
                }
                &pack
            }
        };
        let mut i0 = 0;
        // Full MR-row register tiles: fixed-size accumulator arrays the
        // compiler keeps in registers and unrolls.
        while i0 + MR <= m {
            kernel.tile(a.from_row(i0), k, panel, mont, &mut tile);
            epilogue(TileOut {
                row0: i0,
                col0: j0,
                rows: MR,
                cols: nr,
                vals: &tile,
            });
            i0 += MR;
        }
        // Edge rows: same math, one u128 accumulator per lane.
        if i0 < m {
            for ii in 0..m - i0 {
                let mut acc = [0u128; NR];
                for (kk, prow) in panel.chunks_exact(NR).enumerate() {
                    let av = a.at(i0 + ii, kk) as u128;
                    for (lane, &p) in acc.iter_mut().zip(prow) {
                        *lane += av * p as u128;
                    }
                }
                for (o, &lane) in tile[ii * NR..(ii + 1) * NR].iter_mut().zip(&acc) {
                    *o = mont.redc(lane);
                }
            }
            epilogue(TileOut {
                row0: i0,
                col0: j0,
                rows: m - i0,
                cols: nr,
                vals: &tile,
            });
        }
    }
    scratch::give_u64(pack);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulus::Modulus;
    use crate::prime::generate_ntt_primes;

    /// Naive Barrett schoolbook — the value-level ground truth.
    fn barrett_gemm(a: &[u64], m: usize, k: usize, b: &[u64], n: usize, q: u64) -> Vec<u64> {
        let md = Modulus::new(q);
        let mut out = vec![0u64; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0u128;
                for kk in 0..k {
                    acc += a[i * k + kk] as u128 * b[kk * n + j] as u128;
                }
                out[i * n + j] = md.reduce_u128(acc);
            }
        }
        out
    }

    fn fill(m: usize, k: usize, q: u64, seed: u64) -> Vec<u64> {
        // Deterministic splitmix64 stream reduced mod q.
        let mut state = seed;
        (0..m * k)
            .map(|_| {
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % q
            })
            .collect()
    }

    /// Every product entry point, through the captured tile and through
    /// each tile by name, against the Barrett schoolbook.
    fn check_all_entry_points(q: u64, (m, k, n): (usize, usize, usize), a: &[u64], b: &[u64]) {
        let want = barrett_gemm(a, m, k, b, n, q);

        let bm = MontOperand::new(q, b, k, n);
        let mut got = vec![0u64; m * n];
        gemm_rm(a, m, &bm, &mut got);
        assert_eq!(got, want, "gemm_rm q={q} m={m} k={k} n={n}");
        assert_eq!(gemm_rm_ref(a, m, &bm), want, "ref q={q} m={m} k={k} n={n}");

        // The pre-packed form of the same constant: no per-call pack,
        // same bits.
        let bp = MontOperand::new_packed(q, b, k, n);
        let mut got_p = vec![0u64; m * n];
        gemm_rm(a, m, &bp, &mut got_p);
        assert_eq!(got_p, want, "packed gemm_rm q={q} m={m} k={k} n={n}");
        assert_eq!(gemm_rm_ref(a, m, &bp), want, "packed ref q={q}");

        let am = MontOperand::new(q, a, m, k);
        let mut got_l = vec![0u64; m * n];
        gemm_lm(&am, b, n, &mut got_l);
        assert_eq!(got_l, want, "gemm_lm q={q} m={m} k={k} n={n}");

        // Every register tile must reproduce the same bits through the
        // full blocked kernel, not just in isolation.
        let tiles = [
            crate::simd::scalar_tile(),
            crate::simd::simd4(),
            bm.kernel(),
        ];
        for kernel in tiles {
            let mut got_k = vec![0u64; m * n];
            gemm_rm_with(a, m, &bm, kernel, &mut got_k);
            assert_eq!(got_k, want, "{} q={q} m={m} k={k} n={n}", kernel.label());
            let mut got_kl = vec![0u64; m * n];
            gemm_lm_with(&am, b, n, kernel, &mut got_kl);
            assert_eq!(
                got_kl,
                want,
                "lm {} q={q} m={m} k={k} n={n}",
                kernel.label()
            );
        }
    }

    /// One prime per width the selection rule distinguishes, with the tile
    /// label it must capture: 28-bit (no spill to k = 256), 29-bit (runs of
    /// 64), 30- and 31-bit (runs of 16 and 4), and beyond word size.
    fn selection_primes() -> Vec<(u64, &'static str)> {
        let mut primes: Vec<(u64, &str)> = [28u32, 29, 30, 31]
            .iter()
            .map(|&bits| (generate_ntt_primes(1, bits, 1 << 8)[0], "narrow"))
            .collect();
        primes.push(((1 << 31) - 1, "narrow"));
        primes.push(((1 << 31) + 11, "simd4"));
        primes.push(((1 << 32) - 5, "simd4"));
        primes
    }

    #[test]
    fn matches_barrett_across_shapes() {
        let q = generate_ntt_primes(1, 28, 1 << 8)[0];
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 3, 9),
            (13, 16, 17),
            (64, 16, 16),
            (3, 60, 40),
            (7, 1, 12),
        ] {
            check_all_entry_points(q, (m, k, n), &fill(m, k, q, 11), &fill(k, n, q, 23));
        }
    }

    #[test]
    fn tile_is_selected_by_prime_width_and_every_tile_agrees() {
        for (q, label) in selection_primes() {
            assert_eq!(MontOperand::new(q, &[], 0, 0).kernel().label(), label);
            // Inner dimensions around the 29-, 30- and 31-bit spill
            // points, with edge rows and an edge panel, random and
            // saturated.
            for &(m, k, n) in &[
                (5usize, 4usize, 9usize),
                (9, 17, 8),
                (6, 65, 11),
                (4, 257, 8),
            ] {
                check_all_entry_points(q, (m, k, n), &fill(m, k, q, 5), &fill(k, n, q, 7));
                check_all_entry_points(q, (m, k, n), &vec![q - 1; m * k], &vec![q - 1; k * n]);
            }
        }
    }

    #[test]
    fn saturated_entries_do_not_overflow() {
        // Worst case: every entry q−1, deep inner dimension.
        let q = (1u64 << 32) - 5; // odd, < 2^32
        let (m, k, n) = (5usize, 256usize, 9usize);
        let a = vec![q - 1; m * k];
        let b = vec![q - 1; k * n];
        let want = barrett_gemm(&a, m, k, &b, n, q);
        let bm = MontOperand::new(q, &b, k, n);
        let mut got = vec![0u64; m * n];
        gemm_rm(&a, m, &bm, &mut got);
        assert_eq!(got, want);
    }

    /// `C = W2 × ((Aᵀ-view × W1) ⊙ T)` through the layout hooks — a
    /// column-major left operand, an epilogue that multiplies by
    /// Montgomery-form constants and stores the tiles as the next
    /// product's panels, a product over those panels — against the plain
    /// schoolbook chain.
    fn fused_chain_matches_schoolbook(q: u64, d1: usize, d2: usize, a: &[u64], w: [&[u64]; 3]) {
        let md = Modulus::new(q);
        let [w1, tw, w2] = w;
        // a is column-major d1×d2: A[r][c] = a[r + d1·c].
        let a_rows: Vec<u64> = (0..d1 * d2).map(|i| a[i / d2 + d1 * (i % d2)]).collect();
        let mut u = barrett_gemm(&a_rows, d1, d2, w1, d2, q);
        for (x, &t) in u.iter_mut().zip(tw) {
            *x = md.mul(*x, t);
        }
        let want = barrett_gemm(w2, d1, d1, &u, d2, q);

        let w1 = MontOperand::new_packed(q, w1, d2, d2);
        let w2 = MontOperand::new(q, w2, d1, d1);
        let mont = *w1.montgomery();
        let tw: Vec<u64> = tw.iter().map(|&t| mont.to_mont(t)).collect();
        let mut panels = vec![0u64; packed_len(d1, d2)];
        let view = Strided {
            data: a,
            row_stride: 1,
            k_stride: d1,
        };
        gemm_rm_fused(view, d1, &w1, |t| {
            for ii in 0..t.rows {
                for jj in 0..t.cols {
                    let (r, c) = (t.row0 + ii, t.col0 + jj);
                    panels[panel_index(d1, r, c)] = mont.mul(t.vals[ii * NR + jj], tw[r * d2 + c]);
                }
            }
        });
        let mut got = vec![0u64; d1 * d2];
        gemm_lm_fused(&w2, &panels, d2, |t| t.store_row_major(&mut got, d2));
        assert_eq!(got, want, "fused chain d1={d1} d2={d2} q={q}");
    }

    #[test]
    fn layout_hooks_match_schoolbook() {
        // Full tiles, edge rows (d1 mod MR ≠ 0) and edge panels (d2 mod NR
        // ≠ 0), a strided left operand and pre-laid panels, under the
        // narrow tile (with and without spills) and the limb split.
        for (q, _) in selection_primes() {
            for &(d1, d2) in &[(16usize, 8usize), (8, 16), (2, 2), (4, 2), (6, 11), (13, 5)] {
                let a = fill(d1, d2, q, 31);
                let (w1, tw, w2) = (
                    fill(d2, d2, q, 37),
                    fill(d1, d2, q, 41),
                    fill(d1, d1, q, 43),
                );
                fused_chain_matches_schoolbook(q, d1, d2, &a, [&w1, &tw, &w2]);
            }
        }
    }

    #[test]
    fn saturated_entries_survive_the_fused_epilogue() {
        // Every value q−1 at the widest supported modulus, through the
        // lazy accumulation *and* the epilogue's extra REDC.
        let q = (1u64 << 32) - 5;
        let (d1, d2) = (12usize, 256usize);
        let sat = |len: usize| vec![q - 1; len];
        fused_chain_matches_schoolbook(
            q,
            d1,
            d2,
            &sat(d1 * d2),
            [&sat(d2 * d2), &sat(d1 * d2), &sat(d1 * d1)],
        );
    }

    #[test]
    #[should_panic(expected = "right-hand only")]
    fn packed_operand_rejected_on_the_left() {
        let q = generate_ntt_primes(1, 28, 1 << 6)[0];
        let a = MontOperand::new_packed(q, &[1, 2, 3, 4], 2, 2);
        let mut out = [0u64; 4];
        gemm_lm(&a, &[1, 0, 0, 1], 2, &mut out);
    }

    #[test]
    #[should_panic(expected = "inner dimension too large")]
    fn oversized_dimension_rejected_at_construction() {
        // The check the tiles used to repeat per call: k < 2^32.
        let _ = MontOperand::new(97, &[], 1 << 32, 0);
    }

    #[test]
    fn empty_dims_are_noops() {
        let q = generate_ntt_primes(1, 28, 1 << 6)[0];
        let bm = MontOperand::new(q, &[], 0, 4);
        let mut out: Vec<u64> = Vec::new();
        gemm_rm(&[], 0, &bm, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "q < 2^32")]
    fn wide_modulus_rejected() {
        let _ = MontOperand::new((1 << 61) - 1, &[0, 0], 1, 2);
    }

    #[test]
    #[should_panic(expected = "not reduced")]
    fn unreduced_entries_rejected() {
        let q = generate_ntt_primes(1, 28, 1 << 6)[0];
        let _ = MontOperand::new(q, &[q], 1, 1);
    }
}
