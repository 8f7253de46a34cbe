//! Butterfly negacyclic NTT (the paper's "TensorFHE-NT" baseline).
//!
//! Forward uses Cooley–Tukey (CT) butterflies with the `ψ` powers merged into
//! the twiddle table (Longa–Naehrig style), inverse uses Gentleman–Sande
//! (GS) butterflies — exactly the two butterfly flavours of Fig. 2. The raw
//! CT pass produces bit-reversed output; the public [`NttOps`] interface
//! hides this behind a final permutation so every variant in this crate
//! agrees on natural ordering (a cache-blocked
//! [`bit_reverse_permute`], which pays neither a bit reversal nor a branch
//! per element).
//!
//! # Two kernels, one per table
//!
//! A table holds exactly one twiddle representation, chosen in
//! [`NttTable::with_root`] from the modulus alone:
//!
//! * **word-size** — `q < 2^31` ([`Modulus::is_word_size`]; every CKKS
//!   prime) and `N ≥ 4`. Twiddles are 32-bit Shoup pairs
//!   `(w, ⌊w·2^32/q⌋)` packed into one `u64` (8 bytes a twiddle), and the
//!   butterflies are Harvey's lazy ones on values in `[0, 2q) < 2^32` held
//!   in `u64` lanes: three 32×32→64 multiplies, a shift and two
//!   `min`-style conditional subtractions each, no `u128`. The stages whose
//!   half-blocks have four or more elements run **two at a time**, as
//!   radix-4 sweeps: a block of `4h` elements is split (`split_at_mut`)
//!   into four quarters, and one four-lane group of all four quarters is
//!   loaded, put through both stages' butterflies (the outer stage pairs
//!   quarters `(a, c)` and `(b, d)`, the inner one `(a, b)` and `(c, d)`)
//!   and stored as a unit. Each element is therefore loaded and stored once
//!   per two stages instead of once per stage, the loop compiles to packed
//!   code with no run-time aliasing check to fail, and the arithmetic is
//!   the radix-2 stages' own, butterfly for butterfly. When `log N` is odd
//!   one such stage is left over and runs alone (the first one in both
//!   directions); the two stages where the twiddle changes with every pair
//!   (`t = 2, 1`) share one register-blocked kernel over four elements.
//! * **wide** — any other modulus up to `2^62`: 64-bit Shoup twiddles
//!   ([`ShoupMul`]) and fully reduced `u128` butterflies. It is the only
//!   kernel for those inputs and the differential reference for the
//!   word-size one.
//!
//! Both run the same radix-2 stage structure ([`NttTable::stages`], what
//! the GPU cost model replays) and return canonical residues, so they are
//! bit-identical wherever both apply.
//!
//! # The lazy-range invariant (word-size kernel)
//!
//! Every stage takes values in `[0, 2q)` and leaves values in `[0, 2q)`;
//! inputs in `[0, q)` satisfy it trivially. With `T = w·Y − ⌊w′·Y/2^32⌋·q`
//! the lazy Shoup product, `T ∈ [0, 2q)` for any `Y < 2^32`
//! ([`Modulus::mul_shoup32_lazy`]):
//!
//! * **CT** `(X, Y) → (X + T, X − T)`: `X + T` and `X − T + 2q` lie in
//!   `[0, 4q)` (below `2^33`, no lane overflow), and one conditional
//!   subtraction of `2q` each returns them to `[0, 2q)`. The last stage
//!   subtracts `q` once more, so the forward transform ends in `[0, q)`
//!   without a correction pass.
//! * **GS** `(X, Y) → (X + Y, (X − Y)·w)`: the sum is handled the same
//!   way. The difference `X − Y + 2q` lies in `(0, 4q)`, and for a 31-bit
//!   prime `4q` exceeds `2^32` — outside the lazy product's domain — so it
//!   is brought back to `[0, 2q)` *before* the multiplication, whose result
//!   is again in `[0, 2q)`. (For `q < 2^30` the pre-subtraction could be
//!   skipped; one code path serves every admitted width.)
//! * **The last GS stage, with `N^{-1}` folded in.** The inverse's last
//!   stage is one block under one twiddle `w`, so it computes
//!   `((X + Y)·n⁻¹, (X − Y)·(w·n⁻¹))` and there is no separate scaling
//!   sweep. Sum and difference are brought back to `[0, 2q)` exactly as
//!   in GS (so both are below `2^32`, the lazy product's domain), the
//!   product by `n⁻¹` or by `w·n⁻¹` (a Shoup pair derived from the
//!   table's `n⁻¹` and `w` once per call) lands in `[0, 2q)`, and one
//!   subtraction of `q` gives `[0, q)`. Both are the canonical residues
//!   the separate sweep produced, since `((X − Y)·w)·n⁻¹ ≡ (X −
//!   Y)·(w·n⁻¹)`: the bits do not change. The fold sits wherever the last
//!   stage runs — the second stage of the last radix-4 sweep, the leftover
//!   single stage at `N = 8`, or the register tail at `N = 4`.
//!
//! No lazy value ever reaches [`Modulus::add`]/[`Modulus::sub`], whose
//! reduced-operand contract (`debug_assert!`) only the wide kernel uses.

use crate::NttOps;
use tensorfhe_math::bitrev::{bit_reverse_permute, reverse_bits};
use tensorfhe_math::prime::root_of_unity;
use tensorfhe_math::{Modulus, ShoupMul};

/// Pre-computed twiddle tables for one `(N, q)` pair.
///
/// Tables are built once per CKKS instance and shared by every NTT call —
/// the "data reuse" property §IV-B credits to the matrix formulation holds
/// for the butterfly tables as well.
#[derive(Debug, Clone)]
pub struct NttTable {
    n: usize,
    q: Modulus,
    /// ψ, the primitive 2N-th root of unity.
    psi: u64,
    twiddles: Twiddles,
}

/// The twiddle tables in the one representation the table's kernel reads:
/// `fwd[i] = ψ^{brv(i)}` (CT forward), `inv[i] = ψ^{-brv(i)}` (GS inverse)
/// and `N^{-1} mod q`.
#[derive(Debug, Clone)]
enum Twiddles {
    Word {
        fwd: Vec<Shoup32>,
        inv: Vec<Shoup32>,
        n_inv: Shoup32,
    },
    Wide {
        fwd: Vec<ShoupMul>,
        inv: Vec<ShoupMul>,
        n_inv: ShoupMul,
    },
}

/// A 32-bit Shoup pair packed as `w | ⌊w·2^32/q⌋ << 32`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Shoup32(pub(crate) u64);

impl Shoup32 {
    pub(crate) fn new(w: u64, m: &Modulus) -> Self {
        Self(w | m.shoup32(w) << 32)
    }

    /// The lazy product `w·x` in `[0, 2q)`, for any `x < 2^32`.
    #[inline(always)]
    pub(crate) fn mul_lazy(self, x: u64, m: &Modulus) -> u64 {
        m.mul_shoup32_lazy(self.0 & LO32, self.0 >> 32, x)
    }
}

const LO32: u64 = 0xFFFF_FFFF;

/// `min(r, r − m)` in wrapping arithmetic: `r − m` if `r ≥ m`, else `r`.
#[inline(always)]
pub(crate) fn csub(r: u64, m: u64) -> u64 {
    r.min(r.wrapping_sub(m))
}

/// Lazy CT butterfly `(x, y) → (x + w·y, x − w·y)`, `[0, 2q)` in and out.
#[inline(always)]
fn ct_lazy(x: &mut u64, y: &mut u64, w: Shoup32, m: &Modulus) {
    let two_q = 2 * m.value();
    debug_assert!(*x < two_q && *y < two_q, "lazy range is [0, 2q)");
    let (u, v) = (*x, w.mul_lazy(*y, m));
    *x = csub(u + v, two_q);
    *y = csub(u + two_q - v, two_q);
}

/// Lazy GS butterfly `(x, y) → (x + y, (x − y)·w)`, `[0, 2q)` in and out.
#[inline(always)]
fn gs_lazy(x: &mut u64, y: &mut u64, w: Shoup32, m: &Modulus) {
    let two_q = 2 * m.value();
    debug_assert!(*x < two_q && *y < two_q, "lazy range is [0, 2q)");
    let (u, v) = (*x, *y);
    *x = csub(u + v, two_q);
    *y = w.mul_lazy(csub(u + two_q - v, two_q), m);
}

/// `base^r` for `r < n`, stored at index `brv(r)`: one modular multiply per
/// entry instead of one exponentiation.
fn bitrev_powers(m: &Modulus, base: u64, n: usize) -> Vec<u64> {
    let bits = n.trailing_zeros();
    let mut table = vec![0u64; n];
    let mut power = 1u64;
    for r in 0..n {
        table[reverse_bits(r, bits)] = power;
        power = m.mul(power, base);
    }
    table
}

impl NttTable {
    /// Builds the tables for degree `n` (a power of two) and prime `q` with
    /// `q ≡ 1 (mod 2n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or `q` lacks a `2n`-th root.
    #[must_use]
    pub fn new(n: usize, q: u64) -> Self {
        assert!(n.is_power_of_two(), "degree must be a power of two");
        let m = Modulus::new(q);
        let psi = root_of_unity(&m, 2 * n as u64);
        Self::with_root(n, q, psi)
    }

    /// Builds the tables with an explicit `2n`-th root (used by tests that
    /// need a fixed root across variants).
    ///
    /// # Panics
    ///
    /// Panics if `psi` is not a primitive `2n`-th root of unity mod `q`.
    #[must_use]
    pub fn with_root(n: usize, q: u64, psi: u64) -> Self {
        let word = Modulus::new(q).is_word_size() && n >= 4;
        Self::with_kernel(n, q, psi, word)
    }

    /// [`NttTable::with_root`] with the kernel named: `word` selects the
    /// word-size kernel (which needs `q < 2^31` and `n ≥ 4`), otherwise
    /// the wide one. Tests use it to run both kernels on one prime.
    fn with_kernel(n: usize, q: u64, psi: u64, word: bool) -> Self {
        let m = Modulus::new(q);
        assert_eq!(m.pow(psi, 2 * n as u64), 1, "psi^2N must be 1");
        assert_eq!(
            m.pow(psi, n as u64),
            q - 1,
            "psi must be primitive (ψ^N = -1)"
        );
        let fwd = bitrev_powers(&m, psi, n);
        let inv = bitrev_powers(&m, m.inv(psi), n);
        let n_inv = m.inv(n as u64);
        let twiddles = if word {
            let pack = |t: Vec<u64>| t.into_iter().map(|w| Shoup32::new(w, &m)).collect();
            Twiddles::Word {
                fwd: pack(fwd),
                inv: pack(inv),
                n_inv: Shoup32::new(n_inv, &m),
            }
        } else {
            let pack = |t: Vec<u64>| t.into_iter().map(|w| ShoupMul::new(w, &m)).collect();
            Twiddles::Wide {
                fwd: pack(fwd),
                inv: pack(inv),
                n_inv: ShoupMul::new(n_inv, &m),
            }
        };
        Self {
            n,
            q: m,
            psi,
            twiddles,
        }
    }

    /// The primitive 2N-th root of unity ψ used by this table.
    #[must_use]
    pub fn psi(&self) -> u64 {
        self.psi
    }

    /// Underlying modulus handle.
    #[must_use]
    pub fn modulus_handle(&self) -> &Modulus {
        &self.q
    }

    /// Number of butterfly stages (`log2 N`), the quantity that drives the
    /// RAW-dependency chain measured in Fig. 4.
    #[must_use]
    pub fn stages(&self) -> u32 {
        self.n.trailing_zeros()
    }

    /// CT forward pass: natural-order input → bit-reversed output.
    ///
    /// Exposed because the GPU cost model replays the exact stage structure.
    pub fn forward_bitrev(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length mismatch");
        match &self.twiddles {
            Twiddles::Word { fwd, .. } => forward_word(a, fwd, &self.q),
            Twiddles::Wide { fwd, .. } => forward_wide(a, fwd, &self.q),
        }
    }

    /// GS inverse pass: bit-reversed input → natural-order output, including
    /// the final `N^{-1}` scaling.
    pub fn inverse_from_bitrev(&self, a: &mut [u64]) {
        assert_eq!(a.len(), self.n, "input length mismatch");
        match &self.twiddles {
            Twiddles::Word { inv, n_inv, .. } => inverse_word(a, inv, *n_inv, &self.q),
            Twiddles::Wide { inv, n_inv, .. } => inverse_wide(a, inv, n_inv, &self.q),
        }
    }
}

/// Lanes per register group of the vectorised stages.
const LANES: usize = 4;

/// One lane group of a radix-4 sweep: the same `LANES` positions of the
/// block's four quarters `[a, b, c, d]`, held in registers.
type Quad = [[u64; LANES]; 4];

/// One butterfly stage with half-block length `t ≥ LANES`: block `i` of
/// `2t` elements pairs its halves under twiddle `tw[i]`.
#[inline(always)]
fn lazy_stage(
    a: &mut [u64],
    t: usize,
    tw: &[Shoup32],
    m: &Modulus,
    butterfly: impl Fn(&mut u64, &mut u64, Shoup32, &Modulus),
) {
    for (block, &w) in a.chunks_exact_mut(2 * t).zip(tw) {
        let (lo, hi) = block.split_at_mut(t);
        for (lo, hi) in lo.chunks_exact_mut(LANES).zip(hi.chunks_exact_mut(LANES)) {
            let mut x: [u64; LANES] = (&*lo).try_into().expect("lane group");
            let mut y: [u64; LANES] = (&*hi).try_into().expect("lane group");
            for (x, y) in x.iter_mut().zip(&mut y) {
                butterfly(x, y, w, m);
            }
            lo.copy_from_slice(&x);
            hi.copy_from_slice(&y);
        }
    }
}

/// Two stages in one sweep: every block `i` of `4h` elements (`h ≥ LANES`)
/// splits into four quarters, and `quad` runs both stages on one lane group
/// of all four — loaded, transformed and stored as a unit — under the
/// block's outer twiddle `outer[i]` (the stage with half-blocks of `2h`)
/// and its inner pair `inner[2i], inner[2i + 1]` (half-blocks of `h`).
#[inline(always)]
fn radix4_sweep(
    a: &mut [u64],
    h: usize,
    outer: &[Shoup32],
    inner: &[Shoup32],
    quad: impl Fn(&mut Quad, Shoup32, [Shoup32; 2]),
) {
    let twiddles = outer.iter().zip(inner.chunks_exact(2));
    for (block, (&w, v)) in a.chunks_exact_mut(4 * h).zip(twiddles) {
        let v = [v[0], v[1]];
        let (ab, cd) = block.split_at_mut(2 * h);
        let (qa, qb) = ab.split_at_mut(h);
        let (qc, qd) = cd.split_at_mut(h);
        let groups = qa
            .chunks_exact_mut(LANES)
            .zip(qb.chunks_exact_mut(LANES))
            .zip(qc.chunks_exact_mut(LANES).zip(qd.chunks_exact_mut(LANES)));
        for ((ga, gb), (gc, gd)) in groups {
            let load = |g: &[u64]| -> [u64; LANES] { g.try_into().expect("lane group") };
            let mut x = [load(ga), load(gb), load(gc), load(gd)];
            quad(&mut x, w, v);
            ga.copy_from_slice(&x[0]);
            gb.copy_from_slice(&x[1]);
            gc.copy_from_slice(&x[2]);
            gd.copy_from_slice(&x[3]);
        }
    }
}

/// CT radix-4 on one lane group: the outer stage pairs `(a, c)` and
/// `(b, d)` under `w`, then the inner one `(a, b)` under `v[0]` and
/// `(c, d)` under `v[1]`.
#[inline(always)]
fn ct_quad([a, b, c, d]: &mut Quad, w: Shoup32, v: [Shoup32; 2], m: &Modulus) {
    for l in 0..LANES {
        ct_lazy(&mut a[l], &mut c[l], w, m);
        ct_lazy(&mut b[l], &mut d[l], w, m);
        ct_lazy(&mut a[l], &mut b[l], v[0], m);
        ct_lazy(&mut c[l], &mut d[l], v[1], m);
    }
}

/// GS radix-4 on one lane group, mirrored: the inner stage `(a, b)` under
/// `v[0]` and `(c, d)` under `v[1]`, then the outer one `(a, c)` and
/// `(b, d)` under `w` through `outer` ([`gs_lazy`], or the folded last
/// stage).
#[inline(always)]
fn gs_quad(
    [a, b, c, d]: &mut Quad,
    w: Shoup32,
    v: [Shoup32; 2],
    m: &Modulus,
    outer: impl Fn(&mut u64, &mut u64, Shoup32, &Modulus),
) {
    for l in 0..LANES {
        gs_lazy(&mut a[l], &mut b[l], v[0], m);
        gs_lazy(&mut c[l], &mut d[l], v[1], m);
        outer(&mut a[l], &mut c[l], w, m);
        outer(&mut b[l], &mut d[l], w, m);
    }
}

/// Word-size CT forward pass: reduced natural-order input → reduced
/// bit-reversed output (`N ≥ 4`).
fn forward_word(a: &mut [u64], tw: &[Shoup32], m: &Modulus) {
    let n = a.len();
    // The stages t = N/2 … LANES two at a time; an odd count (odd log N)
    // runs its first stage alone.
    let (mut t, mut groups) = (n / 2, 1usize);
    if t >= LANES && n.trailing_zeros() % 2 == 1 {
        lazy_stage(a, t, &tw[groups..2 * groups], m, ct_lazy);
        groups <<= 1;
        t >>= 1;
    }
    while t > LANES {
        let (outer, inner) = (&tw[groups..2 * groups], &tw[2 * groups..4 * groups]);
        radix4_sweep(a, t / 2, outer, inner, |x, w, v| ct_quad(x, w, v, m));
        groups <<= 2;
        t >>= 2;
    }
    // Stages t = 2 and t = 1 on four elements in registers: one twiddle
    // for the first, two for the second, then the fix to [0, q).
    let q = m.value();
    let quads = a.chunks_exact_mut(4);
    let twiddles = tw[n / 4..n / 2].iter().zip(tw[n / 2..].chunks_exact(2));
    for (quad, (&w2, w1)) in quads.zip(twiddles) {
        let [mut a0, mut a1, mut a2, mut a3] = [quad[0], quad[1], quad[2], quad[3]];
        ct_lazy(&mut a0, &mut a2, w2, m);
        ct_lazy(&mut a1, &mut a3, w2, m);
        ct_lazy(&mut a0, &mut a1, w1[0], m);
        ct_lazy(&mut a2, &mut a3, w1[1], m);
        quad.copy_from_slice(&[csub(a0, q), csub(a1, q), csub(a2, q), csub(a3, q)]);
    }
}

/// The inverse's last GS butterfly with `N^{-1}` folded in:
/// `(x, y) → ((x + y)·n⁻¹, (x − y)·(w·n⁻¹))`, `[0, 2q)` in, `[0, q)` out.
#[inline(always)]
fn gs_last(x: &mut u64, y: &mut u64, n_inv: Shoup32, w_n_inv: Shoup32, m: &Modulus) {
    let (q, two_q) = (m.value(), 2 * m.value());
    debug_assert!(*x < two_q && *y < two_q, "lazy range is [0, 2q)");
    let (u, v) = (*x, *y);
    *x = csub(n_inv.mul_lazy(csub(u + v, two_q), m), q);
    *y = csub(w_n_inv.mul_lazy(csub(u + two_q - v, two_q), m), q);
}

/// Stages t = 1 and t = 2 of the GS inverse on four elements in registers,
/// the second through `outer`.
#[inline(always)]
fn inverse_tail(
    a: &mut [u64],
    tw: &[Shoup32],
    m: &Modulus,
    outer: impl Fn(&mut u64, &mut u64, Shoup32, &Modulus),
) {
    let n = a.len();
    let quads = a.chunks_exact_mut(4);
    let twiddles = tw[n / 2..].chunks_exact(2).zip(&tw[n / 4..n / 2]);
    for (quad, (w1, &w2)) in quads.zip(twiddles) {
        let [mut a0, mut a1, mut a2, mut a3] = [quad[0], quad[1], quad[2], quad[3]];
        gs_lazy(&mut a0, &mut a1, w1[0], m);
        gs_lazy(&mut a2, &mut a3, w1[1], m);
        outer(&mut a0, &mut a2, w2, m);
        outer(&mut a1, &mut a3, w2, m);
        quad.copy_from_slice(&[a0, a1, a2, a3]);
    }
}

/// Word-size GS inverse pass: reduced bit-reversed input → reduced
/// natural-order output, `N^{-1}` folded into the last stage (`N ≥ 4`).
fn inverse_word(a: &mut [u64], tw: &[Shoup32], n_inv: Shoup32, m: &Modulus) {
    let n = a.len();
    // The last stage is one block under `tw[1]`: its butterfly scales the
    // sum by n⁻¹ and the difference by w·n⁻¹ (module docs), and ignores
    // the twiddle the stage hands it.
    let w_n_inv = Shoup32::new(m.mul(tw[1].0 & LO32, n_inv.0 & LO32), m);
    let last = |x: &mut u64, y: &mut u64, _: Shoup32, m: &Modulus| gs_last(x, y, n_inv, w_n_inv, m);
    if n == 4 {
        inverse_tail(a, tw, m, last);
        return;
    }
    inverse_tail(a, tw, m, gs_lazy);
    // The stages t = LANES … N/2 two at a time; an odd count runs its
    // first stage alone. `groups` counts the blocks of the next stage.
    let (mut t, mut groups) = (LANES, n / (2 * LANES));
    if n.trailing_zeros() % 2 == 1 {
        let tw = &tw[groups..2 * groups];
        if groups == 1 {
            lazy_stage(a, t, tw, m, last);
        } else {
            lazy_stage(a, t, tw, m, gs_lazy);
        }
        groups >>= 1;
        t <<= 1;
    }
    while groups > 1 {
        let (outer, inner) = (&tw[groups / 2..groups], &tw[groups..2 * groups]);
        if groups == 2 {
            radix4_sweep(a, t, outer, inner, |x, w, v| gs_quad(x, w, v, m, last));
        } else {
            radix4_sweep(a, t, outer, inner, |x, w, v| gs_quad(x, w, v, m, gs_lazy));
        }
        groups >>= 2;
        t <<= 2;
    }
}

/// Wide CT forward pass: fully reduced 64-bit Shoup butterflies.
fn forward_wide(a: &mut [u64], tw: &[ShoupMul], q: &Modulus) {
    let n = a.len();
    let mut t = n;
    let mut m = 1usize;
    while m < n {
        t >>= 1;
        for i in 0..m {
            let w = &tw[m + i];
            let j1 = 2 * i * t;
            for j in j1..j1 + t {
                // CT butterfly: (u, v) -> (u + w·v, u - w·v)
                let u = a[j];
                let v = w.mul(a[j + t], q);
                a[j] = q.add(u, v);
                a[j + t] = q.sub(u, v);
            }
        }
        m <<= 1;
    }
}

/// Wide GS inverse pass, `N^{-1}` included.
fn inverse_wide(a: &mut [u64], tw: &[ShoupMul], n_inv: &ShoupMul, q: &Modulus) {
    let n = a.len();
    let mut t = 1usize;
    let mut m = n;
    while m > 1 {
        let h = m / 2;
        let mut j1 = 0usize;
        for i in 0..h {
            let w = &tw[h + i];
            for j in j1..j1 + t {
                // GS butterfly: (u, v) -> (u + v, (u - v)·w)
                let u = a[j];
                let v = a[j + t];
                a[j] = q.add(u, v);
                a[j + t] = w.mul(q.sub(u, v), q);
            }
            j1 += 2 * t;
        }
        t <<= 1;
        m = h;
    }
    for x in a.iter_mut() {
        *x = n_inv.mul(*x, q);
    }
}

impl NttOps for NttTable {
    fn degree(&self) -> usize {
        self.n
    }

    fn modulus(&self) -> u64 {
        self.q.value()
    }

    fn forward(&self, a: &mut [u64]) {
        self.forward_bitrev(a);
        bit_reverse_permute(a);
    }

    fn inverse(&self, a: &mut [u64]) {
        bit_reverse_permute(a);
        self.inverse_from_bitrev(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::NaiveNtt;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tensorfhe_math::prime::generate_ntt_primes;

    fn random_poly(rng: &mut StdRng, n: usize, q: u64) -> Vec<u64> {
        (0..n).map(|_| rng.gen_range(0..q)).collect()
    }

    #[test]
    fn roundtrip_various_sizes() {
        let mut rng = StdRng::seed_from_u64(7);
        for log_n in 2u32..=13 {
            let n = 1usize << log_n;
            let q = generate_ntt_primes(1, 30, n as u64)[0];
            let t = NttTable::new(n, q);
            let a = random_poly(&mut rng, n, q);
            let mut b = a.clone();
            t.forward(&mut b);
            assert_ne!(a, b, "transform should not be identity");
            t.inverse(&mut b);
            assert_eq!(a, b, "roundtrip failed for N={n}");
        }
    }

    #[test]
    fn matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in (3..=9).map(|log_n| 1usize << log_n) {
            let q = generate_ntt_primes(1, 28, n as u64)[0];
            let t = NttTable::new(n, q);
            let naive = NaiveNtt::with_root(n, q, t.psi());
            for a in probe_inputs(&mut rng, n, q) {
                let mut fast = a.clone();
                t.forward(&mut fast);
                let mut reference = a.clone();
                naive.forward(&mut reference);
                assert_eq!(fast, reference, "butterfly != naive at N={n}");
            }
        }
    }

    #[test]
    fn large_prime_support() {
        // 59-bit prime exercises the full Barrett width on the butterfly path.
        let n = 256;
        let q = generate_ntt_primes(1, 59, n as u64)[0];
        let t = NttTable::new(n, q);
        let mut rng = StdRng::seed_from_u64(9);
        let a = random_poly(&mut rng, n, q);
        let mut b = a.clone();
        t.forward(&mut b);
        t.inverse(&mut b);
        assert_eq!(a, b);
    }

    fn is_word(t: &NttTable) -> bool {
        matches!(t.twiddles, Twiddles::Word { .. })
    }

    /// All-zero, all-`q−1`, a single spike and a random vector.
    fn probe_inputs(rng: &mut StdRng, n: usize, q: u64) -> Vec<Vec<u64>> {
        let mut spike = vec![0u64; n];
        spike[n / 3] = q - 1;
        vec![vec![0; n], vec![q - 1; n], spike, random_poly(rng, n, q)]
    }

    /// Word-size kernel ≡ wide kernel (same prime, same root) ≡ naive
    /// matrix form, forward and back.
    fn check_word_against_wide(n: usize, bits: u32, naive: bool, rng: &mut StdRng) {
        let q = generate_ntt_primes(1, bits, n as u64)[0];
        let word = NttTable::new(n, q);
        assert!(
            is_word(&word),
            "{bits}-bit prime at N={n} must select the word-size kernel"
        );
        let wide = NttTable::with_kernel(n, q, word.psi(), false);
        assert!(!is_word(&wide));
        let reference = naive.then(|| NaiveNtt::with_root(n, q, word.psi()));
        for input in probe_inputs(rng, n, q) {
            let (mut a, mut b) = (input.clone(), input.clone());
            word.forward(&mut a);
            wide.forward(&mut b);
            assert_eq!(a, b, "forward word != wide at N={n}, {bits} bits");
            if let Some(naive) = &reference {
                let mut c = input.clone();
                naive.forward(&mut c);
                assert_eq!(a, c, "forward word != naive at N={n}, {bits} bits");
            }
            word.inverse(&mut a);
            wide.inverse(&mut b);
            assert_eq!(a, b, "inverse word != wide at N={n}, {bits} bits");
            assert_eq!(a, input, "roundtrip at N={n}, {bits} bits");
        }
    }

    #[test]
    fn word_kernel_matches_wide_and_naive_at_every_admitted_width() {
        let mut rng = StdRng::seed_from_u64(31);
        // Every CKKS width, 31 included (the largest NTT prime below 2^31:
        // 4q exceeds 2^32 there, the GS pre-subtraction's case), at odd and
        // even stage counts: the leftover single stage and the radix-4
        // sweeps both run, and so does the folded last stage in each of its
        // three places (register tail at N = 4, single stage at N = 8,
        // radix-4 sweep from N = 16).
        for bits in 20..=31 {
            for log_n in 2u32..=10 {
                check_word_against_wide(1 << log_n, bits, true, &mut rng);
            }
            for log_n in [11u32, 12] {
                check_word_against_wide(1 << log_n, bits, false, &mut rng);
            }
        }
        for bits in [24, 28, 31] {
            for log_n in 13u32..=16 {
                check_word_against_wide(1 << log_n, bits, false, &mut rng);
            }
        }
    }

    #[test]
    fn wide_moduli_and_tiny_degrees_keep_the_wide_kernel() {
        let mut rng = StdRng::seed_from_u64(32);
        // Just above 2^31, and the 59-bit case.
        for (n, bits) in [(64usize, 32u32), (1 << 10, 32), (256, 59)] {
            let q = generate_ntt_primes(1, bits, n as u64)[0];
            assert!(q > 1 << 31);
            let t = NttTable::new(n, q);
            assert!(
                !is_word(&t),
                "{bits}-bit prime must stay on the wide kernel"
            );
            let naive = NaiveNtt::with_root(n, q, t.psi());
            for input in probe_inputs(&mut rng, n, q) {
                let (mut a, mut c) = (input.clone(), input.clone());
                t.forward(&mut a);
                naive.forward(&mut c);
                assert_eq!(a, c, "wide != naive at N={n}, {bits} bits");
                t.inverse(&mut a);
                assert_eq!(a, input);
            }
        }
        // The quad kernel needs N ≥ 4.
        assert!(!is_word(&NttTable::new(2, 7681)));
    }

    /// In debug builds every butterfly checks its operands against the
    /// lazy range and `Modulus::add`/`sub` check theirs against `[0, q)`:
    /// saturated inputs at a 31-bit prime must get through both kernels
    /// without tripping either, i.e. no lazy value leaks into the reduced
    /// contract.
    #[test]
    #[cfg(debug_assertions)]
    fn lazy_values_stay_inside_the_word_kernel() {
        let n = 1 << 9;
        let q = generate_ntt_primes(1, 31, n as u64)[0];
        let m = Modulus::new(q);
        let t = NttTable::new(n, q);
        assert!(is_word(&t));
        let mut a = vec![q - 1; n];
        t.forward(&mut a);
        assert!(a.iter().all(|&x| x < q), "forward output must be reduced");
        // The outputs feed the reduced-operand API directly.
        let doubled: Vec<u64> = a.iter().map(|&x| m.add(x, x)).collect();
        t.inverse(&mut a);
        assert!(a.iter().all(|&x| x == q - 1));
        let mut d = doubled;
        t.inverse(&mut d);
        assert!(d.iter().all(|&x| x == m.sub(q - 1, 1)), "2·(q−1) = q−2");
    }

    #[test]
    fn twiddle_tables_equal_the_per_entry_powers() {
        // The running-product tables, entry for entry against one
        // exponentiation per entry (the construction they replaced), in
        // both representations.
        for (n, bits) in [(4usize, 20u32), (64, 28), (1 << 10, 31), (256, 59)] {
            let q = generate_ntt_primes(1, bits, n as u64)[0];
            let m = Modulus::new(q);
            let t = NttTable::new(n, q);
            let (psi, psi_inv) = (t.psi(), m.inv(t.psi()));
            let log_n = n.trailing_zeros();
            for i in 0..n {
                let r = reverse_bits(i, log_n) as u64;
                let (f, v) = (m.pow(psi, r), m.pow(psi_inv, r));
                match &t.twiddles {
                    Twiddles::Word { fwd, inv, n_inv } => {
                        assert_eq!(fwd[i].0, f | ((f << 32) / q) << 32);
                        assert_eq!(inv[i].0, v | ((v << 32) / q) << 32);
                        assert_eq!(n_inv.0 & LO32, m.inv(n as u64));
                    }
                    Twiddles::Wide { fwd, inv, n_inv } => {
                        assert_eq!(fwd[i], ShoupMul::new(f, &m));
                        assert_eq!(inv[i], ShoupMul::new(v, &m));
                        assert_eq!(n_inv.w, m.inv(n as u64));
                    }
                }
            }
        }
    }

    #[test]
    fn transform_is_linear() {
        let n = 64;
        let q = generate_ntt_primes(1, 30, n as u64)[0];
        let m = Modulus::new(q);
        let t = NttTable::new(n, q);
        let mut rng = StdRng::seed_from_u64(10);
        let a = random_poly(&mut rng, n, q);
        let b = random_poly(&mut rng, n, q);
        let sum: Vec<u64> = a.iter().zip(&b).map(|(&x, &y)| m.add(x, y)).collect();

        let (mut fa, mut fb, mut fsum) = (a, b, sum);
        t.forward(&mut fa);
        t.forward(&mut fb);
        t.forward(&mut fsum);
        for i in 0..n {
            assert_eq!(fsum[i], m.add(fa[i], fb[i]));
        }
    }

    #[test]
    fn constant_polynomial_transforms_to_constant_vector() {
        // NTT of (c, 0, 0, …) is (c, c, …, c): ψ^0 contribution only.
        let n = 32;
        let q = generate_ntt_primes(1, 30, n as u64)[0];
        let t = NttTable::new(n, q);
        let mut a = vec![0u64; n];
        a[0] = 12345;
        t.forward(&mut a);
        assert!(a.iter().all(|&x| x == 12345));
    }

    #[test]
    fn x_transforms_to_psi_odd_powers() {
        // NTT of X is (ψ^{2k+1})_k in natural order.
        let n = 16;
        let q = generate_ntt_primes(1, 30, n as u64)[0];
        let t = NttTable::new(n, q);
        let m = Modulus::new(q);
        let mut a = vec![0u64; n];
        a[1] = 1;
        t.forward(&mut a);
        for (k, &v) in a.iter().enumerate() {
            assert_eq!(v, m.pow(t.psi(), 2 * k as u64 + 1));
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let n = 16;
        let q = generate_ntt_primes(1, 30, n as u64)[0];
        let t = NttTable::new(n, q);
        let mut a = vec![0u64; n / 2];
        t.forward(&mut a);
    }
}
