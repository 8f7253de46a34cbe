//! Barrett-reduced modular arithmetic over word-sized primes.
//!
//! All TensorFHE residue arithmetic runs in `Z_q` for primes `q < 2^62`.
//! [`Modulus`] caches the Barrett constant `⌊2^128 / q⌋` so multiplication
//! costs two widening multiplies and at most one correction subtraction.
//! [`ShoupMul`] specialises multiplication for a fixed multiplicand (twiddle
//! factors), the trick used by every production NTT.
//!
//! # Word-size moduli (`q < 2^31`)
//!
//! Every CKKS prime is 20–31 bits wide, so residues and their products fit
//! one `u64` and the 128-bit machinery above is pure overhead on the hot
//! loops. A modulus below `2^31` is *word-size* ([`Modulus::is_word_size`],
//! decided once in [`Modulus::new`]) and the slice kernels
//! ([`Modulus::mul_slice`], [`Modulus::mul_acc_slice`],
//! [`Modulus::scale_slice`], [`Modulus::sub_scale_slice`]) then run bodies
//! made only of 32×32→64 multiplies, shifts, adds and unsigned `min`s in
//! `u64` lanes — what the autovectoriser turns into packed `vpmuludq`
//! code. Wider moduli run the per-element [`Modulus::mul`] body. Either way
//! every output is the canonical residue in `[0, q)`, so the two bodies are
//! bit-identical.
//!
//! **Barrett-64.** Let `b` be the bit length of `q` (`2^(b-1) ≤ q < 2^b`,
//! `b ≤ 31`), `μ = ⌊2^(2b) / q⌋` and `z < 2^(2b)` (a product of two
//! residues, plus at most one more residue: `q² + q ≤ 2^(2b)`). The quotient
//! estimate is
//!
//! ```text
//! q̂ = ⌊ ⌊z / 2^(b-1)⌋ · μ / 2^(b+1) ⌋
//! ```
//!
//! Both factors are below `2^32` — `⌊z / 2^(b-1)⌋ < 2^(b+1)` and
//! `μ ≤ 2^(2b) / 2^(b-1) = 2^(b+1)`, with equality only for the power of two
//! `q = 2^30`, which is therefore not word-size — so the product is one
//! 32×32→64 multiply. Writing `z / q − q̂` as the three roundings it is made
//! of,
//!
//! ```text
//! z/q − q̂  <  1  +  z / 2^(2b)  +  2^(b-1) / q  ≤  1 + 1 + 1
//! ```
//!
//! (the outer floor; `μ` short of `2^(2b)/q` by less than one, times
//! `z / 2^(2b)`; the inner floor, times `μ / 2^(b+1) ≤ 2^(b-1)/q`), so
//! `q̂ ≤ ⌊z/q⌋ ≤ q̂ + 2` and `r = z − q̂·q` lies in `[0, 3q)`: two conditional
//! subtractions fix it to `[0, q)`. Three multiplies in all.
//!
//! **Shoup-32.** For a fixed multiplicand `w < q` the companion
//! `w′ = ⌊w·2^32 / q⌋` ([`Modulus::shoup32`]) gives
//! `w·x − ⌊w′·x / 2^32⌋·q ∈ [0, 2q)` for *any* `x < 2^32`
//! ([`Modulus::mul_shoup32_lazy`]): the estimate is short of `w·x/q` by less
//! than `1 + x/2^32 < 2`. The scaling kernels and the butterfly NTT use it.

/// A prime (or odd) modulus together with pre-computed Barrett constants.
///
/// # Examples
///
/// ```
/// use tensorfhe_math::Modulus;
///
/// let m = Modulus::new(0x1000_0000_0600_1u64); // a 52-bit prime-like value
/// assert_eq!(m.add(m.value() - 1, 2), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Modulus {
    q: u64,
    /// High 64 bits of ⌊2^128 / q⌋.
    barrett_hi: u64,
    /// Low 64 bits of ⌊2^128 / q⌋.
    barrett_lo: u64,
    /// Barrett-64 constant `μ = ⌊2^(2b) / q⌋` of a word-size modulus
    /// (see the module docs); `0` marks a modulus on the wide path.
    word_mu: u64,
}

/// 32-bit mask exposing zero high halves to the autovectoriser, which then
/// lowers a `u64` multiply to a packed 32×32→64 one.
pub(crate) const LO32: u64 = 0xFFFF_FFFF;

/// `min(r, r − q)` in wrapping arithmetic: `r − q` if `r ≥ q`, else `r`.
#[inline(always)]
pub(crate) fn csub(r: u64, q: u64) -> u64 {
    r.min(r.wrapping_sub(q))
}

impl Modulus {
    /// Creates a new modulus.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q >= 2^62` (the headroom keeps lazy sums
    /// correctable with a single subtraction).
    #[must_use]
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be >= 2");
        assert!(q < (1u64 << 62), "modulus must be < 2^62");
        // ⌊2^128 / q⌋ via 128-bit long division done in two halves.
        let hi = u128::MAX / q as u128; // = ⌊(2^128 - 1)/q⌋ ; adjust below.
                                        // (2^128 - 1)/q and (2^128)/q differ only when q divides 2^128,
                                        // impossible for q >= 2 unless q is a power of two; handle exactly:
        let (barrett, _rem) = {
            let b = hi;
            let r = u128::MAX - b * q as u128;
            if r + 1 == q as u128 {
                (b + 1, 0u128)
            } else {
                (b, r + 1)
            }
        };
        let bits = 64 - q.leading_zeros();
        let word_mu = if bits <= 31 {
            (1u64 << (2 * bits)) / q
        } else {
            0
        };
        Self {
            q,
            barrett_hi: (barrett >> 64) as u64,
            barrett_lo: barrett as u64,
            // μ = 2^32 only for q = 2^30, which stays on the wide path.
            word_mu: if word_mu <= LO32 { word_mu } else { 0 },
        }
    }

    /// Whether the slice kernels run their word-size bodies: `q < 2^31`
    /// (and not the power of two `2^30`, whose Barrett-64 constant needs 33
    /// bits). Fixed at construction.
    #[inline]
    #[must_use]
    pub fn is_word_size(&self) -> bool {
        self.word_mu != 0
    }

    /// The raw modulus value.
    #[inline]
    #[must_use]
    pub fn value(&self) -> u64 {
        self.q
    }

    /// Number of significant bits in `q`.
    #[inline]
    #[must_use]
    pub fn bits(&self) -> u32 {
        64 - self.q.leading_zeros()
    }

    /// Reduces an arbitrary 64-bit value into `[0, q)`.
    #[inline]
    #[must_use]
    pub fn reduce(&self, a: u64) -> u64 {
        if a < self.q {
            a
        } else {
            a % self.q
        }
    }

    /// Reduces a 128-bit value into `[0, q)` using Barrett reduction.
    #[inline]
    #[must_use]
    pub fn reduce_u128(&self, a: u128) -> u64 {
        // Estimate quotient: ⌊a * barrett / 2^128⌋ where barrett ≈ 2^128/q.
        let a_lo = a as u64;
        let a_hi = (a >> 64) as u64;
        // a * barrett = (a_hi*2^64 + a_lo) * (b_hi*2^64 + b_lo); we need bits >= 128.
        let lo_lo = (a_lo as u128) * (self.barrett_lo as u128);
        let lo_hi = (a_lo as u128) * (self.barrett_hi as u128);
        let hi_lo = (a_hi as u128) * (self.barrett_lo as u128);
        let hi_hi = (a_hi as u128) * (self.barrett_hi as u128);
        let mid = (lo_lo >> 64) + (lo_hi & 0xFFFF_FFFF_FFFF_FFFF) + (hi_lo & 0xFFFF_FFFF_FFFF_FFFF);
        let q_est = hi_hi + (lo_hi >> 64) + (hi_lo >> 64) + (mid >> 64);
        let r = a.wrapping_sub(q_est.wrapping_mul(self.q as u128)) as u64;
        // Barrett quotient may be short by at most 2.
        let r = if r >= self.q { r - self.q } else { r };
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Modular addition of two values already in `[0, q)`.
    #[inline]
    #[must_use]
    pub fn add(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let s = a + b;
        if s >= self.q {
            s - self.q
        } else {
            s
        }
    }

    /// Modular subtraction of two values already in `[0, q)`.
    #[inline]
    #[must_use]
    pub fn sub(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        if a >= b {
            a - b
        } else {
            a + self.q - b
        }
    }

    /// Modular negation of a value already in `[0, q)`.
    #[inline]
    #[must_use]
    pub fn neg(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        if a == 0 {
            0
        } else {
            self.q - a
        }
    }

    /// Modular multiplication via Barrett reduction.
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128)
    }

    /// Fused multiply-add: `(a*b + c) mod q`.
    #[inline]
    #[must_use]
    pub fn mul_add(&self, a: u64, b: u64, c: u64) -> u64 {
        self.reduce_u128(a as u128 * b as u128 + c as u128)
    }

    /// Modular exponentiation by squaring.
    #[must_use]
    pub fn pow(&self, mut base: u64, mut exp: u64) -> u64 {
        base = self.reduce(base);
        let mut acc = 1u64;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse for prime moduli via Fermat's little theorem.
    ///
    /// # Panics
    ///
    /// Panics if `a == 0` (zero has no inverse).
    #[must_use]
    pub fn inv(&self, a: u64) -> u64 {
        assert!(!a.is_multiple_of(self.q), "zero has no modular inverse");
        self.pow(a, self.q - 2)
    }

    /// Maps a signed integer into `[0, q)`.
    #[inline]
    #[must_use]
    pub fn from_i64(&self, a: i64) -> u64 {
        let r = a.rem_euclid(self.q as i64);
        r as u64
    }

    /// Maps a signed 128-bit integer into `[0, q)`.
    #[inline]
    #[must_use]
    pub fn from_i128(&self, a: i128) -> u64 {
        a.rem_euclid(self.q as i128) as u64
    }

    /// Interprets a residue as a centered representative in `(-q/2, q/2]`.
    #[inline]
    #[must_use]
    pub fn to_centered(&self, a: u64) -> i64 {
        debug_assert!(a < self.q);
        if a > self.q / 2 {
            a as i64 - self.q as i64
        } else {
            a as i64
        }
    }

    /// Barrett-64: reduces `z < 2^(2b)` into `[0, q)` (module docs).
    #[inline(always)]
    fn reduce_word(&self, z: u64) -> u64 {
        let bits = self.bits();
        let est = ((z >> (bits - 1)) & LO32) * (self.word_mu & LO32);
        let r = z.wrapping_sub(((est >> (bits + 1)) & LO32) * (self.q & LO32));
        csub(csub(r, self.q), self.q)
    }

    /// The 32-bit Shoup companion `⌊w·2^32 / q⌋` of a fixed multiplicand.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is not word-size or `w ≥ q`.
    #[inline]
    #[must_use]
    pub fn shoup32(&self, w: u64) -> u64 {
        assert!(
            self.is_word_size() && w < self.q,
            "shoup32 needs w < q < 2^31"
        );
        (w << 32) / self.q
    }

    /// Lazy Shoup product: a value in `[0, 2q)` congruent to `w·x`, for a
    /// word-size modulus, `ws = self.shoup32(w)` and **any** `x < 2^32` —
    /// three 32×32→64 multiplies and no correction.
    #[inline(always)]
    #[must_use]
    pub fn mul_shoup32_lazy(&self, w: u64, ws: u64, x: u64) -> u64 {
        debug_assert!(self.is_word_size() && x <= LO32);
        let hi = ((ws & LO32) * (x & LO32)) >> 32;
        ((w & LO32) * (x & LO32)).wrapping_sub(hi * (self.q & LO32))
    }

    /// `a[i] ← a[i]·b[i] mod q` (the Hada-Mult kernel over one limb).
    /// Operands must be reduced.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn mul_slice(&self, a: &mut [u64], b: &[u64]) {
        assert_eq!(a.len(), b.len(), "slice length mismatch");
        if self.is_word_size() {
            for (x, &y) in a.iter_mut().zip(b) {
                debug_assert!(*x < self.q && y < self.q);
                *x = self.reduce_word((*x & LO32) * (y & LO32));
            }
        } else {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = self.mul(*x, y);
            }
        }
    }

    /// `x[i]·y[i] mod q` as a new vector — [`Modulus::mul_slice`] writing
    /// its result once instead of copying an operand and multiplying in
    /// place. Operands must be reduced.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    #[must_use]
    pub fn mul_to_vec(&self, x: &[u64], y: &[u64]) -> Vec<u64> {
        let mut out = Vec::with_capacity(x.len());
        self.mul_extend(&mut out, x, y);
        out
    }

    /// Appends `x[i]·y[i] mod q` to `out` — [`Modulus::mul_to_vec`] into a
    /// vector the caller already holds. Operands must be reduced.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn mul_extend(&self, out: &mut Vec<u64>, x: &[u64], y: &[u64]) {
        assert_eq!(x.len(), y.len(), "slice length mismatch");
        let pairs = x.iter().zip(y);
        if self.is_word_size() {
            out.extend(pairs.map(|(&xv, &yv)| {
                debug_assert!(xv < self.q && yv < self.q);
                self.reduce_word((xv & LO32) * (yv & LO32))
            }));
        } else {
            out.extend(pairs.map(|(&xv, &yv)| self.mul(xv, yv)));
        }
    }

    /// `acc[i] ← acc[i] + x[i]·y[i] mod q` (the key-switch inner product
    /// over one limb). Operands must be reduced.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn mul_acc_slice(&self, acc: &mut [u64], x: &[u64], y: &[u64]) {
        assert_eq!(acc.len(), x.len(), "slice length mismatch");
        assert_eq!(acc.len(), y.len(), "slice length mismatch");
        if self.is_word_size() {
            for ((a, &xv), &yv) in acc.iter_mut().zip(x).zip(y) {
                debug_assert!(*a < self.q && xv < self.q && yv < self.q);
                // q² + q ≤ 2^(2b): one reduction covers the addend too.
                *a = self.reduce_word((xv & LO32) * (yv & LO32) + *a);
            }
        } else {
            for ((a, &xv), &yv) in acc.iter_mut().zip(x).zip(y) {
                *a = self.add(*a, self.mul(xv, yv));
            }
        }
    }

    /// `a[i] ← a[i]·c mod q` for a fixed reduced `c`. On a word-size
    /// modulus any `a[i] < 2^32` is accepted (and reduced on the way).
    pub fn scale_slice(&self, a: &mut [u64], c: u64) {
        if self.is_word_size() {
            let cs = self.shoup32(c);
            for x in a.iter_mut() {
                *x = csub(self.mul_shoup32_lazy(c, cs, *x), self.q);
            }
        } else {
            for x in a.iter_mut() {
                *x = self.mul(self.reduce(*x), c);
            }
        }
    }

    /// `a[i] ← (a[i] − b[i])·c mod q` for a fixed reduced `c` (the
    /// subtract-then-scale tail of `ModDown` and `RESCALE`). Operands must
    /// be reduced.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    pub fn sub_scale_slice(&self, a: &mut [u64], b: &[u64], c: u64) {
        assert_eq!(a.len(), b.len(), "slice length mismatch");
        if self.is_word_size() {
            let cs = self.shoup32(c);
            for (av, &bv) in a.iter_mut().zip(b) {
                debug_assert!(*av < self.q && bv < self.q);
                // a − b + q ∈ (0, 2q) < 2^32 goes into the lazy product as is.
                let d = *av + self.q - bv;
                *av = csub(self.mul_shoup32_lazy(c, cs, d), self.q);
            }
        } else {
            for (av, &bv) in a.iter_mut().zip(b) {
                *av = self.mul(self.sub(*av, bv), c);
            }
        }
    }
}

/// Shoup pre-scaled multiplication by a fixed constant.
///
/// For a constant `w` and modulus `q`, caches `w' = ⌊w·2^64/q⌋`; then
/// `mul(x)` computes `w·x mod q` with one `mulhi`, one `mullo` and one
/// conditional subtraction. This is the standard twiddle-factor fast path in
/// butterfly NTTs.
///
/// # Examples
///
/// ```
/// use tensorfhe_math::{Modulus, ShoupMul};
///
/// let m = Modulus::new((1 << 30) - 35); // 2^30 - 35 is prime
/// let w = ShoupMul::new(123_456_789 % m.value(), &m);
/// assert_eq!(w.mul(987_654_321 % m.value(), &m), m.mul(123_456_789 % m.value(), 987_654_321 % m.value()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShoupMul {
    /// The constant itself, in `[0, q)`.
    pub w: u64,
    /// Pre-scaled constant `⌊w·2^64/q⌋`.
    pub w_shoup: u64,
}

impl ShoupMul {
    /// Pre-computes the Shoup representation of `w` modulo `m`.
    #[inline]
    #[must_use]
    pub fn new(w: u64, m: &Modulus) -> Self {
        debug_assert!(w < m.value());
        let w_shoup = ((w as u128) << 64) / m.value() as u128;
        Self {
            w,
            w_shoup: w_shoup as u64,
        }
    }

    /// Computes `w·x mod q` (result in `[0, q)`).
    #[inline]
    #[must_use]
    pub fn mul(&self, x: u64, m: &Modulus) -> u64 {
        let q = m.value();
        let hi = ((self.w_shoup as u128 * x as u128) >> 64) as u64;
        let r = (self.w as u128 * x as u128 - hi as u128 * q as u128) as u64;
        if r >= q {
            r - q
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P30: u64 = (1 << 30) - 35;
    const P61: u64 = (1 << 61) - 1; // Mersenne prime.

    #[test]
    fn barrett_matches_naive_small() {
        let m = Modulus::new(97);
        for a in 0..97u64 {
            for b in 0..97u64 {
                assert_eq!(m.mul(a, b), a * b % 97);
            }
        }
    }

    #[test]
    fn barrett_matches_naive_large() {
        let m = Modulus::new(P61);
        let cases = [
            (0u64, 0u64),
            (P61 - 1, P61 - 1),
            (123_456_789_012_345, 987_654_321_098_765),
            (1, P61 - 1),
        ];
        for (a, b) in cases {
            assert_eq!(m.mul(a, b), (a as u128 * b as u128 % P61 as u128) as u64);
        }
    }

    #[test]
    fn reduce_u128_extremes() {
        let m = Modulus::new(P30);
        assert_eq!(m.reduce_u128(u128::MAX), (u128::MAX % P30 as u128) as u64);
        assert_eq!(m.reduce_u128(0), 0);
        assert_eq!(m.reduce_u128(P30 as u128), 0);
    }

    #[test]
    fn add_sub_neg_roundtrip() {
        let m = Modulus::new(P30);
        let a = 123_456_789 % P30;
        let b = 987_654_321 % P30;
        assert_eq!(m.sub(m.add(a, b), b), a);
        assert_eq!(m.add(a, m.neg(a)), 0);
        assert_eq!(m.neg(0), 0);
    }

    #[test]
    fn pow_and_inv() {
        let m = Modulus::new(P30);
        assert_eq!(m.pow(2, 10), 1024);
        assert_eq!(m.pow(5, 0), 1);
        let a = 424_242;
        assert_eq!(m.mul(a, m.inv(a)), 1);
    }

    #[test]
    fn signed_conversions() {
        let m = Modulus::new(P30);
        assert_eq!(m.from_i64(-1), P30 - 1);
        assert_eq!(m.from_i64(P30 as i64), 0);
        assert_eq!(m.to_centered(P30 - 1), -1);
        assert_eq!(m.to_centered(1), 1);
        assert_eq!(m.from_i128(-(P30 as i128) - 5), P30 - 5);
    }

    #[test]
    fn shoup_matches_barrett() {
        let m = Modulus::new(P30);
        for w in [0u64, 1, 2, P30 / 2, P30 - 1] {
            let s = ShoupMul::new(w, &m);
            for x in [0u64, 1, 12345, P30 - 1] {
                assert_eq!(s.mul(x, &m), m.mul(w, x), "w={w} x={x}");
            }
        }
    }

    #[test]
    fn word_size_selection_boundaries() {
        assert!(Modulus::new(2).is_word_size());
        assert!(Modulus::new(97).is_word_size());
        assert!(Modulus::new((1 << 31) - 1).is_word_size());
        assert!(!Modulus::new(1 << 31).is_word_size());
        // μ = ⌊2^62 / 2^30⌋ = 2^32 does not fit a 32-bit factor.
        assert!(!Modulus::new(1 << 30).is_word_size());
        assert!(Modulus::new((1 << 30) + 1).is_word_size());
        assert!(!Modulus::new(P61).is_word_size());
    }

    #[test]
    fn barrett64_matches_naive_on_small_and_power_of_two_moduli() {
        // Exhaustive over operands for tiny moduli (the estimate's error
        // bound at its loosest), and the power of two the Galois-element
        // arithmetic uses.
        for q in [2u64, 3, 97, 1 << 14] {
            let m = Modulus::new(q);
            let span = q.min(128);
            for a in (0..span).chain(q - span.min(q)..q) {
                let lhs = vec![a; span as usize];
                let rhs: Vec<u64> = (q - span..q).collect();
                let mut prod = lhs.clone();
                m.mul_slice(&mut prod, &rhs);
                let mut acc = rhs.clone();
                m.mul_acc_slice(&mut acc, &lhs, &rhs);
                for ((&p, &s), &b) in prod.iter().zip(&acc).zip(&rhs) {
                    assert_eq!(p, a * b % q, "{a}·{b} mod {q}");
                    assert_eq!(s, (a * b + b) % q, "{a}·{b} + {b} mod {q}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "modular inverse")]
    fn inv_zero_panics() {
        let _ = Modulus::new(P30).inv(0);
    }

    #[test]
    fn mul_add_matches() {
        let m = Modulus::new(P61);
        let (a, b, c) = (P61 - 2, P61 - 3, P61 - 4);
        assert_eq!(m.mul_add(a, b, c), m.add(m.mul(a, b), c));
    }
}
