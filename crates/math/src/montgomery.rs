//! Montgomery-form modular multiplication.
//!
//! The GPU FHE literature (e.g. the Barrett-vs-Montgomery comparison the
//! paper cites via Knezevic et al.) uses Montgomery multiplication where a
//! long chain of products shares one modulus: values are kept in Montgomery
//! form `aR mod q` (`R = 2^64`) and each product costs one `REDC` instead of
//! a full Barrett reduction. This module provides the alternative backend;
//! the Criterion bench `kernels` compares it against [`crate::Modulus`].

use crate::modulus::Modulus;

/// Montgomery-form arithmetic for an odd modulus `q < 2^62`.
///
/// # Examples
///
/// ```
/// use tensorfhe_math::montgomery::Montgomery;
///
/// let m = Montgomery::new((1 << 30) - 35);
/// let a = m.to_mont(123_456);
/// let b = m.to_mont(654_321);
/// let prod = m.mul(a, b);
/// assert_eq!(m.from_mont(prod), 123_456u64 * 654_321 % ((1 << 30) - 35));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Montgomery {
    q: u64,
    /// `-q^{-1} mod 2^64`.
    q_inv_neg: u64,
    /// `R² mod q` (for conversion into Montgomery form).
    r2: u64,
}

impl Montgomery {
    /// Creates the Montgomery context.
    ///
    /// # Panics
    ///
    /// Panics if `q` is even or `q >= 2^62` (Montgomery needs `gcd(q, R) = 1`).
    #[must_use]
    pub fn new(q: u64) -> Self {
        assert!(q % 2 == 1, "Montgomery requires an odd modulus");
        assert!(q < (1 << 62), "modulus must be < 2^62");
        // Newton iteration for q^{-1} mod 2^64 (doubles correct bits).
        let mut inv: u64 = 1;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(q.wrapping_mul(inv)));
        }
        debug_assert_eq!(q.wrapping_mul(inv), 1);
        let m = Modulus::new(q);
        // R mod q then square: R² mod q.
        let r_mod_q = m.reduce_u128(1u128 << 64);
        let r2 = m.mul(r_mod_q, r_mod_q);
        Self {
            q,
            q_inv_neg: inv.wrapping_neg(),
            r2,
        }
    }

    /// The modulus.
    #[must_use]
    pub fn modulus(&self) -> u64 {
        self.q
    }

    /// `−q^{-1} mod 2^64` (its low `k` bits are `−q^{-1} mod 2^k`).
    #[must_use]
    pub(crate) fn neg_inv(&self) -> u64 {
        self.q_inv_neg
    }

    /// Montgomery reduction: given `t < qR`, returns `tR^{-1} mod q`.
    #[inline]
    #[must_use]
    pub fn redc(&self, t: u128) -> u64 {
        let m = (t as u64).wrapping_mul(self.q_inv_neg);
        let t2 = (t + m as u128 * self.q as u128) >> 64;
        let r = t2 as u64;
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Converts into Montgomery form (`a → aR mod q`).
    #[inline]
    #[must_use]
    pub fn to_mont(&self, a: u64) -> u64 {
        debug_assert!(a < self.q);
        self.redc(a as u128 * self.r2 as u128)
    }

    /// Converts out of Montgomery form (`aR → a mod q`).
    #[inline]
    #[must_use]
    pub fn from_mont(&self, a: u64) -> u64 {
        self.redc(a as u128)
    }

    /// Multiplies two Montgomery-form values (result in Montgomery form).
    #[inline]
    #[must_use]
    pub fn mul(&self, a: u64, b: u64) -> u64 {
        self.redc(a as u128 * b as u128)
    }

    /// Montgomery-form exponentiation of a *plain* base.
    #[must_use]
    pub fn pow(&self, base: u64, mut exp: u64) -> u64 {
        let mut base = self.to_mont(base % self.q);
        let mut acc = self.to_mont(1);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        self.from_mont(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P30: u64 = (1 << 30) - 35;
    const P61: u64 = (1 << 61) - 1;

    #[test]
    fn roundtrip_conversion() {
        let m = Montgomery::new(P30);
        for a in [0u64, 1, 2, P30 / 2, P30 - 1] {
            assert_eq!(m.from_mont(m.to_mont(a)), a);
        }
    }

    #[test]
    fn mul_matches_barrett() {
        let mont = Montgomery::new(P61);
        let barrett = Modulus::new(P61);
        let cases = [
            (0u64, 5u64),
            (P61 - 1, P61 - 1),
            (123_456_789_012_345, 987_654_321_098_765),
        ];
        for (a, b) in cases {
            let am = mont.to_mont(a);
            let bm = mont.to_mont(b);
            assert_eq!(mont.from_mont(mont.mul(am, bm)), barrett.mul(a, b));
        }
    }

    #[test]
    fn pow_matches_barrett() {
        let mont = Montgomery::new(P30);
        let barrett = Modulus::new(P30);
        for (b, e) in [(3u64, 100u64), (12345, 65537), (P30 - 2, 2)] {
            assert_eq!(mont.pow(b, e), barrett.pow(b, e));
        }
    }

    #[test]
    fn chain_of_products_stays_exact() {
        // The Montgomery use case: a long product chain with one conversion
        // at each end.
        let mont = Montgomery::new(P30);
        let barrett = Modulus::new(P30);
        let xs: Vec<u64> = (1..200u64).map(|i| i * 5_000_003 % P30).collect();
        let mut acc_m = mont.to_mont(1);
        let mut acc_b = 1u64;
        for &x in &xs {
            acc_m = mont.mul(acc_m, mont.to_mont(x));
            acc_b = barrett.mul(acc_b, x);
        }
        assert_eq!(mont.from_mont(acc_m), acc_b);
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = Montgomery::new(1 << 20);
    }
}
