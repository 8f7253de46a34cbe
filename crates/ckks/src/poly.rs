//! RNS polynomials, plaintexts and ciphertexts.

use crate::context::{CkksContext, GaloisTables};
use tensorfhe_math::Modulus;
use tensorfhe_ntt::{NttBatchOps, NttOps};

/// Representation domain of a polynomial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Coefficient (power-basis) representation.
    Coeff,
    /// Evaluation (NTT/point-value) representation, natural order.
    Ntt,
}

/// A polynomial in `R_Q = Z_Q[X]/(X^N + 1)` stored as RNS limbs.
///
/// Limb `i` holds the residues modulo `q_i`; the active level is
/// `limbs.len() - 1`. Every operation takes the shared [`CkksContext`] for
/// the modulus handles and NTT tables.
#[derive(Debug, Clone, PartialEq)]
pub struct RnsPoly {
    limbs: Vec<Vec<u64>>,
    domain: Domain,
    n: usize,
}

impl RnsPoly {
    /// The all-zero polynomial with `level + 1` limbs.
    #[must_use]
    pub fn zero(ctx: &CkksContext, level: usize, domain: Domain) -> Self {
        let n = ctx.params().n();
        Self {
            limbs: vec![vec![0u64; n]; level + 1],
            domain,
            n,
        }
    }

    /// Builds a coefficient-domain polynomial from signed big coefficients,
    /// reducing each modulo every active prime.
    #[must_use]
    pub fn from_i128_coeffs(ctx: &CkksContext, coeffs: &[i128], level: usize) -> Self {
        let n = ctx.params().n();
        assert_eq!(coeffs.len(), n, "coefficient count must equal N");
        let limbs = (0..=level)
            .map(|l| {
                let m = ctx.q_mod(l);
                coeffs.iter().map(|&c| m.from_i128(c)).collect()
            })
            .collect();
        Self {
            limbs,
            domain: Domain::Coeff,
            n,
        }
    }

    /// Builds a coefficient-domain polynomial from small signed values
    /// (secrets and noise), broadcast across limbs.
    #[must_use]
    pub fn from_signed(ctx: &CkksContext, values: &[i64], level: usize) -> Self {
        let n = ctx.params().n();
        assert_eq!(values.len(), n);
        let limbs = (0..=level)
            .map(|l| {
                let m = ctx.q_mod(l);
                values.iter().map(|&v| m.from_i64(v)).collect()
            })
            .collect();
        Self {
            limbs,
            domain: Domain::Coeff,
            n,
        }
    }

    /// Builds from explicit limb data.
    #[must_use]
    pub fn from_limbs(limbs: Vec<Vec<u64>>, domain: Domain) -> Self {
        assert!(!limbs.is_empty(), "polynomial needs at least one limb");
        let n = limbs[0].len();
        assert!(limbs.iter().all(|l| l.len() == n), "ragged limbs");
        Self { limbs, domain, n }
    }

    /// Polynomial degree `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current level (number of limbs − 1).
    #[must_use]
    pub fn level(&self) -> usize {
        self.limbs.len() - 1
    }

    /// Representation domain.
    #[must_use]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// Residues modulo `q_i`.
    #[must_use]
    pub fn limb(&self, i: usize) -> &[u64] {
        &self.limbs[i]
    }

    /// Mutable residues modulo `q_i`.
    pub fn limb_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.limbs[i]
    }

    /// All limbs.
    #[must_use]
    pub fn limbs(&self) -> &[Vec<u64>] {
        &self.limbs
    }

    /// Truncates to `level + 1` limbs (plaintext/ciphertext alignment).
    pub fn truncate_level(&mut self, level: usize) {
        assert!(level < self.limbs.len(), "cannot raise level by truncation");
        self.limbs.truncate(level + 1);
    }

    /// In-place forward NTT on every limb.
    ///
    /// # Panics
    ///
    /// Panics if already in NTT domain.
    pub fn ntt_forward(&mut self, ctx: &CkksContext) {
        assert_eq!(self.domain, Domain::Coeff, "already in NTT domain");
        for (l, limb) in self.limbs.iter_mut().enumerate() {
            ctx.ntt_q(l).forward(limb);
        }
        self.domain = Domain::Ntt;
    }

    /// In-place inverse NTT on every limb.
    ///
    /// # Panics
    ///
    /// Panics if already in coefficient domain.
    pub fn ntt_inverse(&mut self, ctx: &CkksContext) {
        assert_eq!(self.domain, Domain::Ntt, "already in coefficient domain");
        for (l, limb) in self.limbs.iter_mut().enumerate() {
            ctx.ntt_q(l).inverse(limb);
        }
        self.domain = Domain::Coeff;
    }

    /// Forward NTT of a whole block of same-level polynomials at once.
    ///
    /// For each limb index `l` the `B` rows (one per polynomial, all modulo
    /// `q_l`) go through the context plan's batched path — single wide
    /// GEMMs per four-step stage under the GEMM formulations (§IV-B/D).
    /// Output is bit-identical to calling [`RnsPoly::ntt_forward`] on each
    /// polynomial.
    ///
    /// # Panics
    ///
    /// Panics if the polynomials disagree on level, or any is already in
    /// NTT domain.
    pub fn ntt_forward_batch(ctx: &CkksContext, polys: &mut [&mut RnsPoly]) {
        let Some(first) = polys.first() else { return };
        let level = first.level();
        for p in polys.iter() {
            assert_eq!(p.level(), level, "level mismatch in batch");
            assert_eq!(p.domain, Domain::Coeff, "already in NTT domain");
        }
        for l in 0..=level {
            let mut rows: Vec<&mut [u64]> = polys
                .iter_mut()
                .map(|p| p.limbs[l].as_mut_slice())
                .collect();
            ctx.ntt_q(l).forward_batch(&mut rows);
        }
        for p in polys.iter_mut() {
            p.domain = Domain::Ntt;
        }
    }

    /// Inverse NTT of a whole block of same-level polynomials at once
    /// (batched counterpart of [`RnsPoly::ntt_inverse`]).
    ///
    /// # Panics
    ///
    /// Panics if the polynomials disagree on level, or any is already in
    /// coefficient domain.
    pub fn ntt_inverse_batch(ctx: &CkksContext, polys: &mut [&mut RnsPoly]) {
        let Some(first) = polys.first() else { return };
        let level = first.level();
        for p in polys.iter() {
            assert_eq!(p.level(), level, "level mismatch in batch");
            assert_eq!(p.domain, Domain::Ntt, "already in coefficient domain");
        }
        for l in 0..=level {
            let mut rows: Vec<&mut [u64]> = polys
                .iter_mut()
                .map(|p| p.limbs[l].as_mut_slice())
                .collect();
            ctx.ntt_q(l).inverse_batch(&mut rows);
        }
        for p in polys.iter_mut() {
            p.domain = Domain::Coeff;
        }
    }

    /// Element-wise addition (Ele-Add kernel).
    ///
    /// # Panics
    ///
    /// Panics on level or domain mismatch.
    pub fn add_assign(&mut self, ctx: &CkksContext, rhs: &RnsPoly) {
        self.zip_assign(ctx, rhs, |m, a, b| {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = m.add(*x, y);
            }
        });
    }

    /// Element-wise subtraction (Ele-Sub kernel).
    ///
    /// # Panics
    ///
    /// Panics on level or domain mismatch.
    pub fn sub_assign(&mut self, ctx: &CkksContext, rhs: &RnsPoly) {
        self.zip_assign(ctx, rhs, |m, a, b| {
            for (x, &y) in a.iter_mut().zip(b) {
                *x = m.sub(*x, y);
            }
        });
    }

    /// Element-wise (Hadamard) multiplication (Hada-Mult kernel). Both
    /// operands must be in NTT domain.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or if either operand is in coefficient
    /// domain.
    pub fn hada_assign(&mut self, ctx: &CkksContext, rhs: &RnsPoly) {
        assert_eq!(self.domain, Domain::Ntt, "Hadamard needs NTT domain");
        assert_eq!(rhs.domain, Domain::Ntt, "Hadamard needs NTT domain");
        self.zip_assign(ctx, rhs, Modulus::mul_slice);
    }

    /// `a ⊙ b` as a new polynomial: [`RnsPoly::hada_assign`] writing its
    /// result once instead of cloning an operand and multiplying in place.
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or if either operand is in coefficient
    /// domain.
    #[must_use]
    pub fn hada(ctx: &CkksContext, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        assert_eq!(a.domain, Domain::Ntt, "Hadamard needs NTT domain");
        a.zip_with(ctx, b, Modulus::mul_to_vec)
    }

    /// `self += x ⊙ y`, one fused pass per limb (all three in NTT domain).
    ///
    /// # Panics
    ///
    /// Panics on level mismatch or if any operand is in coefficient domain.
    pub fn hada_acc(&mut self, ctx: &CkksContext, x: &RnsPoly, y: &RnsPoly) {
        for p in [&*self, x, y] {
            assert_eq!(p.domain, Domain::Ntt, "Hadamard needs NTT domain");
            assert_eq!(p.level(), x.level(), "level mismatch");
        }
        let limbs = self.limbs.iter_mut().zip(&x.limbs).zip(&y.limbs);
        for (l, ((acc, xs), ys)) in limbs.enumerate() {
            ctx.q_mod(l).mul_acc_slice(acc, xs, ys);
        }
    }

    /// `a + b` as a new polynomial (Ele-Add without the operand clone).
    ///
    /// # Panics
    ///
    /// Panics on level or domain mismatch.
    #[must_use]
    pub fn sum(ctx: &CkksContext, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        a.zip_with(ctx, b, |m, x, y| {
            x.iter().zip(y).map(|(&x, &y)| m.add(x, y)).collect()
        })
    }

    /// `a − b` as a new polynomial (Ele-Sub without the operand clone).
    ///
    /// # Panics
    ///
    /// Panics on level or domain mismatch.
    #[must_use]
    pub fn difference(ctx: &CkksContext, a: &RnsPoly, b: &RnsPoly) -> RnsPoly {
        a.zip_with(ctx, b, |m, x, y| {
            x.iter().zip(y).map(|(&x, &y)| m.sub(x, y)).collect()
        })
    }

    /// Negates every residue.
    pub fn neg_assign(&mut self, ctx: &CkksContext) {
        for (l, limb) in self.limbs.iter_mut().enumerate() {
            let m = ctx.q_mod(l);
            for x in limb.iter_mut() {
                *x = m.neg(*x);
            }
        }
    }

    /// Multiplies every residue of limb `l` by a per-limb scalar.
    pub fn scale_limbs(&mut self, ctx: &CkksContext, scalars: &[u64]) {
        assert_eq!(scalars.len(), self.limbs.len());
        for (l, limb) in self.limbs.iter_mut().enumerate() {
            ctx.q_mod(l).scale_slice(limb, scalars[l]);
        }
    }

    /// Applies the Galois automorphism in NTT domain (ForbeniusMap kernel:
    /// a pure slot permutation).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in coefficient domain.
    #[must_use]
    pub fn automorphism_ntt(&self, tables: &GaloisTables) -> RnsPoly {
        assert_eq!(self.domain, Domain::Ntt, "NTT-domain automorphism");
        let limbs = self
            .limbs
            .iter()
            .map(|limb| tables.ntt_perm.iter().map(|&p| limb[p as usize]).collect())
            .collect();
        RnsPoly {
            limbs,
            domain: Domain::Ntt,
            n: self.n,
        }
    }

    /// Applies the Galois automorphism in coefficient domain
    /// (`a'(X) = a(X^g)` with negacyclic sign wrapping).
    ///
    /// # Panics
    ///
    /// Panics if the polynomial is in NTT domain.
    #[must_use]
    pub fn automorphism_coeff(&self, ctx: &CkksContext, tables: &GaloisTables) -> RnsPoly {
        assert_eq!(self.domain, Domain::Coeff, "coeff-domain automorphism");
        let limbs = self
            .limbs
            .iter()
            .enumerate()
            .map(|(l, limb)| {
                let m = ctx.q_mod(l);
                tables
                    .coeff_map
                    .iter()
                    .map(|&(src, negate)| {
                        let v = limb[src as usize];
                        if negate {
                            m.neg(v)
                        } else {
                            v
                        }
                    })
                    .collect()
            })
            .collect();
        RnsPoly {
            limbs,
            domain: Domain::Coeff,
            n: self.n,
        }
    }

    /// A new polynomial whose limb `l` is `f(q_l, self_l, rhs_l)`.
    fn zip_with(
        &self,
        ctx: &CkksContext,
        rhs: &RnsPoly,
        f: impl Fn(&Modulus, &[u64], &[u64]) -> Vec<u64>,
    ) -> RnsPoly {
        assert_eq!(self.level(), rhs.level(), "level mismatch");
        assert_eq!(self.domain, rhs.domain, "domain mismatch");
        let limbs = self.limbs.iter().zip(&rhs.limbs).enumerate();
        RnsPoly {
            limbs: limbs.map(|(l, (a, b))| f(ctx.q_mod(l), a, b)).collect(),
            domain: self.domain,
            n: self.n,
        }
    }

    /// Applies a limb-wise kernel `f(q_l, self_l, rhs_l)` to every limb.
    fn zip_assign(
        &mut self,
        ctx: &CkksContext,
        rhs: &RnsPoly,
        f: impl Fn(&Modulus, &mut [u64], &[u64]),
    ) {
        assert_eq!(self.level(), rhs.level(), "level mismatch");
        assert_eq!(self.domain, rhs.domain, "domain mismatch");
        for (l, (a, b)) in self.limbs.iter_mut().zip(&rhs.limbs).enumerate() {
            f(ctx.q_mod(l), a, b);
        }
    }
}

/// An encoded message: a polynomial plus its scale.
#[derive(Debug, Clone)]
pub struct Plaintext {
    /// The encoded polynomial (normally in NTT domain).
    pub poly: RnsPoly,
    /// Scale Δ the values were multiplied by.
    pub scale: f64,
}

/// A CKKS ciphertext `(c0, c1)` with `c0 + c1·s ≈ m`.
#[derive(Debug, Clone)]
pub struct Ciphertext {
    /// Constant component.
    pub c0: RnsPoly,
    /// `s`-linear component.
    pub c1: RnsPoly,
    /// Current scale.
    pub scale: f64,
}

impl Ciphertext {
    /// Current level.
    #[must_use]
    pub fn level(&self) -> usize {
        self.c0.level()
    }

    /// Degree `N`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.c0.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ctx() -> CkksContext {
        CkksContext::new(&CkksParams::toy()).expect("valid")
    }

    fn random_poly(ctx: &CkksContext, rng: &mut StdRng, level: usize) -> RnsPoly {
        let n = ctx.params().n();
        let limbs = (0..=level)
            .map(|l| {
                let q = ctx.q_primes()[l];
                (0..n).map(|_| rng.gen_range(0..q)).collect()
            })
            .collect();
        RnsPoly::from_limbs(limbs, Domain::Coeff)
    }

    #[test]
    fn ntt_roundtrip_all_limbs() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(1);
        let p = random_poly(&c, &mut rng, 3);
        let mut q = p.clone();
        q.ntt_forward(&c);
        assert_eq!(q.domain(), Domain::Ntt);
        q.ntt_inverse(&c);
        assert_eq!(q, p);
    }

    #[test]
    fn add_sub_inverse() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(2);
        let a = random_poly(&c, &mut rng, 2);
        let b = random_poly(&c, &mut rng, 2);
        let mut s = a.clone();
        s.add_assign(&c, &b);
        s.sub_assign(&c, &b);
        assert_eq!(s, a);
    }

    #[test]
    fn hadamard_is_pointwise_product() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(3);
        let mut a = random_poly(&c, &mut rng, 1);
        let mut b = random_poly(&c, &mut rng, 1);
        a.ntt_forward(&c);
        b.ntt_forward(&c);
        let mut h = a.clone();
        h.hada_assign(&c, &b);
        for l in 0..=1 {
            let m = c.q_mod(l);
            for i in 0..c.params().n() {
                assert_eq!(h.limb(l)[i], m.mul(a.limb(l)[i], b.limb(l)[i]));
            }
        }
    }

    #[test]
    fn automorphism_ntt_matches_coeff_domain() {
        // σ_g in coefficient domain followed by NTT must equal NTT followed
        // by the slot permutation π — the identity the ForbeniusMap kernel
        // relies on.
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(4);
        let p = random_poly(&c, &mut rng, 2);
        for r in [1i64, 2, 3, -1] {
            let g = c.galois_element(r);
            let tables = c.galois_tables(g);

            let mut via_coeff = p.automorphism_coeff(&c, &tables);
            via_coeff.ntt_forward(&c);

            let mut ntt_first = p.clone();
            ntt_first.ntt_forward(&c);
            let via_perm = ntt_first.automorphism_ntt(&tables);

            assert_eq!(via_coeff, via_perm, "automorphism mismatch for r={r}");
        }
    }

    #[test]
    fn conjugation_automorphism_consistent() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(5);
        let p = random_poly(&c, &mut rng, 1);
        let tables = c.galois_tables(c.conjugation_element());
        let mut via_coeff = p.automorphism_coeff(&c, &tables);
        via_coeff.ntt_forward(&c);
        let mut ntt_first = p.clone();
        ntt_first.ntt_forward(&c);
        let via_perm = ntt_first.automorphism_ntt(&tables);
        assert_eq!(via_coeff, via_perm);
    }

    #[test]
    fn neg_is_additive_inverse() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(6);
        let a = random_poly(&c, &mut rng, 2);
        let mut na = a.clone();
        na.neg_assign(&c);
        na.add_assign(&c, &a);
        let zero = RnsPoly::zero(&c, 2, Domain::Coeff);
        assert_eq!(na, zero);
    }

    #[test]
    #[should_panic(expected = "level mismatch")]
    fn level_mismatch_panics() {
        let c = ctx();
        let mut rng = StdRng::seed_from_u64(7);
        let mut a = random_poly(&c, &mut rng, 2);
        let b = random_poly(&c, &mut rng, 1);
        a.add_assign(&c, &b);
    }
}
