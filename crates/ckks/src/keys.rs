//! Key material: secret, public, relinearisation and rotation keys.

use crate::context::CkksContext;
use crate::encrypt::{noise_ext, noise_poly, signed_ext, ternary_poly, uniform_ext, uniform_poly};
use crate::error::CkksError;
use crate::keyswitch::{ExtPoly, KsDigit, KsKey};
use crate::poly::{Ciphertext, Domain, Plaintext, RnsPoly};
use rand::Rng;
use std::collections::HashMap;
use tensorfhe_math::sampling;

/// The ternary secret key (kept as raw signed coefficients; residue forms
/// are derived on demand).
#[derive(Debug, Clone)]
pub struct SecretKey {
    coeffs: Vec<i64>,
}

impl SecretKey {
    /// Samples a fresh ternary secret.
    pub fn generate<R: Rng + ?Sized>(ctx: &CkksContext, rng: &mut R) -> Self {
        Self {
            coeffs: sampling::sample_ternary(rng, ctx.params().n()),
        }
    }

    /// Samples a sparse ternary secret with Hamming weight `h` —
    /// bootstrapping needs the bounded `‖s‖₁` so the ModRaise overflow
    /// polynomial `I(X)` stays within the sine approximation range.
    pub fn generate_sparse<R: Rng + ?Sized>(ctx: &CkksContext, h: usize, rng: &mut R) -> Self {
        Self {
            coeffs: sampling::sample_sparse_ternary(rng, ctx.params().n(), h),
        }
    }

    /// The signed coefficients (test/diagnostic access).
    #[must_use]
    pub fn coeffs(&self) -> &[i64] {
        &self.coeffs
    }
}

/// The RLWE public key `(pk0, pk1) = (-a·s + e, a)` at the top level.
#[derive(Debug, Clone)]
pub struct PublicKey {
    pk0: RnsPoly,
    pk1: RnsPoly,
}

/// All key material needed by the evaluator, bound to a context.
#[derive(Debug)]
pub struct KeyChain<'a> {
    ctx: &'a CkksContext,
    sk: SecretKey,
    pk: PublicKey,
    /// Secret in NTT domain over the `q` basis (decryption).
    s_ntt: RnsPoly,
    /// Secret over the full extended basis (key generation).
    s_ext: ExtPoly,
    /// Relinearisation key (encrypts `s²`).
    relin: KsKey,
    /// Rotation/conjugation keys by Galois element.
    // lint: ordered-ok (keyed contains_key/insert/get only; never iterated)
    rot: HashMap<u64, KsKey>,
}

impl<'a> KeyChain<'a> {
    /// Generates secret, public and relinearisation keys.
    pub fn generate<R: Rng + ?Sized>(ctx: &'a CkksContext, rng: &mut R) -> Self {
        let sk = SecretKey::generate(ctx, rng);
        Self::from_secret(ctx, sk, rng)
    }

    /// Generates keys with a sparse ternary secret of Hamming weight `h`
    /// (bootstrapping configurations).
    pub fn generate_sparse<R: Rng + ?Sized>(ctx: &'a CkksContext, h: usize, rng: &mut R) -> Self {
        let sk = SecretKey::generate_sparse(ctx, h, rng);
        Self::from_secret(ctx, sk, rng)
    }

    /// Derives the full key chain from an existing secret.
    pub fn from_secret<R: Rng + ?Sized>(ctx: &'a CkksContext, sk: SecretKey, rng: &mut R) -> Self {
        let max_level = ctx.params().max_level();

        let mut s_ntt = RnsPoly::from_signed(ctx, sk.coeffs(), max_level);
        s_ntt.ntt_forward(ctx);
        let s_ext = signed_ext(ctx, sk.coeffs());

        // pk = (-a·s + e, a)
        let a = uniform_poly(ctx, rng, max_level);
        let e = noise_poly(ctx, rng, max_level);
        let mut pk0 = a.clone();
        pk0.hada_assign(ctx, &s_ntt);
        pk0.neg_assign(ctx);
        pk0.add_assign(ctx, &e);
        let pk = PublicKey { pk0, pk1: a };

        // Relinearisation key: encrypts s² (computed limb-wise in NTT form).
        let mut s2_ext = s_ext.clone();
        hada_ext(ctx, &mut s2_ext, &s_ext);
        let relin = generate_ks_key(ctx, rng, &s_ext, &s2_ext);

        Self {
            ctx,
            sk,
            pk,
            s_ntt,
            s_ext,
            relin,
            rot: HashMap::new(),
        }
    }

    /// The context these keys belong to.
    #[must_use]
    pub fn context(&self) -> &'a CkksContext {
        self.ctx
    }

    /// The relinearisation key.
    #[must_use]
    pub fn relin_key(&self) -> &KsKey {
        &self.relin
    }

    /// Generates rotation keys for the given slot steps.
    pub fn gen_rotation_keys<R: Rng + ?Sized>(&mut self, steps: &[i64], rng: &mut R) {
        for &r in steps {
            let g = self.ctx.galois_element(r);
            if self.rot.contains_key(&g) {
                continue;
            }
            let key = self.make_galois_key(g, rng);
            self.rot.insert(g, key);
        }
    }

    /// Generates the conjugation key (Galois element `2N-1`).
    pub fn gen_conjugation_key<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let g = self.ctx.conjugation_element();
        if !self.rot.contains_key(&g) {
            let key = self.make_galois_key(g, rng);
            self.rot.insert(g, key);
        }
    }

    /// Looks up the switching key for a Galois element.
    ///
    /// # Errors
    ///
    /// Returns [`CkksError::MissingRotationKey`] if the key was never
    /// generated.
    pub fn galois_key(&self, g: u64) -> Result<&KsKey, CkksError> {
        self.rot
            .get(&g)
            .ok_or(CkksError::MissingRotationKey(g as i64))
    }

    fn make_galois_key<R: Rng + ?Sized>(&self, g: u64, rng: &mut R) -> KsKey {
        // Target key: σ_g(s) over the extended basis.
        let n = self.ctx.params().n();
        let two_n = 2 * n as u64;
        let mut rotated = vec![0i64; n];
        for (k, &c) in self.sk.coeffs().iter().enumerate() {
            let idx = (k as u128 * g as u128 % two_n as u128) as u64;
            if idx < n as u64 {
                rotated[idx as usize] += c;
            } else {
                rotated[(idx - n as u64) as usize] -= c;
            }
        }
        let target = signed_ext(self.ctx, &rotated);
        generate_ks_key(self.ctx, rng, &self.s_ext, &target)
    }

    /// Encrypts a plaintext under the public key.
    pub fn encrypt<R: Rng + ?Sized>(&self, pt: &Plaintext, rng: &mut R) -> Ciphertext {
        let level = pt.poly.level();
        let ctx = self.ctx;
        let v = ternary_poly(ctx, rng, level);
        let e0 = noise_poly(ctx, rng, level);
        let e1 = noise_poly(ctx, rng, level);

        let mut pk0 = self.pk.pk0.clone();
        pk0.truncate_level(level);
        let mut pk1 = self.pk.pk1.clone();
        pk1.truncate_level(level);

        let mut c0 = pk0;
        c0.hada_assign(ctx, &v);
        c0.add_assign(ctx, &e0);
        c0.add_assign(ctx, &pt.poly);

        let mut c1 = pk1;
        c1.hada_assign(ctx, &v);
        c1.add_assign(ctx, &e1);

        Ciphertext {
            c0,
            c1,
            scale: pt.scale,
        }
    }

    /// Decrypts a ciphertext: `m = c0 + c1·s`.
    #[must_use]
    pub fn decrypt(&self, ct: &Ciphertext) -> Plaintext {
        let level = ct.level();
        let mut s = self.s_ntt.clone();
        s.truncate_level(level);
        let mut m = ct.c1.clone();
        m.hada_assign(self.ctx, &s);
        m.add_assign(self.ctx, &ct.c0);
        Plaintext {
            poly: m,
            scale: ct.scale,
        }
    }
}

/// Generates a key-switching key from canonical secret `s` to target `s'`.
///
/// Digit `j`'s pair is `(b_j, a_j)` with
/// `b_j = -a_j·s + e_j + W_j·s'` where the RNS residues of
/// `W_j = P·Q̂_j·[Q̂_j^{-1}]_{Q_j}` are `P mod q_i` inside digit `j` and `0`
/// elsewhere (including all special primes).
pub fn generate_ks_key<R: Rng + ?Sized>(
    ctx: &CkksContext,
    rng: &mut R,
    s_ext: &ExtPoly,
    target_ext: &ExtPoly,
) -> KsKey {
    let dnum = ctx.params().dnum();
    let alpha = ctx.params().alpha();
    let mut digits = Vec::with_capacity(dnum);
    for j in 0..dnum {
        let a = uniform_ext(ctx, rng);
        let e = noise_ext(ctx, rng);
        // b = -a ⊙ s + e
        let mut b = a.clone();
        hada_ext(ctx, &mut b, s_ext);
        neg_ext(ctx, &mut b);
        add_ext(ctx, &mut b, &e);
        // + (P mod q_i) · s' on the digit's own limbs.
        for i in j * alpha..(j + 1) * alpha {
            let m = ctx.q_mod(i);
            let mut p_mod = 1u64;
            for &pk in ctx.p_primes() {
                p_mod = m.mul(p_mod, m.reduce(pk));
            }
            let s_limb = &target_ext.q_limbs[i];
            for (dst, &sv) in b.q_limbs[i].iter_mut().zip(s_limb) {
                *dst = m.add(*dst, m.mul(p_mod, sv));
            }
        }
        digits.push(KsDigit { b, a });
    }
    KsKey { digits }
}

fn hada_ext(ctx: &CkksContext, lhs: &mut ExtPoly, rhs: &ExtPoly) {
    assert_eq!(lhs.domain, Domain::Ntt);
    assert_eq!(rhs.domain, Domain::Ntt);
    for (i, limb) in lhs.q_limbs.iter_mut().enumerate() {
        let m = ctx.q_mod(i);
        for (x, &y) in limb.iter_mut().zip(&rhs.q_limbs[i]) {
            *x = m.mul(*x, y);
        }
    }
    for (k, limb) in lhs.p_limbs.iter_mut().enumerate() {
        let m = ctx.p_mod(k);
        for (x, &y) in limb.iter_mut().zip(&rhs.p_limbs[k]) {
            *x = m.mul(*x, y);
        }
    }
}

fn add_ext(ctx: &CkksContext, lhs: &mut ExtPoly, rhs: &ExtPoly) {
    for (i, limb) in lhs.q_limbs.iter_mut().enumerate() {
        let m = ctx.q_mod(i);
        for (x, &y) in limb.iter_mut().zip(&rhs.q_limbs[i]) {
            *x = m.add(*x, y);
        }
    }
    for (k, limb) in lhs.p_limbs.iter_mut().enumerate() {
        let m = ctx.p_mod(k);
        for (x, &y) in limb.iter_mut().zip(&rhs.p_limbs[k]) {
            *x = m.add(*x, y);
        }
    }
}

fn neg_ext(ctx: &CkksContext, p: &mut ExtPoly) {
    for (i, limb) in p.q_limbs.iter_mut().enumerate() {
        let m = ctx.q_mod(i);
        for x in limb.iter_mut() {
            *x = m.neg(*x);
        }
    }
    for (k, limb) in p.p_limbs.iter_mut().enumerate() {
        let m = ctx.p_mod(k);
        for x in limb.iter_mut() {
            *x = m.neg(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CkksParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tensorfhe_math::Complex64;

    fn setup() -> (CkksContext, StdRng) {
        (
            CkksContext::new(&CkksParams::toy()).expect("valid"),
            StdRng::seed_from_u64(42),
        )
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (ctx, mut rng) = setup();
        let keys = KeyChain::generate(&ctx, &mut rng);
        let vals = vec![
            Complex64::new(1.25, -0.5),
            Complex64::new(-3.5, 2.0),
            Complex64::new(0.0, 1.0),
        ];
        let pt = ctx.encode(&vals, ctx.params().scale()).expect("fits");
        let ct = keys.encrypt(&pt, &mut rng);
        let dec = ctx.decode(&keys.decrypt(&ct)).expect("decode");
        for (a, b) in vals.iter().zip(&dec) {
            assert!((*a - *b).norm() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn ciphertext_is_not_plaintext() {
        // c0 alone must NOT decode to the message (sanity that encryption
        // actually randomises).
        let (ctx, mut rng) = setup();
        let keys = KeyChain::generate(&ctx, &mut rng);
        let vals = vec![Complex64::new(1.0, 0.0)];
        let pt = ctx.encode(&vals, ctx.params().scale()).expect("fits");
        let ct = keys.encrypt(&pt, &mut rng);
        let fake = Plaintext {
            poly: ct.c0.clone(),
            scale: ct.scale,
        };
        let dec = ctx.decode(&fake).expect("decode");
        assert!(
            (dec[0] - vals[0]).norm() > 0.1,
            "c0 alone should not reveal the message"
        );
    }

    #[test]
    fn decryption_requires_right_key() {
        let (ctx, mut rng) = setup();
        let keys = KeyChain::generate(&ctx, &mut rng);
        let other = KeyChain::generate(&ctx, &mut rng);
        let vals = vec![Complex64::new(2.0, 0.0)];
        let pt = ctx.encode(&vals, ctx.params().scale()).expect("fits");
        let ct = keys.encrypt(&pt, &mut rng);
        let wrong = ctx.decode(&other.decrypt(&ct)).expect("decode");
        assert!((wrong[0] - vals[0]).norm() > 0.1);
    }

    #[test]
    fn rotation_keys_registered_by_element() {
        let (ctx, mut rng) = setup();
        let mut keys = KeyChain::generate(&ctx, &mut rng);
        assert!(keys.galois_key(ctx.galois_element(1)).is_err());
        keys.gen_rotation_keys(&[1, 2], &mut rng);
        assert!(keys.galois_key(ctx.galois_element(1)).is_ok());
        assert!(keys.galois_key(ctx.galois_element(2)).is_ok());
        keys.gen_conjugation_key(&mut rng);
        assert!(keys.galois_key(ctx.conjugation_element()).is_ok());
    }

    #[test]
    fn encryption_noise_is_bounded() {
        let (ctx, mut rng) = setup();
        let keys = KeyChain::generate(&ctx, &mut rng);
        let slots = ctx.params().slots();
        let vals = vec![Complex64::new(0.5, 0.5); slots];
        let pt = ctx.encode(&vals, ctx.params().scale()).expect("fits");
        let ct = keys.encrypt(&pt, &mut rng);
        let dec = ctx.decode(&keys.decrypt(&ct)).expect("decode");
        let max_err = vals
            .iter()
            .zip(&dec)
            .map(|(a, b)| (*a - *b).norm())
            .fold(0.0f64, f64::max);
        assert!(max_err < 1e-3, "fresh encryption error {max_err} too large");
    }
}
