//! ModUp, ModDown and RESCALE against an integer oracle.
//!
//! The oracle recomputes each operation coefficient by coefficient from its
//! CRT definition with `u128` arithmetic on the raw primes only — no
//! `Modulus`, no `BasisConvGemm`, no `ModUpTable`/`ModDownTable` constants,
//! no rescale constants:
//!
//! * ModUp of digit `j` (own primes `q_i`, `Q_j = Π q_i`,
//!   `q̂_i = Q_j / q_i`) keeps its own limbs and fills every complement limb
//!   `p` with `(Σ_i [x_i·q̂_i⁻¹]_{q_i}·q̂_i) mod p`;
//! * ModDown (special primes `p_k`, `P = Π p_k`, `p̂_k = P / p_k`) outputs
//!   `(a_i − [Σ_k [a_k·p̂_k⁻¹]_{p_k}·p̂_k]_{q_i})·P⁻¹ mod q_i`;
//! * RESCALE at level `l` CRT-composes each limb pair `(c_j, c_l)` to
//!   `c mod q_j·q_l`, subtracts the centred residue of `c mod q_l`,
//!   divides exactly by `q_l` and reduces mod `q_j`.
//!
//! The context's NTT plans are used only to move operands between domains.
//! `mod_up`, `mod_down_batch` and `Evaluator::rescale` must match the
//! oracle bit for bit for every paper preset shape plus `toy` and
//! `test_small`, at every level (every level ≥ 1 for RESCALE) and, for
//! ModUp, every digit.

mod common;

use common::{preset_shapes, random_ext, random_poly};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensorfhe_ckks::keyswitch::{mod_down_batch, mod_up, ExtPoly};
use tensorfhe_ckks::trace::Tracing;
use tensorfhe_ckks::{Ciphertext, CkksContext, CkksParams, Domain, Evaluator, RnsPoly};

/// `a·b mod m`.
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    (u128::from(a) * u128::from(b) % u128::from(m)) as u64
}

/// `a⁻¹ mod p` for a prime `p` (Fermat).
fn inv_mod(a: u64, p: u64) -> u64 {
    let (mut base, mut exp, mut acc) = (a % p, p - 2, 1);
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, p);
        }
        base = mul_mod(base, base, p);
        exp >>= 1;
    }
    acc
}

/// `Π primes mod m`.
fn prod_mod(primes: impl IntoIterator<Item = u64>, m: u64) -> u64 {
    primes
        .into_iter()
        .fold(1 % m, |acc, q| mul_mod(acc, q % m, m))
}

/// Fast basis conversion of the limbs `rows` over the primes `src` to the
/// prime `t`, coefficient by coefficient:
/// `(Σ_i [x_i·ŝ_i⁻¹]_{s_i}·ŝ_i) mod t` with `ŝ_i = Π src / s_i`.
fn convert(src: &[u64], rows: &[&[u64]], t: u64) -> Vec<u64> {
    let hat = |i: usize, m: u64| {
        let others = src.iter().enumerate().filter(|&(k, _)| k != i);
        prod_mod(others.map(|(_, &s)| s), m)
    };
    // Per source prime: s_i, ŝ_i⁻¹ mod s_i and ŝ_i mod t.
    let terms: Vec<(u64, u64, u64)> = (0..src.len())
        .map(|i| (src[i], inv_mod(hat(i, src[i]), src[i]), hat(i, t)))
        .collect();
    (0..rows[0].len())
        .map(|c| {
            let sum = terms
                .iter()
                .zip(rows)
                .fold(0u128, |sum, (&(s, inv, hat_t), row)| {
                    let y = mul_mod(row[c], inv, s);
                    (sum + u128::from(mul_mod(y, hat_t, t))) % u128::from(t)
                });
            sum as u64
        })
        .collect()
}

/// The oracle ModUp of digit `digit` of the coefficient-domain `d`.
fn mod_up_oracle(ctx: &CkksContext, d: &RnsPoly, digit: usize) -> ExtPoly {
    let (q, p) = (ctx.q_primes(), ctx.p_primes());
    let alpha = ctx.params().alpha();
    let own = digit * alpha..((digit + 1) * alpha).min(d.level() + 1);
    let rows: Vec<&[u64]> = own.clone().map(|i| d.limb(i)).collect();
    let src = &q[own.clone()];
    ExtPoly {
        q_limbs: (0..=d.level())
            .map(|i| {
                if own.contains(&i) {
                    d.limb(i).to_vec()
                } else {
                    convert(src, &rows, q[i])
                }
            })
            .collect(),
        p_limbs: p.iter().map(|&t| convert(src, &rows, t)).collect(),
        domain: Domain::Coeff,
    }
}

/// The oracle ModDown of the NTT-domain accumulator `acc`, in NTT domain.
fn mod_down_oracle(ctx: &CkksContext, acc: &ExtPoly) -> RnsPoly {
    let (q, p) = (ctx.q_primes(), ctx.p_primes());
    let mut acc = acc.clone();
    acc.ntt_inverse(ctx);
    let specials: Vec<&[u64]> = acc.p_limbs.iter().map(Vec::as_slice).collect();
    let limbs = acc
        .q_limbs
        .iter()
        .zip(q)
        .map(|(a, &qi)| {
            let p_inv = inv_mod(prod_mod(p.iter().copied(), qi), qi);
            let conv = convert(p, &specials, qi);
            a.iter()
                .zip(conv)
                .map(|(&x, c)| mul_mod((x + qi - c) % qi, p_inv, qi))
                .collect()
        })
        .collect();
    let mut out = RnsPoly::from_limbs(limbs, Domain::Coeff);
    out.ntt_forward(ctx);
    out
}

/// The oracle RESCALE of the NTT-domain `poly` at level `l ≥ 1`, in NTT
/// domain at level `l − 1`.
fn rescale_oracle(ctx: &CkksContext, poly: &RnsPoly) -> RnsPoly {
    let q = ctx.q_primes();
    let l = poly.level();
    let mut poly = poly.clone();
    poly.ntt_inverse(ctx);
    let q_l = u128::from(q[l]);
    let limbs = (0..l)
        .map(|j| {
            let q_j = u128::from(q[j]);
            let q_j_inv = u128::from(inv_mod(q[j], q[l]));
            poly.limb(j)
                .iter()
                .zip(poly.limb(l))
                .map(|(&c_j, &c_l)| {
                    let (c_j, c_l) = (u128::from(c_j), u128::from(c_l));
                    // c ≡ c_j (mod q_j), c ≡ c_l (mod q_l), 0 ≤ c < q_j·q_l.
                    let k = (c_l + q_l - c_j % q_l) % q_l * q_j_inv % q_l;
                    let c = c_j + q_j * k;
                    // c − v for the centred v ≡ c (mod q_l), |v| ≤ q_l/2:
                    // non-negative and divisible by q_l.
                    let shifted = match c_l > q_l / 2 {
                        true => c + (q_l - c_l),
                        false => c - c_l,
                    };
                    (shifted / q_l % q_j) as u64
                })
                .collect()
        })
        .collect();
    let mut out = RnsPoly::from_limbs(limbs, Domain::Coeff);
    out.ntt_forward(ctx);
    out
}

fn shapes() -> Vec<CkksParams> {
    let mut shapes = preset_shapes();
    shapes.extend([CkksParams::toy(), CkksParams::test_small()]);
    shapes
}

#[test]
fn mod_up_matches_the_integer_oracle_at_every_shape_level_and_digit() {
    let mut rng = StdRng::seed_from_u64(0x0a11);
    for params in shapes() {
        let ctx = CkksContext::new(&params).expect("ctx");
        for level in 0..=params.max_level() {
            let d = random_poly(&ctx, &mut rng, level, Domain::Coeff);
            for digit in 0..(level + 1).div_ceil(params.alpha()) {
                let got = mod_up(&ctx, &mut Tracing::new(None), &d, digit);
                let want = mod_up_oracle(&ctx, &d, digit);
                assert_eq!(got, want, "{} level {level} digit {digit}", params.name());
            }
        }
    }
}

#[test]
fn mod_down_matches_the_integer_oracle_at_every_shape_and_level() {
    let mut rng = StdRng::seed_from_u64(0xd0_0a11);
    for params in shapes() {
        let ctx = CkksContext::new(&params).expect("ctx");
        for level in 0..=params.max_level() {
            let accs = [
                random_ext(&ctx, &mut rng, level),
                random_ext(&ctx, &mut rng, level),
            ];
            let got = mod_down_batch(&ctx, &mut Tracing::new(None), &[&accs[0], &accs[1]]);
            let want: Vec<RnsPoly> = accs.iter().map(|a| mod_down_oracle(&ctx, a)).collect();
            assert_eq!(got, want, "{} level {level}", params.name());
        }
    }
}

#[test]
fn rescale_matches_the_integer_oracle_at_every_shape_and_level() {
    let mut rng = StdRng::seed_from_u64(0x5ca1e);
    for params in shapes() {
        let ctx = CkksContext::new(&params).expect("ctx");
        let mut eval = Evaluator::new(&ctx);
        for level in 1..=params.max_level() {
            let ct = Ciphertext {
                c0: random_poly(&ctx, &mut rng, level, Domain::Ntt),
                c1: random_poly(&ctx, &mut rng, level, Domain::Ntt),
                scale: params.scale(),
            };
            let got = eval.rescale(&ct).expect("level ≥ 1");
            let point = format!("{} level {level}", params.name());
            assert_eq!(got.c0, rescale_oracle(&ctx, &ct.c0), "{point}: c0");
            assert_eq!(got.c1, rescale_oracle(&ctx, &ct.c1), "{point}: c1");
        }
    }
}
