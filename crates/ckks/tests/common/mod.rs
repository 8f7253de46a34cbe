//! Shapes and random operands shared by the key-switch test files.

use rand::rngs::StdRng;
use rand::Rng;
use tensorfhe_ckks::keyswitch::ExtPoly;
use tensorfhe_ckks::{CkksContext, CkksParams, Domain, RnsPoly};

/// The shape of every paper preset — `(L, K, dnum)` and the prime width —
/// at a degree small enough to run every level in a debug build. The key
/// switch's control flow depends on the shape, not on `N`.
pub fn preset_shapes() -> Vec<CkksParams> {
    [
        CkksParams::table_v_default(),     // α = 1, 29-bit
        CkksParams::table_v_resnet20(),    // α = 3
        CkksParams::table_v_lr(),          // α = 3
        CkksParams::table_v_lstm(),        // α = 2
        CkksParams::table_v_packed_boot(), // α = 2
        CkksParams::table_vii_bootstrap(), // α = 7
        CkksParams::heax_set_a(),          // α = 1, K = 2
        CkksParams::heax_set_b(),          // α = 1, K = 4
        CkksParams::heax_set_c(),          // α = 1, K = 8
    ]
    .iter()
    .map(|p| {
        CkksParams::new(
            format!("{}@64", p.name()),
            64,
            p.max_level(),
            p.special_primes(),
            p.dnum(),
            p.prime_bits(),
            p.scale_bits(),
            p.batch_size(),
        )
        .expect("a paper preset's shape is valid at any degree")
    })
    .collect()
}

/// A polynomial at `level` with uniformly random residues, labelled
/// `domain`.
pub fn random_poly(ctx: &CkksContext, rng: &mut StdRng, level: usize, domain: Domain) -> RnsPoly {
    let n = ctx.params().n();
    let limbs = (0..=level)
        .map(|i| {
            let q = ctx.q_mod(i).value();
            (0..n).map(|_| rng.gen_range(0..q)).collect()
        })
        .collect();
    RnsPoly::from_limbs(limbs, domain)
}

/// A uniformly random NTT-domain extended polynomial at `level`.
pub fn random_ext(ctx: &CkksContext, rng: &mut StdRng, level: usize) -> ExtPoly {
    let mut e = ExtPoly::zero(ctx, level, Domain::Ntt);
    for (i, limb) in e.q_limbs.iter_mut().enumerate() {
        let q = ctx.q_mod(i).value();
        limb.iter_mut().for_each(|x| *x = rng.gen_range(0..q));
    }
    for (k, limb) in e.p_limbs.iter_mut().enumerate() {
        let p = ctx.p_mod(k).value();
        limb.iter_mut().for_each(|x| *x = rng.gen_range(0..p));
    }
    e
}
