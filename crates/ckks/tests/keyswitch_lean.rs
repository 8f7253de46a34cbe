//! The NTT-lean, limb-major key switch against the literal Algorithm 1.
//!
//! `key_switch` borrows own limbs from its NTT-domain input, reduces
//! single-limb digits, transforms limb by limb and subtracts in the NTT
//! domain; the reference, `key_switch_literal`, is the composition of the
//! public whole-polynomial helpers — `mod_up` →
//! `ExtPoly::ntt_forward_batch` → `ExtPoly::mul_acc` → `mod_down_batch` —
//! which raises, transforms and multiplies every limb of every digit. Both
//! must produce the same bits at every digit width the paper's presets use
//! and at every level. That reference ends in `mod_down_batch`, which
//! already subtracts in the NTT domain, so the ModDown is held separately
//! to [`mod_down_coeff`], the coefficient-domain ModDown of Algorithm 1
//! kept here as a test-only reference. The pooled scratch a switch works in
//! must stop growing after the first call.

mod common;

use common::{preset_shapes, random_ext, random_poly};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensorfhe_ckks::keyswitch::{
    key_switch, key_switch_literal, mod_down_batch, mod_up, ExtPoly, KeySwitchShape, KsDigit, KsKey,
};
use tensorfhe_ckks::trace::Tracing;
use tensorfhe_ckks::{CkksContext, CkksParams, Domain, RnsPoly};
use tensorfhe_math::scratch;

/// A key of uniformly random digits over the full basis: the switch is an
/// arithmetic identity in the key, so no key generation is needed.
fn random_key(ctx: &CkksContext, rng: &mut StdRng) -> KsKey {
    let top = ctx.params().max_level();
    let digits = (0..ctx.params().dnum())
        .map(|_| KsDigit {
            b: random_ext(ctx, rng, top),
            a: random_ext(ctx, rng, top),
        })
        .collect();
    KsKey { digits }
}

/// ModDown as Algorithm 1 writes it, in the coefficient domain: every limb
/// of the accumulator inverse-transformed, the special limbs converted with
/// the block kernel, `(acc_i − conv_i)·P^{-1}` with the scalar `Modulus`
/// operations, the result forward-transformed. Shares no loop with
/// `mod_down_batch`.
fn mod_down_coeff(ctx: &CkksContext, acc: &ExtPoly) -> RnsPoly {
    let n = ctx.params().n();
    let table = ctx.moddown_table(acc.level());
    let mut acc = acc.clone();
    acc.ntt_inverse(ctx);
    let mut conv = vec![vec![0u64; n]; acc.q_limbs.len()];
    {
        let src: Vec<&[u64]> = acc.p_limbs.iter().map(Vec::as_slice).collect();
        let mut out: Vec<&mut [u64]> = conv.iter_mut().map(Vec::as_mut_slice).collect();
        table.conv.convert_block_into(&src, &mut out);
    }
    let mut limbs = acc.q_limbs;
    for (i, (limb, conv)) in limbs.iter_mut().zip(&conv).enumerate() {
        let (m, p_inv) = (ctx.q_mod(i), table.p_inv_mod_q[i]);
        for (x, &c) in limb.iter_mut().zip(conv) {
            *x = m.mul(m.sub(*x, c), p_inv);
        }
    }
    let mut out = RnsPoly::from_limbs(limbs, Domain::Coeff);
    out.ntt_forward(ctx);
    out
}

/// A random polynomial at `level` under `key`, through `key_switch` and
/// through the reference.
fn assert_matches_reference(ctx: &CkksContext, key: &KsKey, rng: &mut StdRng, level: usize) {
    let d = random_poly(ctx, rng, level, Domain::Ntt);
    let got = key_switch(ctx, &mut Tracing::new(None), &d, key);
    let want = key_switch_literal(ctx, &d, key);
    assert_eq!(got, want, "{} level {level}", ctx.params().name());
    assert_eq!(got.0.domain(), Domain::Ntt);
}

#[test]
fn lean_key_switch_matches_reference_at_every_preset_shape_and_level() {
    let mut rng = StdRng::seed_from_u64(0x1ea1);
    let mut alphas = std::collections::BTreeSet::new();
    for params in preset_shapes()
        .into_iter()
        .chain([CkksParams::toy(), CkksParams::test_small()])
    {
        alphas.insert(params.alpha());
        let ctx = CkksContext::new(&params).expect("ctx");
        let key = random_key(&ctx, &mut rng);
        let mut partial_digit = false;
        for level in 0..=params.max_level() {
            partial_digit |= !(level + 1).is_multiple_of(params.alpha());
            assert_matches_reference(&ctx, &key, &mut rng, level);
        }
        assert_eq!(
            partial_digit,
            params.alpha() > 1,
            "levels 0..=L cover a partial last digit whenever α > 1"
        );
    }
    assert!(
        [1, 2, 3, 7].iter().all(|a| alphas.contains(a)),
        "digit widths covered: {alphas:?}"
    );
}

#[test]
fn ntt_domain_mod_down_matches_the_coefficient_domain_mod_down() {
    // `(acc_i − NTT(conv_i))·P^{-1}` against `NTT((INTT(acc_i) − conv_i)·
    // P^{-1})` on uniformly random accumulators: every preset shape, every
    // level, one accumulator and an odd batch.
    let mut rng = StdRng::seed_from_u64(0xd0);
    for params in preset_shapes()
        .into_iter()
        .chain([CkksParams::toy(), CkksParams::test_small()])
    {
        let ctx = CkksContext::new(&params).expect("ctx");
        for level in 0..=params.max_level() {
            for accs in [1usize, 3] {
                let accs: Vec<ExtPoly> = (0..accs)
                    .map(|_| random_ext(&ctx, &mut rng, level))
                    .collect();
                let views: Vec<&ExtPoly> = accs.iter().collect();
                let got = mod_down_batch(&ctx, &mut Tracing::new(None), &views);
                let want: Vec<RnsPoly> = accs.iter().map(|a| mod_down_coeff(&ctx, a)).collect();
                assert_eq!(got, want, "{} level {level}", params.name());
            }
        }
    }
}

#[test]
fn lean_key_switch_matches_algorithm_1_with_the_coefficient_domain_mod_down() {
    // The whole of Algorithm 1 as written — every digit raised whole, all
    // `D·E` limbs transformed and multiplied, both accumulators taken back
    // to the coefficient domain — at every preset shape, at a full and a
    // partial last digit.
    let mut rng = StdRng::seed_from_u64(0xa1);
    for params in preset_shapes()
        .into_iter()
        .chain([CkksParams::toy(), CkksParams::test_small()])
    {
        let ctx = CkksContext::new(&params).expect("ctx");
        let key = random_key(&ctx, &mut rng);
        for level in [params.max_level(), params.max_level().saturating_sub(1), 0] {
            let d = random_poly(&ctx, &mut rng, level, Domain::Ntt);
            let mut silent = Tracing::new(None);
            let mut d_coeff = d.clone();
            d_coeff.ntt_inverse(&ctx);
            let digits = KeySwitchShape::new(&params, level).digits();
            let mut exts: Vec<ExtPoly> = (0..digits)
                .map(|j| mod_up(&ctx, &mut silent, &d_coeff, j))
                .collect();
            ExtPoly::ntt_forward_batch(&ctx, &mut exts);
            let mut acc0 = ExtPoly::zero(&ctx, level, Domain::Ntt);
            let mut acc1 = ExtPoly::zero(&ctx, level, Domain::Ntt);
            for (ext, digit) in exts.iter().zip(&key.digits) {
                acc0.mul_acc(&ctx, ext, &digit.b);
                acc1.mul_acc(&ctx, ext, &digit.a);
            }
            let want = (mod_down_coeff(&ctx, &acc0), mod_down_coeff(&ctx, &acc1));
            let got = key_switch(&ctx, &mut silent, &d, &key);
            assert_eq!(got, want, "{} level {level}", params.name());
        }
    }
}

#[test]
fn lean_key_switch_matches_reference_at_the_benchmark_parameters() {
    // The real HEAX sets that fit a debug-build CI run, on both NTT
    // formulations' shared arithmetic (the butterfly context).
    let mut rng = StdRng::seed_from_u64(0xb);
    for params in [CkksParams::heax_set_a(), CkksParams::heax_set_b()] {
        let ctx = CkksContext::new(&params).expect("ctx");
        let key = random_key(&ctx, &mut rng);
        for level in [params.max_level(), 0] {
            assert_matches_reference(&ctx, &key, &mut rng, level);
        }
    }
}

/// Repeated key switches must reach a scratch steady state with the first
/// call: its pooled blocks (input coefficients, ModUp rows, special-limb
/// accumulators, ModDown rows) are bounded by the switch's own shape and
/// are reused, not re-grown, by every later call.
#[test]
fn repeated_key_switch_drains_do_not_grow_scratch_state() {
    let mut rng = StdRng::seed_from_u64(4243);
    for params in preset_shapes().into_iter().chain([CkksParams::toy()]) {
        let ctx = CkksContext::new(&params).expect("ctx");
        let level = params.max_level();
        let key = random_key(&ctx, &mut rng);
        let d = random_poly(&ctx, &mut rng, level, Domain::Ntt);
        let drain = || {
            let _ = key_switch(&ctx, &mut Tracing::new(None), &d, &key);
        };
        scratch::clear_thread_pool();
        drain();
        let warm = scratch::thread_stats();
        for _ in 0..5 {
            drain();
        }
        assert_eq!(
            scratch::thread_stats(),
            warm,
            "{}: key switches must reuse pooled scratch, not grow it",
            params.name()
        );
        // No `digits × (l+1+K)` block: the pool holds the input's
        // coefficients, one ModUp row per digit, and ModDown's two
        // accumulators' special limbs and converted rows.
        let shape = KeySwitchShape::new(&params, level);
        let rows = shape.limbs() + shape.digits() + 2 * shape.special() + 2;
        assert!(
            warm.u64_capacity <= rows * params.n(),
            "{}: {} pooled words for a {rows}-row live set",
            params.name(),
            warm.u64_capacity
        );
        assert_eq!(warm.u128_buffers, 0);
    }
}
