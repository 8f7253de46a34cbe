//! The NTT-lean, limb-major key switch against the literal Algorithm 1.
//!
//! `key_switch_batch` borrows own limbs from its NTT-domain input, reduces
//! single-limb digits, transforms limb by limb and subtracts in the NTT
//! domain; the reference, `key_switch_literal`, is the composition of the
//! public whole-polynomial helpers — `mod_up` →
//! `ExtPoly::ntt_forward_batch` → `ExtPoly::mul_acc` → `mod_down_batch` —
//! which raises, transforms and multiplies every limb of every digit. Both
//! must produce the same bits at every digit width the paper's presets use,
//! at every level, for one input and for batches that cross the residency
//! chunk boundary. That reference ends in `mod_down_batch`, which already
//! subtracts in the NTT domain, so the ModDown is held separately to
//! [`mod_down_coeff`], the coefficient-domain ModDown of Algorithm 1 kept
//! here as a test-only reference. The pooled scratch a switch works in must
//! stop growing after the first call.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::keyswitch::{
    key_switch, key_switch_batch, key_switch_literal, mod_down_batch, mod_up, ExtPoly,
    KeySwitchShape, KsDigit, KsKey, MAX_MODUP_BLOCK,
};
use tensorfhe_ckks::trace::Tracing;
use tensorfhe_ckks::{CkksContext, CkksParams, Domain, RnsPoly};
use tensorfhe_math::scratch;

/// The shape of every paper preset — `(L, K, dnum)` and the prime width —
/// at a degree small enough to run every level in a debug build. The key
/// switch's control flow depends on the shape, not on `N`.
fn preset_shapes() -> Vec<CkksParams> {
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

/// A uniformly random NTT-domain polynomial at `level`.
fn random_poly(ctx: &CkksContext, rng: &mut StdRng, level: usize) -> RnsPoly {
    let n = ctx.params().n();
    let limbs = (0..=level)
        .map(|i| {
            let q = ctx.q_mod(i).value();
            (0..n).map(|_| rng.gen_range(0..q)).collect()
        })
        .collect();
    RnsPoly::from_limbs(limbs, Domain::Ntt)
}

/// A uniformly random NTT-domain extended polynomial at `level`.
fn random_ext(ctx: &CkksContext, rng: &mut StdRng, level: usize) -> ExtPoly {
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

/// `inputs` random polynomials at `level`, each under its own key, through
/// `key_switch_batch` and one at a time through the reference.
fn assert_batch_matches_reference(
    ctx: &CkksContext,
    keys: &[KsKey],
    rng: &mut StdRng,
    level: usize,
    inputs: usize,
) {
    let ds: Vec<RnsPoly> = (0..inputs).map(|_| random_poly(ctx, rng, level)).collect();
    let views: Vec<&RnsPoly> = ds.iter().collect();
    let ksks: Vec<&KsKey> = (0..inputs).map(|i| &keys[i % keys.len()]).collect();
    let got = key_switch_batch(ctx, &mut Tracing::new(None), &views, &ksks);
    assert_eq!(got.len(), inputs);
    for (i, ((d, ksk), got)) in views.iter().zip(&ksks).zip(&got).enumerate() {
        let want = key_switch_literal(ctx, d, ksk);
        assert_eq!(
            *got,
            want,
            "{} level {level}, input {i} of {inputs}",
            ctx.params().name()
        );
        assert_eq!(got.0.domain(), Domain::Ntt);
    }
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
        let keys = [random_key(&ctx, &mut rng), random_key(&ctx, &mut rng)];
        let mut partial_digit = false;
        for level in 0..=params.max_level() {
            partial_digit |= !(level + 1).is_multiple_of(params.alpha());
            assert_batch_matches_reference(&ctx, &keys, &mut rng, level, 1);
        }
        assert_eq!(
            partial_digit,
            params.alpha() > 1,
            "levels 0..=L cover a partial last digit whenever α > 1"
        );
        // Several inputs under different keys, at a full and a partial
        // last digit.
        for level in [params.max_level(), params.max_level().saturating_sub(1)] {
            assert_batch_matches_reference(&ctx, &keys, &mut rng, level, 3);
        }
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
            let d = random_poly(&ctx, &mut rng, level);
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
fn lean_key_switch_matches_reference_across_the_chunk_boundary() {
    let mut rng = StdRng::seed_from_u64(0xc0de);
    for params in [CkksParams::toy(), CkksParams::test_small()] {
        let ctx = CkksContext::new(&params).expect("ctx");
        let keys = [
            random_key(&ctx, &mut rng),
            random_key(&ctx, &mut rng),
            random_key(&ctx, &mut rng),
        ];
        for level in [params.max_level(), 2] {
            let digits = KeySwitchShape::new(&params, level).digits();
            let chunk = (MAX_MODUP_BLOCK / digits).max(1);
            // One short of a chunk, exactly one, one over, and two chunks
            // plus a ragged tail.
            for inputs in [chunk - 1, chunk, chunk + 1, 2 * chunk + 1] {
                assert_batch_matches_reference(&ctx, &keys, &mut rng, level, inputs.max(1));
            }
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
        let keys = [random_key(&ctx, &mut rng)];
        for level in [params.max_level(), 0] {
            assert_batch_matches_reference(&ctx, &keys, &mut rng, level, 2);
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
        let d = random_poly(&ctx, &mut rng, level);
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
