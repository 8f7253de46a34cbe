//! The batched RNS-NTT execution layer seen from the CKKS substrate:
//! `RnsPoly::ntt_forward_batch` / `ntt_inverse_batch` must be bit-identical
//! to the per-limb transforms under **all three** `NttAlgorithm` variants,
//! and contexts must share twiddle plans through the process-wide cache.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_ckks::poly::Domain;
use tensorfhe_ckks::{CkksContext, CkksParams, RnsPoly};
use tensorfhe_ntt::NttAlgorithm;

const ALGOS: [NttAlgorithm; 3] = [
    NttAlgorithm::Butterfly,
    NttAlgorithm::FourStep,
    NttAlgorithm::TensorCore,
];

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

/// The acceptance property of the batched layer: `ntt_forward_batch` output
/// equals per-limb `ntt_forward` output exactly, for every algorithm, and
/// the three algorithms agree with each other.
#[test]
fn ntt_forward_batch_bit_identical_across_all_variants() {
    let params = CkksParams::test_small();
    let level = 3;
    let mut rng = StdRng::seed_from_u64(71);
    // One shared set of limb data reused across algorithms (primes are a
    // pure function of the parameters, so limbs are interchangeable).
    let reference = CkksContext::new(&params).expect("ctx");
    let block: Vec<RnsPoly> = (0..3)
        .map(|_| random_poly(&reference, &mut rng, level))
        .collect();

    let mut per_algo: Vec<Vec<RnsPoly>> = Vec::new();
    for algo in ALGOS {
        let ctx = CkksContext::with_algorithm(&params, algo).expect("ctx");
        assert_eq!(ctx.ntt_algorithm(), algo);

        let mut per_limb = block.clone();
        for p in &mut per_limb {
            p.ntt_forward(&ctx);
        }
        let mut batched = block.clone();
        {
            let mut views: Vec<&mut RnsPoly> = batched.iter_mut().collect();
            RnsPoly::ntt_forward_batch(&ctx, &mut views);
        }
        assert_eq!(per_limb, batched, "{algo:?}: batched forward != per-limb");

        // And back: batched inverse matches per-limb inverse and restores
        // the input.
        let mut inv_per_limb = per_limb.clone();
        for p in &mut inv_per_limb {
            p.ntt_inverse(&ctx);
        }
        {
            let mut views: Vec<&mut RnsPoly> = batched.iter_mut().collect();
            RnsPoly::ntt_inverse_batch(&ctx, &mut views);
        }
        assert_eq!(
            inv_per_limb, batched,
            "{algo:?}: batched inverse != per-limb"
        );
        assert_eq!(batched, block, "{algo:?}: roundtrip failed");

        per_algo.push(per_limb);
    }
    assert_eq!(per_algo[0], per_algo[1], "butterfly vs four-step");
    assert_eq!(per_algo[1], per_algo[2], "four-step vs tensor-core");
}

#[test]
fn contexts_share_plans_through_the_global_cache() {
    let params = CkksParams::toy();
    let a = CkksContext::with_algorithm(&params, NttAlgorithm::TensorCore).expect("ctx");
    let b = CkksContext::with_algorithm(&params, NttAlgorithm::TensorCore).expect("ctx");
    // Same (N, q, algorithm) key ⇒ the very same plan allocation.
    assert!(
        std::ptr::eq(a.ntt_q(0), b.ntt_q(0)),
        "contexts must share cached twiddle plans"
    );
    // A different algorithm gets its own plan.
    let c = CkksContext::with_algorithm(&params, NttAlgorithm::FourStep).expect("ctx");
    assert!(!std::ptr::eq(a.ntt_q(0), c.ntt_q(0)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Ragged `B×L` blocks at the CKKS layer: any batch width and any
    /// level, batched and per-limb paths agree exactly.
    #[test]
    fn ragged_rns_blocks_match_per_limb(
        b in 1usize..5,
        level in 0usize..4,
        algo_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let params = CkksParams::toy();
        let ctx = CkksContext::with_algorithm(&params, ALGOS[algo_idx]).expect("ctx");
        let mut rng = StdRng::seed_from_u64(seed);
        let block: Vec<RnsPoly> = (0..b).map(|_| random_poly(&ctx, &mut rng, level)).collect();

        let mut per_limb = block.clone();
        for p in &mut per_limb {
            p.ntt_forward(&ctx);
        }
        let mut batched = block.clone();
        {
            let mut views: Vec<&mut RnsPoly> = batched.iter_mut().collect();
            RnsPoly::ntt_forward_batch(&ctx, &mut views);
        }
        prop_assert_eq!(&per_limb, &batched);
        {
            let mut views: Vec<&mut RnsPoly> = batched.iter_mut().collect();
            RnsPoly::ntt_inverse_batch(&ctx, &mut views);
        }
        prop_assert_eq!(&batched, &block);
    }
}

/// The GEMM register tile is selected from the prime alone, once per
/// operand. Every prime chain of every paper preset must land on the
/// narrow single-accumulator tile, and the run length it was sized for
/// must cover the four-step inner dimensions the preset's degree implies:
/// no spill at all with 28-bit primes, runs of at least 64 (four per
/// `k = 256` product) for the 29-bit Default set.
#[test]
fn every_paper_preset_prime_selects_the_narrow_tile() {
    use tensorfhe_math::gemm_fast::MontOperand;
    use tensorfhe_math::prime::{generate_ntt_primes, generate_ntt_primes_excluding};
    use tensorfhe_math::simd::Narrow;

    let presets = [
        CkksParams::table_v_default(),
        CkksParams::table_v_resnet20(),
        CkksParams::table_v_lr(),
        CkksParams::table_v_lstm(),
        CkksParams::table_v_packed_boot(),
        CkksParams::table_vii_bootstrap(),
        CkksParams::heax_set_a(),
        CkksParams::heax_set_b(),
        CkksParams::heax_set_c(),
        CkksParams::test_small(),
        CkksParams::toy(),
    ];
    for params in &presets {
        // The chain `CkksContext` builds, without its plans and keys.
        let (n, bits) = (params.n() as u64, params.prime_bits());
        let mut primes = generate_ntt_primes(params.max_level() + 1, bits, n);
        let special = generate_ntt_primes_excluding(params.special_primes(), bits, n, &primes);
        primes.extend(special);
        // The larger side of the N = N1·N2 split is the deepest product.
        let k_max = 1usize << params.n().trailing_zeros().div_ceil(2);
        for &q in &primes {
            let label = MontOperand::new(q, &[], 0, 0).kernel().label();
            assert_eq!(label, "narrow", "{}: q = {q}", params.name());
            let fold = Narrow::select(q).expect("word-size prime").fold();
            if bits <= 28 {
                assert!(fold >= k_max, "{}: q = {q} spills", params.name());
            } else {
                assert!(fold >= 64, "{}: q = {q} runs {fold}", params.name());
            }
        }
    }
}
