//! Cross-kernel bit-identity: the cache-blocked Montgomery fast kernels
//! (every caller's default path) vs the Barrett scalar reference, across
//! the conversion shapes of all nine paper presets (28- and 31-bit primes)
//! and the batched-NTT block shapes — including both register tiles (the 4-lane limb-split
//! SIMD tile and the scalar `u128` tile) on every preset's GEMM shapes,
//! the fused four-step pipeline at every preset's `(N, q)`, the
//! evaluator's bench circuit on the GEMM context vs the butterfly one and
//! against ciphertext digests recorded before the word-size kernels —
//! plus the no-allocation-growth property of the pooled scratch arenas
//! under repeated key-switch drains.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tensorfhe_ckks::keyswitch::{mod_down_batch, ExtPoly};
use tensorfhe_ckks::trace::{RecordingTracer, Tracing};
use tensorfhe_ckks::{Ciphertext, CkksContext, CkksParams, Domain, Evaluator, KeyChain};
use tensorfhe_math::gemm_fast::{gemm_lm_with, gemm_rm_with, MontOperand};
use tensorfhe_math::prime::generate_ntt_primes;
use tensorfhe_math::scratch;
use tensorfhe_math::simd::{scalar_tile, simd4};
use tensorfhe_math::Modulus;
use tensorfhe_ntt::{BatchedGemmNtt, NttAlgorithm, NttBatchOps, NttOps, NttTable, PlanCache};

/// All nine paper parameter presets (Table V, Table VII, HEAX sets).
fn presets() -> [CkksParams; 9] {
    [
        CkksParams::table_v_default(),
        CkksParams::table_v_resnet20(),
        CkksParams::table_v_lr(),
        CkksParams::table_v_lstm(),
        CkksParams::table_v_packed_boot(),
        CkksParams::table_vii_bootstrap(),
        CkksParams::heax_set_a(),
        CkksParams::heax_set_b(),
        CkksParams::heax_set_c(),
    ]
}

/// Every `(L_src, L_dst)` conversion shape a parameter set exercises
/// (ModUp digits at every level, ModDown at every level).
fn conversion_shapes(params: &CkksParams) -> BTreeSet<(usize, usize)> {
    let (alpha, k) = (params.alpha(), params.special_primes());
    let mut shapes = BTreeSet::new();
    for level in 0..=params.max_level() {
        let limbs = level + 1;
        for digit in 0..limbs.div_ceil(alpha) {
            let src = alpha.min(limbs - digit * alpha);
            shapes.insert((src, limbs - src + k));
        }
        shapes.insert((k, limbs));
    }
    shapes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The conversion block kernel (32-bit Montgomery folds in `u64` lanes,
    /// through either entry point) must be bit-identical to the scalar
    /// `convert_coeff` walk (128-bit Barrett accumulation) on every
    /// conversion shape any paper preset uses plus a 15-limb source basis,
    /// at arbitrary block widths (block-edge widths included) — with 28-bit
    /// primes (one fold per output at every shape) and with 31-bit primes
    /// (two source limbs per fold: the accumulation-depth edge).
    #[test]
    fn mont_conv_bit_identical_across_paper_presets(
        width in 1usize..80,
        seed in 0u64..1_000_000,
    ) {
        let mut shapes = BTreeSet::new();
        for p in &presets() {
            shapes.extend(conversion_shapes(p));
        }
        shapes.insert((15, 4));
        let max_src = shapes.iter().map(|&(s, _)| s).max().expect("non-empty");
        let max_dst = shapes.iter().map(|&(_, d)| d).max().expect("non-empty");

        let mut rng = StdRng::seed_from_u64(seed);
        for bits in [28, 31] {
            let pool = generate_ntt_primes(max_src + max_dst, bits, 1 << 10);
            for &(l_src, l_dst) in &shapes {
                let (src, rest) = pool.split_at(l_src);
                let dst = &rest[..l_dst];
                // Shared through the process-wide cache, like the service path.
                let gemm = PlanCache::global().get_bconv(src, dst);
                // Column 0 is saturated: every residue q − 1.
                let src_rows: Vec<Vec<u64>> = src
                    .iter()
                    .map(|&q| {
                        (0..width)
                            .map(|c| if c == 0 { q - 1 } else { rng.gen_range(0..q) })
                            .collect()
                    })
                    .collect();
                let views: Vec<&[u64]> = src_rows.iter().map(Vec::as_slice).collect();
                let block = gemm.convert_block(&views);
                let mut mont = vec![vec![0u64; width]; l_dst];
                {
                    let mut out: Vec<&mut [u64]> =
                        mont.iter_mut().map(Vec::as_mut_slice).collect();
                    gemm.convert_block_into_mont(&views, &mut out);
                }
                prop_assert_eq!(
                    &mont, &block,
                    "entry points, {}-bit shape ({} → {}) width {}", bits, l_src, l_dst, width
                );
                for c in 0..width {
                    let residues: Vec<u64> = src_rows.iter().map(|r| r[c]).collect();
                    let scalar = gemm.table().convert_coeff(&residues);
                    for (j, row) in block.iter().enumerate() {
                        prop_assert_eq!(
                            row[c], scalar[j],
                            "{}-bit shape ({} → {}) width {} column {} limb {}",
                            bits, l_src, l_dst, width, c, j
                        );
                    }
                }
            }
        }
    }

    /// Both register tiles of the blocked Montgomery GEMM — the 4-lane
    /// limb-split SIMD tile and the scalar `u128` tile — must reproduce
    /// the Barrett schoolbook result bit-for-bit on every paper preset's
    /// GEMM shapes: the preset's widest basis-conversion matrix and its
    /// four-step NTT twiddle panel (clamped to 64 so the debug-build
    /// replay stays fast; the full-size panels are covered in release by
    /// the cross-backend suite and `fig15_simd_steal`). Regression seeds
    /// live in `proptest-regressions/fast_kernels.txt` and replay first
    /// on every run.
    #[test]
    fn simd_tile_bit_identical_across_paper_presets(
        width in 1usize..48,
        seed in 0u64..1_000_000,
    ) {
        let q = generate_ntt_primes(1, 30, 1 << 10)[0];
        let modulus = Modulus::new(q);
        let mut rng = StdRng::seed_from_u64(seed);
        for params in &presets() {
            let (l_src, l_dst) = conversion_shapes(params)
                .into_iter()
                .max_by_key(|&(s, d)| s * d)
                .expect("presets have conversion shapes");
            let panel = (1usize << (params.n().trailing_zeros() / 2)).min(64);
            for &(k, n) in &[(l_src, l_dst), (panel, panel)] {
                let a: Vec<u64> = (0..width * k).map(|_| rng.gen_range(0..q)).collect();
                let b: Vec<u64> = (0..k * n).map(|_| rng.gen_range(0..q)).collect();
                let mut want = vec![0u64; width * n];
                for i in 0..width {
                    for j in 0..n {
                        let mut acc = 0u64;
                        for kk in 0..k {
                            acc = modulus.mul_add(a[i * k + kk], b[kk * n + j], acc);
                        }
                        want[i * n + j] = acc;
                    }
                }
                let bm = MontOperand::new(q, &b, k, n);
                let am = MontOperand::new(q, &a, width, k);
                for kernel in [scalar_tile(), simd4()] {
                    let mut got = vec![0u64; width * n];
                    gemm_rm_with(&a, width, &bm, kernel, &mut got);
                    prop_assert_eq!(
                        &got, &want,
                        "rm {} n_poly={} k={} n={} width={}",
                        kernel.label(), params.n(), k, n, width
                    );
                    let mut got_l = vec![0u64; width * n];
                    gemm_lm_with(&am, &b, n, kernel, &mut got_l);
                    prop_assert_eq!(
                        &got_l, &want,
                        "lm {} n_poly={} k={} n={} width={}",
                        kernel.label(), params.n(), k, n, width
                    );
                }
            }
        }
    }

    /// The default batched-NTT path (the fused Montgomery pipeline under
    /// the four-step formulation) must be bit-identical to the named
    /// Barrett reference (and invert it) at every degree/batch/algorithm
    /// corner.
    #[test]
    fn fast_ntt_batch_bit_identical_to_scalar(
        log_n in 6u32..11,
        b in 1usize..6,
        seed in 0u64..1_000_000,
    ) {
        let n = 1usize << log_n;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let mut rng = StdRng::seed_from_u64(seed);
        for algo in [
            NttAlgorithm::Butterfly,
            NttAlgorithm::FourStep,
            NttAlgorithm::TensorCore,
        ] {
            let plan = PlanCache::global().get(n, q, algo);
            let orig: Vec<Vec<u64>> = (0..b)
                .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
                .collect();
            let mut scalar = orig.clone();
            let mut fast = orig.clone();
            plan.reference_batch(&mut views(&mut scalar), false);
            plan.forward_batch(&mut views(&mut fast));
            prop_assert_eq!(&scalar, &fast, "{:?} forward n={} b={}", algo, n, b);
            plan.inverse_batch_fast(&mut views(&mut fast));
            prop_assert_eq!(&fast, &orig, "{:?} roundtrip n={} b={}", algo, n, b);
        }
    }
}

fn views(block: &mut [Vec<u64>]) -> Vec<&mut [u64]> {
    block.iter_mut().map(Vec::as_mut_slice).collect()
}

/// One block through the four-step plan's default path, the Barrett
/// reference and per-row butterflies: all three bit-identical, forward
/// and back.
fn check_four_step_block(n: usize, q: u64, b: usize, rng: &mut StdRng) {
    let butterfly = NttTable::new(n, q);
    let plan = BatchedGemmNtt::new(n, q, NttAlgorithm::FourStep);
    let orig: Vec<Vec<u64>> = (0..b)
        .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
        .collect();
    let mut want = orig.clone();
    want.iter_mut().for_each(|row| butterfly.forward(row));

    let mut fused = orig.clone();
    plan.forward_batch(&mut views(&mut fused));
    assert_eq!(fused, want, "fused forward vs butterfly N={n} q={q} B={b}");
    let mut reference = orig.clone();
    plan.reference_batch(&mut views(&mut reference), false);
    assert_eq!(
        reference, want,
        "reference forward vs butterfly N={n} q={q} B={b}"
    );

    plan.inverse_batch(&mut views(&mut fused));
    assert_eq!(fused, orig, "fused inverse N={n} q={q} B={b}");
    plan.reference_batch(&mut views(&mut reference), true);
    assert_eq!(reference, orig, "reference inverse N={n} q={q} B={b}");
}

/// The default four-step path at every paper preset's `(N, q)` — square
/// splits (2^12, 2^14, 2^16) and rectangular ones (2^13 → 128×64,
/// 2^15 → 256×128) — plus the largest NTT-friendly prime below 2^32 (the
/// fused twiddle epilogue next to the saturation bound).
#[test]
fn fused_four_step_bit_identical_at_every_preset_modulus() {
    let mut rng = StdRng::seed_from_u64(77);
    let mut seen = BTreeSet::new();
    for params in &presets() {
        let n = params.n();
        let q = generate_ntt_primes(1, params.prime_bits(), n as u64)[0];
        if seen.insert((n, q)) {
            check_four_step_block(n, q, 1, &mut rng);
        }
    }
    let n = 1usize << 13;
    let q = generate_ntt_primes(1, 32, n as u64)[0];
    assert!(q > (1 << 32) - (1 << 20), "prime {q} is not near 2^32");
    check_four_step_block(n, q, 2, &mut rng);
}

/// Ragged block widths at the HEAX set B shape (the rectangular 128×64
/// split) and at degrees whose panels are narrower than a register tile.
#[test]
fn fused_four_step_ragged_blocks() {
    let mut rng = StdRng::seed_from_u64(78);
    let n = CkksParams::heax_set_b().n();
    let q = generate_ntt_primes(1, 28, n as u64)[0];
    for b in [1usize, 3, 5, 47] {
        check_four_step_block(n, q, b, &mut rng);
    }
    for n in [4usize, 8, 16, 32, 64] {
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        check_four_step_block(n, q, 3, &mut rng);
    }
}

/// The benchmark's circuit — `hrotate(hadd(rescale(hmult(a, b)),
/// rescale(cmult(a, pt))), 1)` — from a fixed seed: the result ciphertext
/// and the kernel-event stream the evaluator emitted.
fn bench_circuit(ctx: &CkksContext, seed: u64) -> (Ciphertext, RecordingTracer) {
    let params = ctx.params();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut keys = KeyChain::generate(ctx, &mut rng);
    keys.gen_rotation_keys(&[1], &mut rng);
    let slots = params.slots();
    let values = |rng: &mut StdRng| -> Vec<_> {
        (0..slots)
            .map(|_| {
                tensorfhe_math::Complex64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
            })
            .collect()
    };
    let pa = ctx.encode(&values(&mut rng), params.scale()).expect("fits");
    let pt = ctx.encode(&values(&mut rng), params.scale()).expect("fits");
    let (a, b) = (keys.encrypt(&pa, &mut rng), keys.encrypt(&pt, &mut rng));
    let mut tracer = RecordingTracer::new();
    let out = {
        let mut eval = Evaluator::with_tracer(ctx, Box::new(&mut tracer));
        let m = eval.hmult(&a, &b, &keys).expect("hmult");
        let m = eval.rescale(&m).expect("rescale");
        let c = eval.cmult(&a, &pt).expect("cmult");
        let c = eval.rescale(&c).expect("rescale");
        let s = eval.hadd(&m, &c).expect("hadd");
        eval.hrotate(&s, 1, &keys).expect("hrotate")
    };
    (out, tracer)
}

/// The bench circuit on the four-step context must produce the same
/// ciphertext bits and the same kernel-event stream as on the butterfly
/// context, from the same seed.
#[test]
fn bench_circuit_on_gemm_context_bit_equal_to_butterfly() {
    let params = CkksParams::test_small();
    let butterfly = CkksContext::new(&params).expect("ctx");
    let gemm = CkksContext::with_algorithm(&params, NttAlgorithm::FourStep).expect("ctx");
    let (want, want_trace) = bench_circuit(&butterfly, 2024);
    let (got, got_trace) = bench_circuit(&gemm, 2024);
    assert_eq!(got.scale.to_bits(), want.scale.to_bits());
    assert_eq!(got.c0, want.c0, "c0 differs between formulations");
    assert_eq!(got.c1, want.c1, "c1 differs between formulations");
    assert_eq!(got_trace.events, want_trace.events, "kernel-event stream");
    assert_eq!(got_trace.ops, want_trace.ops, "operation markers");
    assert!(!got_trace.events.is_empty());
}

/// FNV-1a 64 over the scale bits and every residue word, little-endian.
fn ciphertext_fnv64(ct: &Ciphertext) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut word = |w: u64| {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    word(ct.scale.to_bits());
    for poly in [&ct.c0, &ct.c1] {
        for limb in poly.limbs() {
            limb.iter().for_each(|&w| word(w));
        }
    }
    h
}

/// Golden ciphertext digests of the bench circuit on the butterfly
/// context, recorded at the commit before the word-size kernels landed
/// (64-bit Shoup butterflies, `u128` Barrett pointwise and Conv kernels):
/// any kernel change must reproduce these bits.
#[test]
fn bench_circuit_matches_golden_digest() {
    for (params, want) in [
        (CkksParams::test_small(), 0xba03_1b04_f4f9_f84d_u64),
        (CkksParams::heax_set_b(), 0x1e4a_ff06_56a3_a89f_u64),
    ] {
        let ctx = CkksContext::new(&params).expect("ctx");
        let (ct, _) = bench_circuit(&ctx, 2024);
        let got = ciphertext_fnv64(&ct);
        assert_eq!(
            got,
            want,
            "N={} digest {got:#018x} differs from the recorded {want:#018x}",
            params.n()
        );
    }
}

/// Repeated `mod_down_batch` drains must reach a scratch steady state: the
/// pooled staging buffers (concatenated special-prime block, conversion
/// output, NTT intermediates) are reused, not re-grown, per drain.
#[test]
fn repeated_mod_down_drains_do_not_grow_scratch_state() {
    let ctx = CkksContext::new(&CkksParams::toy()).expect("ctx");
    let level = ctx.params().max_level();
    let mut rng = StdRng::seed_from_u64(4242);
    let mut accs = Vec::new();
    for _ in 0..3 {
        let mut e = ExtPoly::zero(&ctx, level, Domain::Ntt);
        for (i, limb) in e.q_limbs.iter_mut().enumerate() {
            let q = ctx.q_mod(i).value();
            limb.iter_mut().for_each(|x| *x = rng.gen_range(0..q));
        }
        for (k, limb) in e.p_limbs.iter_mut().enumerate() {
            let p = ctx.p_mod(k).value();
            limb.iter_mut().for_each(|x| *x = rng.gen_range(0..p));
        }
        accs.push(e);
    }
    let views: Vec<&ExtPoly> = accs.iter().collect();

    let drain = || {
        let mut tr = Tracing::new(None);
        let out = mod_down_batch(&ctx, &mut tr, &views);
        assert_eq!(out.len(), views.len());
    };
    scratch::clear_thread_pool();
    drain();
    drain();
    let warm = scratch::thread_stats();
    for _ in 0..10 {
        drain();
    }
    assert_eq!(
        scratch::thread_stats(),
        warm,
        "ModDown drains must reuse pooled scratch, not grow it"
    );
}
