//! GEMM-lowered basis conversion: exact equivalence with the scalar
//! reference across every conversion shape the paper's parameter sets use,
//! plus a ragged-batch property test at the key-switch layer.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tensorfhe_ckks::keyswitch::{mod_down_batch, mod_up, ExtPoly};
use tensorfhe_ckks::trace::Tracing;
use tensorfhe_ckks::{CkksContext, CkksParams, Domain, RnsPoly};
use tensorfhe_math::crt::BasisConvGemm;
use tensorfhe_math::prime::generate_ntt_primes;

/// Every `(L_src, L_dst)` conversion shape a parameter set exercises:
/// ModUp digits (full and partial) at every level, plus ModDown at every
/// level.
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

#[test]
fn gemm_matches_scalar_for_all_paper_conversion_shapes() {
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
    ];
    let mut shapes = BTreeSet::new();
    for p in &presets {
        shapes.extend(conversion_shapes(p));
    }
    assert!(shapes.len() > 50, "paper presets span many shapes");

    // One shared prime pool (prime count = widest src + widest dst shape);
    // the equivalence depends only on shapes, not on the degree the primes
    // were generated for.
    let max_src = shapes.iter().map(|&(s, _)| s).max().expect("non-empty");
    let max_dst = shapes.iter().map(|&(_, d)| d).max().expect("non-empty");
    let pool = generate_ntt_primes(max_src + max_dst, 28, 1 << 10);

    let width = 9usize;
    let mut rng = StdRng::seed_from_u64(1009);
    for &(l_src, l_dst) in &shapes {
        let (src, rest) = pool.split_at(l_src);
        let dst = &rest[..l_dst];
        let gemm = BasisConvGemm::new(src, dst);
        let src_rows: Vec<Vec<u64>> = src
            .iter()
            .map(|&q| (0..width).map(|_| rng.gen_range(0..q)).collect())
            .collect();
        let views: Vec<&[u64]> = src_rows.iter().map(Vec::as_slice).collect();
        let block = gemm.convert_block(&views);
        for c in 0..width {
            let residues: Vec<u64> = src_rows.iter().map(|r| r[c]).collect();
            let scalar = gemm.table().convert_coeff(&residues);
            for (j, row) in block.iter().enumerate() {
                assert_eq!(
                    row[c], scalar[j],
                    "shape ({l_src} → {l_dst}), coefficient {c}, target {j}"
                );
            }
        }
        // The row entry point the limb-major key switch calls: one y-stage
        // on a caller-owned block, then any target limb on its own.
        let stride = BasisConvGemm::y_stride(width);
        let mut y = vec![u64::MAX; l_src * stride];
        for (row, y_row) in src_rows.iter().zip(y.chunks_mut(stride)) {
            y_row[..width].copy_from_slice(row);
        }
        gemm.y_stage(&mut y, width);
        let y_rows: Vec<&[u64]> = y.chunks(stride).collect();
        for (j, want) in block.iter().enumerate().rev() {
            let mut got = vec![0u64; width];
            gemm.convert_row(j, &y_rows, &mut got);
            assert_eq!(&got, want, "shape ({l_src} → {l_dst}), row {j}");
        }
    }
}

#[test]
fn mod_up_matches_per_coefficient_scalar_reference() {
    let ctx = CkksContext::new(&CkksParams::test_small()).expect("ctx");
    let n = ctx.params().n();
    let level = ctx.params().max_level();
    let mut rng = StdRng::seed_from_u64(71);
    let coeffs: Vec<i128> = (0..n)
        .map(|_| i128::from(rng.gen_range(-(1i64 << 20)..1i64 << 20)))
        .collect();
    let d = RnsPoly::from_i128_coeffs(&ctx, &coeffs, level);

    for digit in 0..(level + 1).div_ceil(ctx.params().alpha()) {
        let mut tr = Tracing::new(None);
        let ext = mod_up(&ctx, &mut tr, &d, digit);
        let table = ctx.modup_table(digit, level);
        let (s0, s1) = (table.src_start, table.src_end);
        for c in 0..n {
            let residues: Vec<u64> = (s0..s1).map(|i| d.limb(i)[c]).collect();
            let y = table.conv.table().y_vector(&residues);
            let mut dst_idx = 0usize;
            for i in 0..=level {
                if i >= s0 && i < s1 {
                    assert_eq!(ext.q_limbs[i][c], d.limb(i)[c], "own limb copied");
                    continue;
                }
                assert_eq!(
                    ext.q_limbs[i][c],
                    table.conv.table().convert_from_y(&y, dst_idx),
                    "digit {digit}, q-limb {i}, coefficient {c}"
                );
                dst_idx += 1;
            }
            for (kk, p_limb) in ext.p_limbs.iter().enumerate() {
                assert_eq!(
                    p_limb[c],
                    table.conv.table().convert_from_y(&y, dst_idx),
                    "digit {digit}, p-limb {kk}, coefficient {c}"
                );
                dst_idx += 1;
            }
        }
    }
}

/// A random NTT-domain extended polynomial (any residue vector is some
/// polynomial's NTT image).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Ragged ModDown batches at the key-switch layer: for any batch width
    /// and level, the batched wide-GEMM path must agree bit-exactly with
    /// an independent scalar reimplementation of ModDown (per-limb INTT,
    /// per-coefficient conversion walk, scaled subtraction, per-limb NTT).
    #[test]
    fn ragged_mod_down_batch_matches_scalar_reference(
        b in 1usize..5,
        level in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let ctx = CkksContext::new(&CkksParams::toy()).expect("ctx");
        let n = ctx.params().n();
        let k = ctx.params().special_primes();
        let mut rng = StdRng::seed_from_u64(seed);
        let accs: Vec<ExtPoly> = (0..b).map(|_| random_ext(&ctx, &mut rng, level)).collect();

        let mut tr = Tracing::new(None);
        let views: Vec<&ExtPoly> = accs.iter().collect();
        let batched = mod_down_batch(&ctx, &mut tr, &views);

        let table = ctx.moddown_table(level);
        for (acc, got) in accs.iter().zip(&batched) {
            let mut work = acc.clone();
            work.ntt_inverse(&ctx);
            let mut limbs = Vec::with_capacity(level + 1);
            for i in 0..=level {
                let m = ctx.q_mod(i);
                let p_inv = table.p_inv_mod_q[i];
                let limb: Vec<u64> = (0..n)
                    .map(|c| {
                        let residues: Vec<u64> =
                            (0..k).map(|kk| work.p_limbs[kk][c]).collect();
                        let y = table.conv.table().y_vector(&residues);
                        let conv = table.conv.table().convert_from_y(&y, i);
                        m.mul(m.sub(work.q_limbs[i][c], conv), p_inv)
                    })
                    .collect();
                limbs.push(limb);
            }
            let mut want = RnsPoly::from_limbs(limbs, Domain::Coeff);
            want.ntt_forward(&ctx);
            prop_assert_eq!(&want, got);
        }
    }
}
