//! The four-step plan's staged host pass (one GEMM per radix, three from
//! `N = 2^9` on) against Eq. 9's two-factor Barrett reference pipeline on
//! the prime chain of every paper preset, at its own degree, over ragged
//! block widths: the two share no kernel code beyond the plan's root, so
//! bit-equality here is an independent check of every stage constant and
//! index map a CKKS context runs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use tensorfhe_ckks::{CkksContext, CkksParams};
use tensorfhe_ntt::{BatchedGemmNtt, NttAlgorithm, NttBatchOps};

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

fn views(block: &mut [Vec<u64>]) -> Vec<&mut [u64]> {
    block.iter_mut().map(Vec::as_mut_slice).collect()
}

/// Block widths the primes cycle through.
const WIDTHS: [usize; 4] = [1, 2, 3, 7];

/// From this degree on, an unoptimised build checks only the first new
/// prime of a chain, one row: the Barrett reference does
/// `N·(N1 + N2)` `u128` multiply-accumulates per row, 33 M at `N = 2^16`.
/// Optimised builds check every prime at every width.
const DEBUG_TRIM_N: usize = 1 << 15;

#[test]
fn staged_pass_matches_the_eq9_reference_on_every_preset_chain() {
    let mut rng = StdRng::seed_from_u64(91);
    let mut seen = BTreeSet::new();
    let mut checked = 0usize;
    for params in &presets() {
        let ctx = CkksContext::new(params).expect("preset is valid");
        let n = params.n();
        let chain: Vec<u64> = ctx
            .q_primes()
            .iter()
            .chain(ctx.p_primes())
            .copied()
            .filter(|&q| seen.insert((n, q)))
            .collect();
        let trim = cfg!(debug_assertions) && n >= DEBUG_TRIM_N;
        for (i, &q) in chain.iter().enumerate() {
            if trim && i != 0 {
                break;
            }
            let b = if trim {
                1
            } else {
                WIDTHS[checked % WIDTHS.len()]
            };
            checked += 1;
            let plan = BatchedGemmNtt::new(n, q, NttAlgorithm::FourStep);
            let orig: Vec<Vec<u64>> = (0..b)
                .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
                .collect();
            let label = format!("{} N={n} q={q} B={b}", params.name());

            let (mut staged, mut reference) = (orig.clone(), orig.clone());
            plan.forward_batch(&mut views(&mut staged));
            plan.reference_batch(&mut views(&mut reference), false);
            assert_eq!(staged, reference, "forward {label}");

            plan.inverse_batch(&mut views(&mut staged));
            plan.reference_batch(&mut views(&mut reference), true);
            assert_eq!(staged, reference, "inverse {label}");
            assert_eq!(staged, orig, "roundtrip {label}");
        }
    }
    assert!(checked >= 9, "every preset contributes a prime");
}
