//! Criterion microbenchmarks of the *functional* Rust kernels: the three
//! NTT formulations, modular primitives and basis conversion. These measure
//! real CPU wall time of this implementation (not the simulated GPU),
//! anchoring the repository's arithmetic performance.
//!
//! The last table sets the word-size kernels (`q < 2^31`: lazy 32-bit
//! Shoup butterflies, Barrett-64 slice kernels, the limb-split conversion
//! kernel) beside the wide bodies they replace on the evaluator's hot path.
//! Its butterfly ratio is emitted as `kernels/host_butterfly_word_vs_wide`
//! (a guarded wall-clock median, gated in `check_regression`'s `host_`
//! tolerance class). Every table times its two sides back to back in each
//! trial and guards the spread of the per-trial ratios, which a change of
//! the machine's clock state moves on both sides alike. A second table sets the narrow single-accumulator
//! GEMM tile beside the limb-split one at the two products of Eq. 9 at
//! HEAX set B and emits `kernels/host_tile_narrow_vs_split` the same way.
//! A third sets the four-step NTT's staged host pass (the radix rule's
//! list, three GEMMs from `N = 2^9`) beside Eq. 9's two-stage pass built
//! through `FourStepNtt::with_radices`, at `N = 2^12 … 2^16` (outputs
//! asserted bit-equal), and emits `kernels/host_fourstep_staged_vs_eq9`.
//! A fourth sets the butterfly NTT plan beside the four-step GEMM plan on
//! the host executor's chunk shape at the same degrees — µs and MACs per
//! row, and the winner, which is the plan `exec::host` runs — and emits
//! the `N = 2^13` ratio as `kernels/host_butterfly_vs_fourstep`.
//! A fifth sets the NTT-lean, limb-major `ckks::key_switch` — its limb
//! jobs split across the cores `KeySwitchShape::threads` names, which the
//! table prints — beside the serial composition of the public
//! whole-polynomial helpers (`key_switch_literal`: Algorithm 1 as written
//! through the inner product — every limb of every digit raised,
//! transformed and multiplied — ending in the same NTT-domain ModDown;
//! outputs asserted bit-equal) and emits
//! `kernels/host_keyswitch_lean_vs_reference`. A sixth, printed and not
//! pinned, sets `Evaluator::rescale` — split across the cores from `2^16`
//! transformed words — beside `rescale_on_one_thread` at every level of
//! HEAX set B.

use criterion::{criterion_group, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tensorfhe_bench::timing::{median_spread, paired_secs, sample_secs, MAX_SPREAD};
use tensorfhe_bench::{print_table, report};
use tensorfhe_ckks::eval::rescale_on_one_thread;
use tensorfhe_ckks::keyswitch::{key_switch, key_switch_literal, KeySwitchShape};
use tensorfhe_ckks::trace::Tracing;
use tensorfhe_ckks::{Ciphertext, CkksContext, CkksParams, Domain, Evaluator, KeyChain, RnsPoly};
use tensorfhe_math::crt::{BasisConvGemm, BasisConvTable, RnsBasis};
use tensorfhe_math::gemm_fast::{gemm_rm, gemm_rm_with, MontOperand};
use tensorfhe_math::prime::generate_ntt_primes;
use tensorfhe_math::simd;
use tensorfhe_math::Modulus;
use tensorfhe_ntt::{
    BatchedGemmNtt, FourStepNtt, NttAlgorithm, NttBatchOps, NttOps, NttTable, TensorCoreNtt,
};

fn bench_ntt_variants(c: &mut Criterion) {
    let mut group = c.benchmark_group("ntt-forward");
    for log_n in [10usize, 12] {
        let n = 1 << log_n;
        let q = generate_ntt_primes(1, 30, n as u64)[0];
        let bf = NttTable::new(n, q);
        let fs = FourStepNtt::with_root(n, q, bf.psi());
        let tc = TensorCoreNtt::with_root(n, q, bf.psi());
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();

        group.bench_with_input(BenchmarkId::new("butterfly", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                bf.forward(&mut a);
                a
            });
        });
        group.bench_with_input(BenchmarkId::new("four-step", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                fs.forward(&mut a);
                a
            });
        });
        group.bench_with_input(BenchmarkId::new("tensor-core", n), &n, |b, _| {
            b.iter(|| {
                let mut a = data.clone();
                tc.forward(&mut a);
                a
            });
        });
    }
    group.finish();
}

fn bench_modmul(c: &mut Criterion) {
    let q = generate_ntt_primes(1, 30, 1 << 10)[0];
    let m = Modulus::new(q);
    let mut rng = StdRng::seed_from_u64(2);
    let xs: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..q)).collect();
    c.bench_function("barrett-mulmod-4096", |b| {
        b.iter(|| {
            let mut acc = 1u64;
            for &x in &xs {
                acc = m.mul(acc, x);
            }
            acc
        });
    });
}

fn bench_basis_conversion(c: &mut Criterion) {
    let primes = generate_ntt_primes(8, 30, 1 << 10);
    let src = RnsBasis::new(&primes[..4]);
    let dst: Vec<Modulus> = primes[4..].iter().map(|&p| Modulus::new(p)).collect();
    let table = BasisConvTable::new(&src, &dst);
    let mut rng = StdRng::seed_from_u64(3);
    let coeffs: Vec<Vec<u64>> = (0..1024)
        .map(|_| (0..4).map(|i| rng.gen_range(0..primes[i])).collect())
        .collect();
    c.bench_function("basis-conv-1024x4to4", |b| {
        b.iter(|| {
            coeffs
                .iter()
                .map(|r| table.convert_coeff(r))
                .collect::<Vec<_>>()
        });
    });
}

/// Word-size kernels beside the wide bodies, at the HEAX set B shapes
/// (`N = 2^13`, 4 + 4 primes, `α = 1`).
fn word_size_rows() {
    let n = 1usize << 13;
    let (trials, reps) = if report::smoke() { (5, 20) } else { (9, 100) };
    let mut rng = StdRng::seed_from_u64(4);
    let mut rows = Vec::new();
    // One row from `paired_secs`' (word, wide, ratio spread).
    let mut row = |name: &str, unit: &str, per: f64, (word, wide, spread): (f64, f64, f64)| {
        rows.push(vec![
            name.to_string(),
            format!("{:.2} {unit}", word * per),
            format!("{:.2} {unit}", wide * per),
            format!("{:.2}×", wide / word),
            format!("{:.0}%", spread * 100.0),
        ]);
        (wide / word, spread <= MAX_SPREAD)
    };

    // butterfly-2^13: the largest NTT prime below 2^31 runs the word-size
    // kernel, the largest below 2^32 the wide one; same N, same stages.
    let mut ntt = |bits: u32| {
        let q = generate_ntt_primes(1, bits, n as u64)[0];
        let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        (NttTable::new(n, q), a)
    };
    let ((word, mut a), (wide, mut b)) = (ntt(31), ntt(32));
    let (ratio, quiet) = row(
        "butterfly-2^13 (fwd+inv)",
        "µs",
        1e6,
        paired_secs(
            trials,
            (reps, reps),
            || {
                word.forward(&mut a);
                word.inverse(&mut a);
            },
            || {
                wide.forward(&mut b);
                wide.inverse(&mut b);
            },
        ),
    );

    // mul-acc-slice: the key-switch inner product over one limb.
    let q = generate_ntt_primes(1, 28, n as u64)[0];
    let m = Modulus::new(q);
    let vec = |rng: &mut StdRng| -> Vec<u64> { (0..n).map(|_| rng.gen_range(0..q)).collect() };
    let (x, y) = (vec(&mut rng), vec(&mut rng));
    let (mut acc, mut acc_wide) = (vec(&mut rng), vec(&mut rng));
    row(
        "mul-acc-slice (per element)",
        "ns",
        1e9 / n as f64,
        paired_secs(
            trials,
            (reps, reps),
            || m.mul_acc_slice(&mut acc, &x, &y),
            || {
                for ((a, &xv), &yv) in acc_wide.iter_mut().zip(&x).zip(&y) {
                    *a = m.add(*a, m.mul(xv, yv));
                }
            },
        ),
    );

    // basis-conv: ModDown's K = 4 → 4 conversion of two polynomials, the
    // block kernel beside the per-coefficient scalar walk.
    let primes = generate_ntt_primes(8, 28, n as u64);
    let conv = BasisConvGemm::new(&primes[4..], &primes[..4]);
    let width = 2 * n;
    let src: Vec<Vec<u64>> = primes[4..]
        .iter()
        .map(|&p| (0..width).map(|_| rng.gen_range(0..p)).collect())
        .collect();
    let src_rows: Vec<&[u64]> = src.iter().map(Vec::as_slice).collect();
    let mut out = vec![vec![0u64; width]; 4];
    let per_out = 1e9 / (4 * width) as f64;
    row(
        "basis-conv 4→4 (per output)",
        "ns",
        per_out,
        paired_secs(
            trials,
            (reps.div_ceil(4), reps.div_ceil(20)),
            || {
                let mut out_rows: Vec<&mut [u64]> = out.iter_mut().map(Vec::as_mut_slice).collect();
                conv.convert_block_into(&src_rows, &mut out_rows);
            },
            || {
                for c in 0..width {
                    let residues: Vec<u64> = src.iter().map(|r| r[c]).collect();
                    std::hint::black_box(conv.table().convert_coeff(&residues));
                }
            },
        ),
    );

    print_table(
        &format!(
            "Word-size kernels vs wide bodies (N = 2^13, median of {trials} back-to-back trials, \
             spread of the per-trial speedup)"
        ),
        &["kernel", "word", "wide", "speedup", "spread"],
        &rows,
    );
    if quiet {
        report::emit("kernels", &[("host_butterfly_word_vs_wide", ratio)]);
    } else {
        println!("[kernels] host_butterfly_word_vs_wide not emitted: spread exceeded {MAX_SPREAD}");
    }
}

/// The narrow tile a 28-bit operand captures beside the limb-split tile
/// forced onto the same operand, at the two inner dimensions of Eq. 9 at
/// HEAX set B (`N = 2^13 = 128·64`: `k = 64` for the inner N2-NTT,
/// `k = 128` for the outer N1-DFT), 8 rows of a block each.
fn tile_rows() {
    let (trials, reps) = if report::smoke() { (5, 4) } else { (9, 20) };
    let q = generate_ntt_primes(1, 28, 1 << 13)[0];
    let mut rng = StdRng::seed_from_u64(5);
    let mut rows = Vec::new();
    let (mut secs, mut quiet) = ([0.0f64; 2], true);
    for k in [64usize, 128] {
        let m = 8 * (1 << 13) / k;
        let mut fill = |len: usize| -> Vec<u64> { (0..len).map(|_| rng.gen_range(0..q)).collect() };
        let (a, w) = (fill(m * k), MontOperand::new(q, &fill(k * k), k, k));
        assert_eq!(w.kernel().label(), "narrow", "28-bit operand");
        let (mut c, mut c_split) = (vec![0u64; m * k], vec![0u64; m * k]);
        let (narrow, split, spread) = paired_secs(
            trials,
            (reps, reps),
            || gemm_rm(&a, m, &w, &mut c),
            || gemm_rm_with(&a, m, &w, simd::simd4(), &mut c_split),
        );
        let mmacs = (m * k * k) as f64 / 1e6;
        rows.push(vec![
            format!("{m}×{k}×{k}"),
            format!("{:.0} Mmac/s", mmacs / narrow),
            format!("{:.0} Mmac/s", mmacs / split),
            format!("{:.2}×", split / narrow),
            format!("{:.0}%", spread * 100.0),
        ]);
        secs[0] += narrow;
        secs[1] += split;
        quiet &= spread <= MAX_SPREAD;
    }
    print_table(
        &format!(
            "GEMM register tile, 28-bit prime (HEAX-B four-step shapes, median of {trials} \
             back-to-back trials, spread of the per-trial speedup)"
        ),
        &["m×k×n", "narrow", "limb-split", "speedup", "spread"],
        &rows,
    );
    if quiet {
        report::emit(
            "kernels",
            &[("host_tile_narrow_vs_split", secs[1] / secs[0])],
        );
    } else {
        println!("[kernels] host_tile_narrow_vs_split not emitted: spread exceeded {MAX_SPREAD}");
    }
}

/// The four-step NTT's staged host pass (the radix rule's list) beside
/// Eq. 9's two-stage pass built through the radix-list hook, at a 28-bit
/// prime, `N = 2^12 … 2^16`: rows/s each way, outputs asserted bit-equal.
/// The emitted ratio is the geometric mean over degrees of the speedup. A
/// trial times every cell of every degree back to back, and the spread
/// guard is on that ratio's per-trial values, which a clock-state change
/// moves on both sides alike.
fn staged_rows() {
    let (trials, reps) = if report::smoke() { (5, 4) } else { (9, 20) };
    let mut rng = StdRng::seed_from_u64(7);
    let mut blocks: Vec<_> = (12..=16u32)
        .map(|log_n| {
            let n = 1usize << log_n;
            let q = generate_ntt_primes(1, 28, n as u64)[0];
            let staged = FourStepNtt::new(n, q);
            let (n1, n2) = staged.split();
            let eq9 = FourStepNtt::with_radices(n, q, staged.psi(), &[n2, n1]);
            let a: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
            let (mut x, mut y) = (a.clone(), a.clone());
            staged.forward(&mut x);
            eq9.forward(&mut y);
            assert_eq!(x, y, "staged vs Eq. 9 forward at N = 2^{log_n}");
            staged.inverse(&mut x);
            eq9.inverse(&mut y);
            assert_eq!(
                (&x, &y),
                (&a, &a),
                "staged vs Eq. 9 inverse at N = 2^{log_n}"
            );
            (log_n, staged, eq9, x)
        })
        .collect();
    // samples[trial][degree] = [staged fwd, staged inv, Eq. 9 fwd, Eq. 9 inv].
    let samples: Vec<Vec<[f64; 4]>> = (0..trials)
        .map(|_| {
            blocks
                .iter_mut()
                .map(|(log_n, staged, eq9, x)| {
                    // About the same work per sample at every degree.
                    let reps = reps << (16 - *log_n);
                    let cells = [
                        (&*staged, false),
                        (&*staged, true),
                        (&*eq9, false),
                        (&*eq9, true),
                    ];
                    cells.map(|(plan, inverse)| {
                        sample_secs(reps, || {
                            if inverse {
                                plan.inverse(x);
                            } else {
                                plan.forward(x);
                            }
                        })
                    })
                })
                .collect()
        })
        .collect();
    // The geometric mean over degrees of the Eq. 9 / staged time ratio.
    let ratio = |cells: &[[f64; 4]]| {
        let logs: f64 = cells
            .iter()
            .map(|c| ((c[2] + c[3]) / (c[0] + c[1])).ln())
            .sum();
        (logs / cells.len() as f64).exp()
    };
    let (_, spread) = median_spread(samples.iter().map(|t| ratio(t)).collect());
    let mut medians = Vec::new();
    let rows: Vec<Vec<String>> = blocks
        .iter()
        .enumerate()
        .map(|(d, (log_n, staged, eq9, _))| {
            let cell = |c: usize| median_spread(samples.iter().map(|t| t[d][c]).collect()).0;
            let m = [0, 1, 2, 3].map(cell);
            medians.push(m);
            let radices: Vec<String> = staged.radices().iter().map(usize::to_string).collect();
            vec![
                format!("2^{log_n}"),
                radices.join("·"),
                format!("{:.0} / {:.0}", 1.0 / m[0], 1.0 / m[1]),
                format!("{:.0} / {:.0}", 1.0 / m[2], 1.0 / m[3]),
                format!("{:.2}×", ratio(&[m])),
                format!(
                    "{:.2} / {:.2} M",
                    staged.macs_per_row() as f64 / 1e6,
                    eq9.macs_per_row() as f64 / 1e6
                ),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Four-step NTT: staged pass vs Eq. 9's two stages, 28-bit prime \
             (median of {trials}, speedup spread {:.0}%)",
            spread * 100.0
        ),
        &[
            "N",
            "radices",
            "staged fwd / inv rows/s",
            "Eq. 9 fwd / inv rows/s",
            "speedup",
            "MACs/row",
        ],
        &rows,
    );
    if spread <= MAX_SPREAD {
        report::emit(
            "kernels",
            &[("host_fourstep_staged_vs_eq9", ratio(&medians))],
        );
    } else {
        println!("[kernels] host_fourstep_staged_vs_eq9 not emitted: spread exceeded {MAX_SPREAD}");
    }
}

/// The host executor's NTT chunk under each algorithm: the butterfly
/// plan's `forward_batch` + `inverse_batch` beside the four-step GEMM
/// plan's, at a 28-bit prime, `N = 2^12 … 2^16`, each batch the chunk
/// shape `exec::host` plans (`max(1, 2^14 / N)` rows; outputs asserted
/// bit-equal). The butterfly must win at every degree; the `N = 2^13`
/// ratio (HEAX set B) is emitted as `kernels/host_butterfly_vs_fourstep`.
fn host_ntt_rows() {
    let (trials, reps) = if report::smoke() { (5, 10) } else { (9, 40) };
    let mut rng = StdRng::seed_from_u64(8);
    let (mut rows, mut pinned, mut losses) = (Vec::new(), None, Vec::new());
    for log_n in 12..=16u32 {
        let n = 1usize << log_n;
        let q = generate_ntt_primes(1, 28, n as u64)[0];
        let butterfly = BatchedGemmNtt::new(n, q, NttAlgorithm::Butterfly);
        let four_step = BatchedGemmNtt::new(n, q, NttAlgorithm::FourStep);
        let batch = ((1usize << 14) / n).max(1);
        let a: Vec<u64> = (0..batch * n).map(|_| rng.gen_range(0..q)).collect();
        let (mut x, mut y) = (a.clone(), a.clone());
        let run = |plan: &BatchedGemmNtt, block: &mut [u64], inverse: bool| {
            let mut views: Vec<&mut [u64]> = block.chunks_mut(n).collect();
            if inverse {
                plan.inverse_batch(&mut views);
            } else {
                plan.forward_batch(&mut views);
            }
        };
        run(&butterfly, &mut x, false);
        run(&four_step, &mut y, false);
        assert_eq!(x, y, "butterfly vs four-step forward at N = 2^{log_n}");
        run(&butterfly, &mut x, true);
        run(&four_step, &mut y, true);
        assert_eq!((&x, &y), (&a, &a), "round trip at N = 2^{log_n}");
        // About the same work per sample at every degree.
        let reps = ((reps * batch * n) >> 14).max(1);
        let (bfly, gemm, spread) = paired_secs(
            trials,
            (reps, reps),
            || {
                run(&butterfly, &mut x, false);
                run(&butterfly, &mut x, true);
            },
            || {
                run(&four_step, &mut y, false);
                run(&four_step, &mut y, true);
            },
        );
        let ratio = gemm / bfly;
        if ratio <= 1.0 {
            losses.push(format!("2^{log_n}: {ratio:.2}×"));
        }
        if log_n == 13 {
            pinned = Some((ratio, spread));
        }
        let per_row = 1e6 / batch as f64;
        rows.push(vec![
            format!("2^{log_n}"),
            format!("{batch}"),
            format!("{:.1} µs", bfly * per_row),
            format!("{:.1} µs", gemm * per_row),
            format!("{ratio:.2}×"),
            format!(
                "{} / {}",
                n / 2 * log_n as usize,
                FourStepNtt::new(n, q).macs_per_row()
            ),
            if ratio > 1.0 {
                "butterfly"
            } else {
                "four-step"
            }
            .into(),
            format!("{:.0}%", spread * 100.0),
        ]);
    }
    print_table(
        &format!(
            "Host NTT by algorithm: the executor's chunk, fwd + inv per row, 28-bit prime \
             (median of {trials} back-to-back trials, spread of the per-trial speedup)"
        ),
        &[
            "N",
            "rows/chunk",
            "butterfly",
            "four-step",
            "speedup",
            "MACs/row bfly / 4-step",
            "winner",
            "spread",
        ],
        &rows,
    );
    assert!(
        losses.is_empty(),
        "the butterfly must win the executor's chunk at every N: {losses:?}"
    );
    match pinned {
        Some((ratio, spread)) if spread <= MAX_SPREAD => {
            report::emit("kernels", &[("host_butterfly_vs_fourstep", ratio)]);
        }
        _ => println!(
            "[kernels] host_butterfly_vs_fourstep not emitted: spread exceeded {MAX_SPREAD}"
        ),
    }
}

/// HMULT's key switch at HEAX set B (`N = 2^13`, 4 + 4 primes, `α = 1`,
/// butterfly NTT): the lean, limb-major `key_switch` on its threads beside
/// the serial reference composition. On a multi-core machine the ratio
/// includes the split's gain, so a one-core slowdown of the lean algorithm
/// can hide behind it; `taskset -c 0` (which `available_parallelism`
/// honours) measures the lean algorithm alone.
fn keyswitch_rows() {
    let (trials, reps) = if report::smoke() { (5, 4) } else { (9, 20) };
    let ctx = CkksContext::new(&CkksParams::heax_set_b()).expect("preset is valid");
    let mut rng = StdRng::seed_from_u64(6);
    let keys = KeyChain::generate(&ctx, &mut rng);
    let level = ctx.params().max_level();
    let limbs = (0..=level)
        .map(|i| {
            let q = ctx.q_mod(i).value();
            (0..ctx.params().n()).map(|_| rng.gen_range(0..q)).collect()
        })
        .collect();
    let d = RnsPoly::from_limbs(limbs, Domain::Ntt);
    let relin = keys.relin_key();
    assert_eq!(
        key_switch(&ctx, &mut Tracing::new(None), &d, relin),
        key_switch_literal(&ctx, &d, relin),
        "the lean key switch must be bit-equal to the reference composition"
    );
    let (lean, reference, spread) = paired_secs(
        trials,
        (reps, reps),
        || {
            std::hint::black_box(key_switch(&ctx, &mut Tracing::new(None), &d, relin));
        },
        || {
            std::hint::black_box(key_switch_literal(&ctx, &d, relin));
        },
    );
    let threads = KeySwitchShape::new(ctx.params(), level).threads();
    print_table(
        &format!(
            "Key switch, HEAX set B level {level} (median of {trials} back-to-back trials, \
             spread of the per-trial speedup)"
        ),
        &["threads", "lean", "reference", "speedup", "spread"],
        &[vec![
            format!("{threads}"),
            format!("{:.3} ms", lean * 1e3),
            format!("{:.3} ms", reference * 1e3),
            format!("{:.2}×", reference / lean),
            format!("{:.0}%", spread * 100.0),
        ]],
    );
    if spread <= MAX_SPREAD {
        report::emit(
            "kernels",
            &[("host_keyswitch_lean_vs_reference", reference / lean)],
        );
    } else {
        println!(
            "[kernels] host_keyswitch_lean_vs_reference not emitted: spread exceeded {MAX_SPREAD}"
        );
    }
}

/// RESCALE at HEAX set B (butterfly NTT), every level: `Evaluator::rescale`,
/// which splits across every core from `2^16` transformed words (the top
/// level) and runs on one thread below, beside `rescale_on_one_thread`.
/// Printed only; nothing is pinned.
fn rescale_split_rows() {
    let (trials, reps) = if report::smoke() { (5, 10) } else { (9, 100) };
    let ctx = CkksContext::new(&CkksParams::heax_set_b()).expect("preset is valid");
    let mut rng = StdRng::seed_from_u64(8);
    let n = ctx.params().n();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let rows: Vec<Vec<String>> = (1..=ctx.params().max_level())
        .map(|level| {
            let [c0, c1] = [0, 1].map(|_| {
                let limbs = (0..=level)
                    .map(|i| {
                        let q = ctx.q_mod(i).value();
                        (0..n).map(|_| rng.gen_range(0..q)).collect()
                    })
                    .collect();
                RnsPoly::from_limbs(limbs, Domain::Ntt)
            });
            let ct = Ciphertext {
                c0: c0.clone(),
                c1: c1.clone(),
                scale: ctx.params().scale(),
            };
            let mut eval = Evaluator::new(&ctx);
            let split = eval.rescale(&ct).expect("level ≥ 1");
            assert_eq!(
                (split.c0, split.c1),
                rescale_on_one_thread(&ctx, &c0, &c1),
                "RESCALE's bits must not depend on its thread count"
            );
            let (one, split, spread) = paired_secs(
                trials,
                (reps, reps),
                || {
                    std::hint::black_box(rescale_on_one_thread(&ctx, &c0, &c1));
                },
                || {
                    std::hint::black_box(eval.rescale(&ct).expect("level ≥ 1"));
                },
            );
            vec![
                format!("{level}"),
                format!("{}", (2 + 2 * level) * n),
                format!("{:.0} µs", one * 1e6),
                format!("{:.0} µs", split * 1e6),
                format!("{:.2}×", one / split),
                format!("{:.0}%", spread * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!(
            "RESCALE, HEAX set B, one thread vs Evaluator::rescale ({cores} cores from 2^16 words; \
             median of {trials} back-to-back trials)"
        ),
        &[
            "level",
            "words",
            "one thread",
            "rescale",
            "speedup",
            "spread",
        ],
        &rows,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_ntt_variants, bench_modmul, bench_basis_conversion
}

fn main() {
    benches();
    word_size_rows();
    tile_rows();
    staged_rows();
    host_ntt_rows();
    keyswitch_rows();
    rescale_split_rows();
}
