//! Figure 15 (SIMD + stealing) — the two host-execution wins this repo
//! layers on top of the Montgomery fast kernels, each measured at its own
//! seam:
//!
//! 1. **SIMD register tile vs scalar register tile** — single-threaded
//!    [`gemm_rm_with`] at the HEAX set-A four-step shapes (`N = 2^12` →
//!    64×64 split, so the batched-NTT GEMMs are `m×64 × 64×64`). Both
//!    tiles do exactly the same `m·k·n` Montgomery MACs and must produce
//!    bit-identical outputs; only the wall-clock may differ. The 4-lane
//!    limb-split tile must win by ≥ 1.5× — this is a single-core,
//!    fixed-work micro-ratio, so it is asserted everywhere and pinned in
//!    `BENCH_baseline.json` as `host_simd_tile_speedup` whenever the
//!    variance guard holds.
//! 2. **Work-stealing efficiency** — a width-1 paper-scale `HMult` stream
//!    lands every row-chunk on device 0's queue; a second worker thread
//!    owns no device work and can only make progress by stealing. The
//!    bench asserts the stealing actually happens (`steals > 0`), that
//!    work is conserved (`planned_rows == executed_rows` at every worker
//!    count), and on a multi-core quiet run emits the 1→2 worker
//!    `host_steal_speedup` wall-clock point for the trajectory.
//!
//! Wall-clock numbers use the median-of-N + relative-spread guard of
//! `tensorfhe_bench::timing`, like `fig14_host_gemm`; host keys are gated
//! under `check_regression`'s looser `host_` tolerance class, where a
//! missing key (noisy or single-core run) skips rather than fails.

use std::time::Instant;
use tensorfhe_bench::timing::{median_spread, sample_secs, MAX_SPREAD};
use tensorfhe_bench::{print_table, report};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::FheOp;
use tensorfhe_core::exec::StealStats;
use tensorfhe_core::{EngineConfig, ExecBackend, ExecBatch, Pool, Variant};
use tensorfhe_math::gemm_fast::{gemm_rm_with, MontOperand};
use tensorfhe_math::prime::generate_ntt_primes;
use tensorfhe_math::simd::{scalar_tile, simd4, MicroKernel};

/// Deterministic operand fill (splitmix64), reduced mod `q`.
fn fill(seed: u64, len: usize, q: u64) -> Vec<u64> {
    let mut x = seed;
    (0..len)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % q
        })
        .collect()
}

/// Median ms per whole-GEMM call through one register tile over `trials`
/// samples of `reps` calls, and the samples' relative spread.
fn time_tile(
    trials: usize,
    reps: usize,
    a: &[u64],
    m: usize,
    b: &MontOperand,
    kernel: &'static dyn MicroKernel,
    out: &mut [u64],
) -> (f64, f64) {
    let samples = (0..trials)
        .map(|_| sample_secs(reps, || gemm_rm_with(a, m, b, kernel, out)) * 1e3)
        .collect();
    median_spread(samples)
}

/// Part 1: single-thread SIMD-vs-scalar register-tile ratio at the HEAX
/// set-A four-step shapes. Returns the speedup and whether the run was
/// quiet enough to pin.
fn simd_tile_ratio(trials: usize, reps: usize) -> (f64, bool) {
    // N = 2^12 four-step split: 64-point column NTTs over 64 rows, GEMM'd
    // as m×64 × 64×64 with m covering a full batch of rows.
    let (m, k, n) = (256usize, 64usize, 64usize);
    let q = generate_ntt_primes(1, 30, 1 << 12)[0];
    let a = fill(0x5EED_0001, m * k, q);
    let b_data = fill(0x5EED_0002, k * n, q);
    let b = MontOperand::new(q, &b_data, k, n);

    let mut out_scalar = vec![0u64; m * n];
    let mut out_simd = vec![0u64; m * n];
    // Same shapes through both tiles ⇒ identical m·k·n MAC counts by
    // construction; bit-identity of the outputs is asserted below.
    let (scalar_ms, scalar_spread) =
        time_tile(trials, reps, &a, m, &b, scalar_tile(), &mut out_scalar);
    let (simd_ms, simd_spread) = time_tile(trials, reps, &a, m, &b, simd4(), &mut out_simd);
    assert_eq!(
        out_scalar, out_simd,
        "SIMD and scalar register tiles must produce bit-identical residues"
    );

    let speedup = scalar_ms / simd_ms;
    let quiet = scalar_spread <= MAX_SPREAD && simd_spread <= MAX_SPREAD;
    let macs = (m * k * n) as f64;
    print_table(
        &format!(
            "Figure 15a — register-tile kernels at HEAX set-A shapes \
             ({m}×{k} × {k}×{n}, q={q}, {reps} reps, median of {trials})"
        ),
        &["tile", "lanes", "ms per GEMM", "spread", "Mmac/s"],
        &[
            vec![
                scalar_tile().label().into(),
                format!("{}", scalar_tile().lanes()),
                format!("{scalar_ms:.2}"),
                format!("{:.0}%", scalar_spread * 100.0),
                format!("{:.0}", macs / (scalar_ms * 1e-3) / 1e6),
            ],
            vec![
                simd4().label().into(),
                format!("{}", simd4().lanes()),
                format!("{simd_ms:.2}"),
                format!("{:.0}%", simd_spread * 100.0),
                format!("{:.0}", macs / (simd_ms * 1e-3) / 1e6),
            ],
            vec![
                "speedup".into(),
                "".into(),
                format!("{speedup:.2}×"),
                if quiet {
                    "quiet".into()
                } else {
                    "noisy".into()
                },
                "".into(),
            ],
        ],
    );
    assert!(
        speedup >= 1.5,
        "the 4-lane limb-split tile must be ≥1.5× the scalar register tile \
         at HEAX set-A shapes (single core, equal work), got {speedup:.2}×"
    );
    (speedup, quiet)
}

/// Drives a width-1 `HMult` stream (all real rows land on device 0) and
/// returns (wall ms, steal counters).
fn run_stream(params: &CkksParams, workers: usize, iters: usize) -> (f64, StealStats) {
    let cfg = EngineConfig::a100(Variant::TensorCore);
    // 2 devices so a surplus worker exists even at `workers = 2`; width 1
    // keeps every chunk on device 0's queue.
    let backend = ExecBackend::HostParallel;
    let mut ex = Pool::new(&cfg, params, 2, workers, backend, 8).expect("valid pool");
    let batch = ExecBatch {
        op: FheOp::HMult,
        level: params.max_level(),
        width: 1,
    };
    let t0 = Instant::now();
    for _ in 0..iters {
        let h = ex.submit(batch);
        let _ = ex.join(h);
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, ex.steal_stats().expect("host backends steal"))
}

/// Part 2: steal-efficiency point. Returns `Some(speedup)` on a quiet
/// multi-core run.
fn steal_point(trials: usize, iters: usize, cores: usize) -> Option<f64> {
    let params = CkksParams::heax_set_a();
    // Counters of every trial: conservation must hold in each, and the
    // surplus worker must have stolen in at least one (a single short
    // trial can finish before it wakes).
    let mut stats: [Vec<StealStats>; 2] = Default::default();
    let mut timed = |workers: usize| {
        let samples = (0..trials)
            .map(|_| {
                let (ms, s) = run_stream(&params, workers, iters);
                stats[workers - 1].push(s);
                ms
            })
            .collect();
        median_spread(samples)
    };
    let (ms1, spread1) = timed(1);
    let (ms2, spread2) = timed(2);
    for (workers, trials) in (1..).zip(&stats) {
        for s in trials {
            assert_eq!(
                s.planned_rows, s.executed_rows,
                "work must be conserved at {workers} worker(s): planned {} vs executed {}",
                s.planned_rows, s.executed_rows
            );
            assert!(s.planned_rows > 0, "the stream must plan real rows");
        }
    }
    let total = |trials: &[StealStats]| {
        trials
            .iter()
            .fold(StealStats::default(), |a, s| StealStats {
                steals: a.steals + s.steals,
                stolen_rows: a.stolen_rows + s.stolen_rows,
                planned_rows: a.planned_rows + s.planned_rows,
                executed_rows: a.executed_rows + s.executed_rows,
            })
    };
    let (s1, s2) = (total(&stats[0]), total(&stats[1]));
    assert_eq!(s1.steals, 0, "a single worker has nobody to steal from");
    assert!(
        s2.steals > 0,
        "the surplus worker owns no device queue; it can only have \
         executed rows by stealing"
    );

    let speedup = ms1 / ms2;
    let quiet = spread1 <= MAX_SPREAD && spread2 <= MAX_SPREAD;
    print_table(
        &format!(
            "Figure 15b — work-stealing a width-1 HMult stream \
             (HEAX set A, device 0 owns all rows, median of {trials}, \
             counters summed over the trials, {cores}-core host)"
        ),
        &[
            "workers",
            "ms (median)",
            "spread",
            "steals",
            "stolen rows",
            "rows",
        ],
        &[
            vec![
                "1".into(),
                format!("{ms1:.1}"),
                format!("{:.0}%", spread1 * 100.0),
                format!("{}", s1.steals),
                format!("{}", s1.stolen_rows),
                format!("{}", s1.executed_rows),
            ],
            vec![
                "2".into(),
                format!("{ms2:.1}"),
                format!("{:.0}%", spread2 * 100.0),
                format!("{}", s2.steals),
                format!("{}", s2.stolen_rows),
                format!("{}", s2.executed_rows),
            ],
            vec![
                "speedup".into(),
                format!("{speedup:.2}×"),
                if quiet {
                    "quiet".into()
                } else {
                    "noisy".into()
                },
                "".into(),
                "".into(),
                "".into(),
            ],
        ],
    );
    (quiet && cores >= 2).then_some(speedup)
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let (trials, reps, iters) = if report::smoke() {
        (3, 8, 1)
    } else {
        (5, 32, 2)
    };

    let (tile_speedup, tile_quiet) = simd_tile_ratio(trials, reps);
    if tile_quiet {
        report::emit(
            "fig15_simd_steal",
            &[("host_simd_tile_speedup", tile_speedup)],
        );
    } else {
        println!(
            "[fig15_simd_steal] host_simd_tile_speedup not emitted: \
             spread exceeded {MAX_SPREAD}"
        );
    }

    match steal_point(trials, iters, cores) {
        Some(steal_speedup) => {
            report::emit("fig15_simd_steal", &[("host_steal_speedup", steal_speedup)]);
        }
        None => println!(
            "[fig15_simd_steal] host_steal_speedup not emitted \
             (needs a quiet run on ≥2 cores, have {cores})"
        ),
    }
}
