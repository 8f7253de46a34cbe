//! Figure 14 (host GEMM) — the fused Montgomery NTT against the Barrett
//! reference NTT, timed where the two kernels meet.
//!
//! The rows are the NTT events of one HMULT at the paper-scale HEAX set-A
//! preset (`N = 2^12`) at its top level, as [`schedule_events`] lists
//! them: `limbs × WIDTH` rows per event, at the 28-bit prime the host
//! executor transforms, forward or inverse as the event says. The same
//! rows run through the four-step plan's own batch path
//! (`forward_batch`/`inverse_batch`, the fused Montgomery GEMMs on SIMD
//! register tiles) and through `BatchedGemmNtt::reference_batch` (the
//! five-stage Barrett wide pipeline), on one thread, back to back in each
//! trial ([`paired_secs`]). Two properties are pinned:
//!
//! * **Bit-identity** — both kernels give the same output on every
//!   event's rows.
//! * **Speedup** — the fused kernel must beat the Barrett reference by
//!   ≥ 2×. The ratio is emitted as `host_fast_vs_scalar` whenever the
//!   per-trial ratios' spread stays within [`MAX_SPREAD`]; that key is
//!   pinned in `BENCH_baseline.json` and gated under `check_regression`'s
//!   `host_` tolerance class (missing = skipped, so a noisy run never
//!   fails the gate). A one-thread ratio needs no second core.
//!
//! A trajectory point rides along, never pinned: a repeated HMULT batch
//! stream through a host-parallel [`Pool`] with one worker per device and
//! the real-row cap raised so the transforms dominate (`host_fast_ms`,
//! `host_fast_ntt_rows_per_s`, median of the trials). Despite the keys'
//! names, that pool's NTT chunks run the butterfly plan, not the fused
//! GEMMs timed above: the `kernels` bench's "host NTT by algorithm" table
//! measures the butterfly winning the executor's chunk at every degree,
//! so these two keys trace the executor, not this figure's kernel. A
//! service drain on that backend must also reproduce the simulated
//! backend's reports bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Instant;
use tensorfhe_bench::timing::{median_spread, paired_secs, MAX_SPREAD};
use tensorfhe_bench::{print_table, report};
use tensorfhe_ckks::{CkksParams, KernelEvent};
use tensorfhe_core::api::{schedule_events, FheOp, TensorFhe};
use tensorfhe_core::service::FheRequest;
use tensorfhe_core::{EngineConfig, ExecBackend, ExecBatch, HostWorkStats, Pool, Variant};
use tensorfhe_math::prime::generate_ntt_primes;
use tensorfhe_ntt::{BatchedGemmNtt, NttAlgorithm, NttBatchOps, PlanCache};

const DEVICES: usize = 2;

/// HMULT instances whose NTT rows the kernel comparison transforms.
const WIDTH: usize = 2;

/// One NTT event's rows: its plan, direction and `limbs × WIDTH` rows.
struct EventRows {
    plan: Arc<BatchedGemmNtt>,
    inverse: bool,
    rows: Vec<Vec<u64>>,
}

impl EventRows {
    /// Transforms the rows once, through the fused kernel or the reference.
    fn run(&mut self, reference: bool) {
        let mut views: Vec<&mut [u64]> = self.rows.iter_mut().map(Vec::as_mut_slice).collect();
        match (reference, self.inverse) {
            (true, inverse) => self.plan.reference_batch(&mut views, inverse),
            (false, false) => self.plan.forward_batch(&mut views),
            (false, true) => self.plan.inverse_batch(&mut views),
        }
    }
}

/// The NTT events of one HMULT at the top level, as seeded rows.
fn hmult_ntt_rows(params: &CkksParams) -> Vec<EventRows> {
    let mut rng = StdRng::seed_from_u64(14);
    schedule_events(params, FheOp::HMult, params.max_level())
        .into_iter()
        .filter_map(|ev| match ev {
            KernelEvent::Ntt { n, limbs, inverse } => {
                let q = generate_ntt_primes(1, 28, n as u64)[0];
                let rows = (0..limbs * WIDTH)
                    .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
                    .collect();
                let plan = PlanCache::global().get(n, q, NttAlgorithm::FourStep);
                Some(EventRows {
                    plan,
                    inverse,
                    rows,
                })
            }
            _ => None,
        })
        .collect()
}

/// Drives `iters` paper-scale HMult batches through a host-parallel pool
/// and returns (wall ms, real-work counters).
fn pool_run(params: &CkksParams, rows_cap: usize, iters: usize) -> (f64, HostWorkStats) {
    let cfg = EngineConfig::a100(Variant::TensorCore);
    let backend = ExecBackend::HostParallel;
    let mut ex = Pool::new(&cfg, params, DEVICES, DEVICES, backend, rows_cap).expect("valid pool");
    let batch = ExecBatch {
        op: FheOp::HMult,
        level: params.max_level(),
        width: DEVICES,
    };
    let t0 = Instant::now();
    for _ in 0..iters {
        let h = ex.submit(batch);
        let _ = ex.join(h);
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    (ms, ex.host_work().expect("host backend"))
}

/// Service-level drain: reports on `backend` as raw bits.
fn drain_bits(params: &CkksParams, backend: ExecBackend) -> Vec<u64> {
    let mut svc = TensorFhe::builder(params)
        .devices(DEVICES)
        .backend(backend)
        .rows_cap(8)
        .service()
        .expect("valid service");
    for i in 0..4 {
        svc.submit(FheRequest::new(
            FheOp::HMult,
            params.max_level(),
            2,
            format!("c{i}"),
        ))
        .expect("valid request");
    }
    let mut bits = Vec::new();
    for r in svc.drain() {
        bits.push(r.id.raw());
        bits.push(r.report.time_us.to_bits());
        bits.push(r.report.energy_j.to_bits());
        bits.push(r.report.ops_per_second.to_bits());
        bits.push(r.report.launches as u64);
    }
    let s = svc.stats();
    bits.push(s.busy_us.to_bits());
    bits.push(s.ops_per_second.to_bits());
    bits
}

fn main() {
    let params = CkksParams::heax_set_a();
    let (trials, reps, rows_cap, iters) = if report::smoke() {
        (5, (40, 4), 16, 2)
    } else {
        (9, (80, 8), 64, 4)
    };

    assert_eq!(
        drain_bits(&params, ExecBackend::HostParallel),
        drain_bits(&params, ExecBackend::Sim),
        "the host-parallel drain must be bit-identical to the simulated backend"
    );

    // The kernel pair: bit-equal on every event's rows, then timed back to
    // back in each trial.
    let mut fused = hmult_ntt_rows(&params);
    let mut barrett = hmult_ntt_rows(&params);
    for (f, b) in fused.iter_mut().zip(&mut barrett) {
        f.run(false);
        b.run(true);
        assert_eq!(
            f.rows, b.rows,
            "the fused NTT must be bit-equal to the Barrett reference (inverse = {})",
            f.inverse
        );
    }
    let rows: usize = fused.iter().map(|e| e.rows.len()).sum();
    let (fast, reference, spread) = paired_secs(
        trials,
        reps,
        || fused.iter_mut().for_each(|e| e.run(false)),
        || barrett.iter_mut().for_each(|e| e.run(true)),
    );
    let ratio = reference / fast;
    assert!(
        ratio >= 2.0,
        "the fused NTT must be ≥2× the Barrett reference on one thread, got {ratio:.2}×"
    );

    // The pool trajectory point; its real work must not depend on the trial.
    let runs: Vec<(f64, HostWorkStats)> = (0..trials)
        .map(|_| pool_run(&params, rows_cap, iters))
        .collect();
    let work = runs[0].1;
    assert!(
        runs.iter().all(|r| r.1 == work),
        "real-work counters must be identical across timing trials"
    );
    let (pool_ms, pool_spread) = median_spread(runs.iter().map(|r| r.0).collect());
    let pool_rows_per_s = work.ntt_rows as f64 / (pool_ms * 1e-3);

    print_table(
        &format!(
            "Figure 14 (host GEMM) — fused Montgomery NTT vs Barrett reference \
             (HEAX set A, N=2^12, one HMULT's NTT events × {WIDTH}, median of {trials})"
        ),
        &["kernel", "threads", "ms", "spread", "NTT rows/s"],
        &[
            vec![
                "Barrett reference".into(),
                "1".into(),
                format!("{:.3}", reference * 1e3),
                "".into(),
                format!("{:.0}", rows as f64 / reference),
            ],
            vec![
                "fused Montgomery".into(),
                "1".into(),
                format!("{:.3}", fast * 1e3),
                "".into(),
                format!("{:.0}", rows as f64 / fast),
            ],
            vec![
                "speedup".into(),
                "".into(),
                format!("{ratio:.2}×"),
                format!("{:.0}%", spread * 100.0),
                "".into(),
            ],
            vec![
                format!("host-parallel pool (butterfly NTT), {iters} batches"),
                format!("{DEVICES}"),
                format!("{pool_ms:.1}"),
                format!("{:.0}%", pool_spread * 100.0),
                format!("{pool_rows_per_s:.0}"),
            ],
        ],
    );

    // Host wall-clock trajectory points — medians, emitted every run.
    report::emit(
        "fig14_host_gemm",
        &[
            ("host_fast_ms", pool_ms),
            ("host_fast_ntt_rows_per_s", pool_rows_per_s),
        ],
    );
    // The pinned ratio stands behind the baseline key only on a quiet run;
    // missing host keys are skipped in `check_regression`.
    if spread <= MAX_SPREAD {
        report::emit("fig14_host_gemm", &[("host_fast_vs_scalar", ratio)]);
    } else {
        println!("[fig14_host_gemm] host_fast_vs_scalar not emitted: spread exceeded {MAX_SPREAD}");
    }
}
