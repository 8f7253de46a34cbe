//! Figure 10 (service scaling) — ops/s vs worker count on the simulated
//! cluster.
//!
//! The request service drains one fixed multi-tenant stream against 1, 2
//! and 4 per-device workers (`SchedPolicy::workers`, one simulated A100
//! per worker). Two numbers fall out:
//!
//! * **Simulated ops/s** — deterministic cluster scaling *through the
//!   executor path*: more devices coalesce wider batches and shard them.
//!   By the seam's own contract the worker-thread count cannot move this
//!   number (that is what the bit-identity check below enforces), so the
//!   pinned ratio guards the sharded dispatch end to end, not host
//!   threading. Pinned in `BENCH_baseline.json`, gated by
//!   `check_regression`.
//! * **Host drain wall-clock** — the actual threading win of the
//!   `exec::Pool` (its workers simulate device shards in parallel; one
//!   worker runs them on the calling thread).
//!   Machine-dependent, printed for the trajectory but never gated.
//!
//! The threading feature itself is held to two assertions: each service
//! must really be running the worker count it was configured for, and the
//! threaded drain of a varied (cache-defeating) stream must be
//! bit-identical to the serial drain of the same cluster.

use std::time::Instant;
use tensorfhe_bench::{print_table, report};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::sched::SchedPolicy;
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, ServiceStats};

/// The fixed multi-tenant stream: three tenants mixing NTT-heavy and
/// element-wise traffic at two levels.
fn submit_stream(svc: &mut FheService, ops_per_client: usize) {
    let level = svc.params().max_level();
    for client in ["alice", "bob", "carol"] {
        svc.submit(FheRequest::new(FheOp::HMult, level, ops_per_client, client))
            .expect("valid");
        svc.submit(FheRequest::new(
            FheOp::HRotate,
            level,
            ops_per_client / 2,
            client,
        ))
        .expect("valid");
        svc.submit(FheRequest::new(
            FheOp::Rescale,
            level - 1,
            ops_per_client / 4,
            client,
        ))
        .expect("valid");
    }
}

fn drain(workers: usize, ops_per_client: usize) -> (Vec<RequestReport>, ServiceStats, f64) {
    let params = CkksParams::heax_set_c();
    let mut svc = TensorFhe::builder(&params)
        .devices(workers)
        .sched(SchedPolicy::new().workers(workers))
        .service()
        .expect("valid service");
    assert_eq!(
        svc.workers(),
        workers,
        "service must run the configured worker count (no silent serial fallback)"
    );
    submit_stream(&mut svc, ops_per_client);
    let t0 = Instant::now();
    let reports = svc.drain();
    let host_ms = t0.elapsed().as_secs_f64() * 1e3;
    (reports, svc.stats(), host_ms)
}

fn main() {
    let ops_per_client = if report::smoke() { 512 } else { 2048 };

    let mut rows = Vec::new();
    let mut ops_per_s = Vec::new();
    let mut base = 0.0f64;
    for workers in [1usize, 2, 4] {
        let (reports, stats, host_ms) = drain(workers, ops_per_client);
        assert_eq!(reports.len(), 9, "three tenants × three requests");
        let util_min = stats
            .device_utilization
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let util_max = stats
            .device_utilization
            .iter()
            .copied()
            .fold(0.0f64, f64::max);
        if workers == 1 {
            base = stats.ops_per_second;
        }
        rows.push(vec![
            format!("{workers}"),
            format!("{}", stats.batch_cap),
            format!("{:.0}", stats.ops_per_second),
            format!("{:.2}×", stats.ops_per_second / base),
            format!("{:.2}", stats.batch_fill),
            format!("{util_min:.2}–{util_max:.2}"),
            format!("{host_ms:.1}"),
        ]);
        ops_per_s.push(stats.ops_per_second);
    }

    let device = TensorFhe::builder(&CkksParams::heax_set_c())
        .service()
        .expect("valid service")
        .device_name()
        .to_string();
    print_table(
        &format!("Figure 10 (service) — ops/s vs per-device workers (HEAX-C, simulated {device} cluster)"),
        &[
            "workers",
            "batch cap",
            "sim ops/s",
            "speedup",
            "batch fill",
            "utilization",
            "host drain ms",
        ],
        &rows,
    );

    let speedup_2 = ops_per_s[1] / ops_per_s[0];
    let speedup_4 = ops_per_s[2] / ops_per_s[0];

    // Bit-identity on a *varied* stream — every (op, level, count) combo
    // distinct, so the dispatch cache cannot collapse the work and every
    // batch genuinely simulates on the devices. The paired timing is the
    // honest host-side threading win: same cluster, same batches, only the
    // executor differs.
    let run_varied = |workers: usize| {
        let params = CkksParams::heax_set_c();
        let mut svc = TensorFhe::builder(&params)
            .devices(4)
            .sched(SchedPolicy::new().workers(workers))
            .service()
            .expect("valid");
        let cap = svc.batch_cap();
        for level in 1..=params.max_level() {
            for (i, op) in [FheOp::HMult, FheOp::HRotate, FheOp::Rescale]
                .into_iter()
                .enumerate()
            {
                // Ragged counts: each spills into a distinct-width tail.
                svc.submit(FheRequest::new(op, level, cap + 11 * level + i, "t"))
                    .expect("valid");
            }
        }
        let t0 = Instant::now();
        let reports = svc.drain();
        (reports, t0.elapsed().as_secs_f64() * 1e3)
    };
    let (serial, serial_host_ms) = run_varied(1);
    let (threaded, threaded_host_ms) = run_varied(4);
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(a.id, b.id, "completion order diverged");
        assert_eq!(
            a.report.time_us.to_bits(),
            b.report.time_us.to_bits(),
            "threaded drain must be bit-identical to serial"
        );
        assert_eq!(a.report.launches, b.report.launches);
    }

    // The acceptance property: 4 per-device workers serve the stream at
    // ≥1.8× the single-device throughput (sub-linear only through the
    // per-shard launch overhead; paper-scale batches approach linear).
    assert!(
        speedup_4 >= 1.8,
        "4-worker service must scale ≥1.8×: got {speedup_4:.2}× ({ops_per_s:?})"
    );
    assert!(
        speedup_2 > 1.0,
        "2-worker service must beat serial: got {speedup_2:.2}×"
    );

    println!(
        "\n4 workers: {speedup_4:.2}× simulated ops/s over 1 worker \
         (2 workers: {speedup_2:.2}×); threaded drain bit-identical to serial"
    );
    println!(
        "host wall-clock, same 4-device cluster: serial {serial_host_ms:.1} ms vs \
         threaded {threaded_host_ms:.1} ms ({:.2}× — machine-dependent, not gated)",
        serial_host_ms / threaded_host_ms.max(1e-9)
    );

    report::emit(
        "fig10_service_scaling",
        &[
            ("speedup_2workers", speedup_2),
            ("speedup_4workers", speedup_4),
        ],
    );
}
