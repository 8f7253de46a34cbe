//! Figure 10 (service scaling) — ops/s vs device count on the simulated
//! cluster.
//!
//! The request service drains one fixed multi-tenant stream against 1, 2
//! and 4 simulated A100s. Two numbers fall out:
//!
//! * **Simulated ops/s** — deterministic cluster scaling *through the
//!   executor path*: more devices coalesce wider batches and shard them.
//!   The pinned `speedup_{2,4}devices` ratios guard the sharded dispatch
//!   end to end. Pinned in `BENCH_baseline.json`, gated by
//!   `check_regression`.
//! * **Host drain wall-clock** — what the calling thread spends costing
//!   the devices' simulated shards, which `exec::Pool` costs in device
//!   order on that thread (worker threads exist only to run the host
//!   backend's real-arithmetic chunks). Machine-dependent, printed for
//!   the trajectory but never gated.

use std::time::Instant;
use tensorfhe_bench::{print_table, report};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
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

fn drain(devices: usize, ops_per_client: usize) -> (Vec<RequestReport>, ServiceStats, f64) {
    let params = CkksParams::heax_set_c();
    let mut svc = TensorFhe::builder(&params)
        .devices(devices)
        .service()
        .expect("valid service");
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
    for devices in [1usize, 2, 4] {
        let (reports, stats, host_ms) = drain(devices, ops_per_client);
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
        if devices == 1 {
            base = stats.ops_per_second;
        }
        rows.push(vec![
            format!("{devices}"),
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
        &format!("Figure 10 (service) — ops/s vs devices (HEAX-C, simulated {device} cluster)"),
        &[
            "devices",
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

    // The acceptance property: 4 devices serve the stream at ≥1.8× the
    // single-device throughput (sub-linear only through the per-shard
    // launch overhead; paper-scale batches approach linear).
    assert!(
        speedup_4 >= 1.8,
        "4-device service must scale ≥1.8×: got {speedup_4:.2}× ({ops_per_s:?})"
    );
    assert!(
        speedup_2 > 1.0,
        "2-device service must beat one device: got {speedup_2:.2}×"
    );

    println!(
        "\n4 devices: {speedup_4:.2}× simulated ops/s over 1 device \
         (2 devices: {speedup_2:.2}×)"
    );

    report::emit(
        "fig10_service_scaling",
        &[
            ("speedup_2devices", speedup_2),
            ("speedup_4devices", speedup_4),
        ],
    );
}
