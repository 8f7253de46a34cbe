//! The request service's accounting, held to the direct costing fold.
//!
//! `run_workload` costs a workload by folding each step's memoised batch
//! cost into the report `count` times. Here each Table X workload is
//! drained through an `FheService` instead: one request of
//! `count × batch` instances per step, coalesced into full `batch`-wide
//! batches, and the per-request reports folded into a `WorkloadReport`.
//! Every field of that report must equal the fold's bit for bit, at
//! pipeline depths 1 and 4, under in-order and out-of-order admission.
//!
//! The two sides share only the engine's costing of one batch. A fault in
//! the service's planning, its settle order or its per-request
//! attribution moves the drained report and fails here, while
//! `costing_golden` pins the fold; so a moved figure says which side
//! moved.

use tensorfhe_core::api::TensorFhe;
use tensorfhe_core::engine::Variant;
use tensorfhe_core::service::FheRequest;
use tensorfhe_core::{AdmissionMode, ExecBackend, SchedPolicy};
use tensorfhe_workloads::schedules;
use tensorfhe_workloads::spec::{run_workload, WorkloadReport, WorkloadSpec};

/// Drains `spec` through a one-device, sim-backend service with the given
/// window depth and admission, and folds its reports as the workload
/// runner did before it became a fold: per report in completion order,
/// kernel names collapsed to their base (`ntt-plane3` → `ntt`).
fn drain(spec: &WorkloadSpec, depth: usize, admission: AdmissionMode) -> WorkloadReport {
    let batch = spec.batch.max(1);
    let mut svc = TensorFhe::builder(&spec.params)
        .variant(Variant::TensorCore)
        .devices(1)
        .backend(ExecBackend::Sim)
        .batch_cap(batch)
        .sched(
            SchedPolicy::new()
                .workers(1)
                .pipeline_depth(depth)
                .admission(admission),
        )
        .service()
        .expect("a one-device sim service is a valid configuration");
    assert_eq!(
        svc.stats().batch_cap,
        batch,
        "{}: batch cap clamped",
        spec.name
    );
    for step in &spec.steps {
        svc.submit(FheRequest::new(
            step.op,
            step.level,
            step.count * batch,
            spec.name.clone(),
        ))
        .expect("every Table X step is a valid request");
    }
    let reports = svc.drain();
    let stats = svc.stats();
    assert_eq!(reports.len(), spec.steps.len(), "{}: reports", spec.name);
    assert_eq!(
        stats.batches_dispatched,
        spec.op_count(),
        "{}: every batch is full",
        spec.name
    );

    let mut by_op = std::collections::BTreeMap::<&'static str, f64>::new();
    let mut by_kernel = std::collections::BTreeMap::<String, f64>::new();
    let mut occ_weighted = 0.0f64;
    for r in &reports {
        *by_op.entry(r.report.op.name()).or_insert(0.0) += r.report.time_us;
        occ_weighted += r.report.occupancy * r.report.time_us;
        for (k, t) in &r.report.by_kernel {
            let base = k.split("-plane").next().unwrap_or(k);
            *by_kernel.entry(base.to_string()).or_insert(0.0) += t;
        }
    }
    let descending = |mut rows: Vec<(String, f64)>| {
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    };
    let time_us = stats.busy_us;
    WorkloadReport {
        name: spec.name.clone(),
        time_s: time_us * 1e-6,
        energy_j: stats.energy_j,
        energy_per_iter_j: stats.energy_j / spec.iterations.max(1) as f64,
        per_op_us: descending(by_op.into_iter().map(|(k, t)| (k.into(), t)).collect()),
        per_kernel_us: descending(by_kernel.into_iter().collect()),
        occupancy: if time_us > 0.0 {
            occ_weighted / time_us
        } else {
            0.0
        },
    }
}

/// A table's names with the bits of their times.
fn table_bits(rows: &[(String, f64)]) -> Vec<(&str, u64)> {
    rows.iter()
        .map(|(n, t)| (n.as_str(), t.to_bits()))
        .collect()
}

/// Asserts every field of `got` bit-equal to `want`. The destructuring
/// is exhaustive, so a new report field fails to compile until it is
/// compared here.
fn assert_bit_equal(got: &WorkloadReport, want: &WorkloadReport, ctx: &str) {
    let WorkloadReport {
        name,
        time_s,
        energy_j,
        energy_per_iter_j,
        per_op_us,
        per_kernel_us,
        occupancy,
    } = got;
    assert_eq!(name, &want.name, "{ctx}: name");
    for (field, g, w) in [
        ("time_s", time_s, want.time_s),
        ("energy_j", energy_j, want.energy_j),
        (
            "energy_per_iter_j",
            energy_per_iter_j,
            want.energy_per_iter_j,
        ),
        ("occupancy", occupancy, want.occupancy),
    ] {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: {field} {g} vs {w}");
    }
    assert_eq!(
        table_bits(per_op_us),
        table_bits(&want.per_op_us),
        "{ctx}: per_op_us"
    );
    assert_eq!(
        table_bits(per_kernel_us),
        table_bits(&want.per_kernel_us),
        "{ctx}: per_kernel_us"
    );
}

/// Every Table X workload, drained at `depth` under `admission`, equals
/// its fold.
fn service_matches_fold(depth: usize, admission: AdmissionMode) {
    for spec in schedules::all() {
        let fold = run_workload(&spec, Variant::TensorCore);
        let drained = drain(&spec, depth, admission);
        let ctx = format!("{} at depth {depth}, {admission:?}", spec.name);
        assert_bit_equal(&drained, &fold, &ctx);
    }
}

#[test]
fn depth_1_in_order_drain_matches_the_fold() {
    service_matches_fold(1, AdmissionMode::InOrder);
}

#[test]
fn depth_1_out_of_order_drain_matches_the_fold() {
    service_matches_fold(1, AdmissionMode::OutOfOrder);
}

#[test]
fn depth_4_in_order_drain_matches_the_fold() {
    service_matches_fold(4, AdmissionMode::InOrder);
}

#[test]
fn depth_4_out_of_order_drain_matches_the_fold() {
    service_matches_fold(4, AdmissionMode::OutOfOrder);
}
