//! The verifier resumes from a trace base: a service that has folded the
//! old generation of its schedule trace must still verify clean at every
//! matrix corner, a doctored base must trip the invariant it breaks, and
//! an empty base must be indistinguishable from no base at all.
//!
//! Every service here pins the simulated backend: a fold needs two
//! [`TRACE_WINDOW`]s of batches, which only the dispatch-cost cache makes
//! cheap, and nothing the verifier checks depends on the backend.

use tensorfhe_analyze::{verify_schedule, verify_schedule_from, verify_service, Violation};
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::exec::ExecBackend;
use tensorfhe_core::sched::{AdmissionMode, BatchRecord, SchedPolicy, TraceBase, TRACE_WINDOW};
use tensorfhe_core::service::{FheRequest, FheService, ServiceStats};
use tensorfhe_core::SessionConfig;

const DEVICES: usize = 4;
const OPS: [FheOp; 4] = [FheOp::HMult, FheOp::HRotate, FheOp::Rescale, FheOp::HAdd];

/// Drives a two-session-plus-anonymous service in waves until it has
/// folded its trace at least once, then a few waves more so the kept
/// window straddles the last quiescent point before the cut and plenty
/// after it.
fn folded_service(admission: AdmissionMode, workers: usize, depth: usize) -> FheService {
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .devices(DEVICES)
        .backend(ExecBackend::Sim)
        .sched(
            SchedPolicy::new()
                .workers(workers)
                .pipeline_depth(depth)
                .admission(admission),
        )
        .service()
        .expect("valid service config");
    let max_level = svc.params().max_level();
    let heavy = svc
        .register_session(SessionConfig::new("heavy").weight(2.0))
        .expect("valid");
    let light = svc
        .register_session(SessionConfig::new("light"))
        .expect("valid");
    let mut wave = 0usize;
    let mut after_fold = 0usize;
    while after_fold < 8 {
        for step in 0..12 {
            let op = OPS[(step + wave) % OPS.len()];
            let level = 1 + (step + wave) % max_level;
            let count = 1 + (step + wave) % 3;
            let req = match step % 3 {
                0 => FheRequest::in_session(op, level, count, heavy),
                1 => FheRequest::in_session(op, level, count, light),
                _ => FheRequest::new(op, level, count, format!("anon{}", step % 2)),
            };
            svc.submit(req).expect("valid request");
        }
        let _ = svc.drain();
        wave += 1;
        if svc.schedule_trace_base().dropped > 0 {
            after_fold += 1;
        }
    }
    svc
}

#[test]
fn folded_traces_verify_clean_across_the_matrix() {
    for admission in [AdmissionMode::InOrder, AdmissionMode::OutOfOrder] {
        for workers in [1usize, 4] {
            for depth in [1usize, 4] {
                let svc = folded_service(admission, workers, depth);
                let base = svc.schedule_trace_base();
                assert!(base.dropped >= TRACE_WINDOW, "a whole generation folded");
                assert!(svc.schedule_trace().len() >= TRACE_WINDOW);
                let report = verify_service(&svc);
                assert!(
                    report.is_clean(),
                    "{admission:?} workers={workers} depth={depth}:\n{report}"
                );
                assert_eq!(report.batches, svc.schedule_trace().len());
            }
        }
    }
}

/// One folded out-of-order service, taken apart for doctoring.
fn folded_fixture() -> (TraceBase, Vec<BatchRecord>, ServiceStats) {
    let svc = folded_service(AdmissionMode::OutOfOrder, 1, 4);
    let base = svc.schedule_trace_base().clone();
    let trace = svc.schedule_trace().to_vec();
    let stats = svc.stats();
    assert!(
        verify_schedule_from(&base, &trace, &stats, 0, DEVICES).is_clean(),
        "the untampered fixture must verify clean"
    );
    (base, trace, stats)
}

#[test]
fn a_folded_trace_without_its_base_does_not_verify() {
    // The base is not decoration: the same window read from time zero
    // contradicts its own indices, frontiers and totals.
    let (_, trace, stats) = folded_fixture();
    assert!(!verify_schedule(&trace, &stats, 0, DEVICES).is_clean());
}

#[test]
fn wrong_busy_partial_trips_accounting_closure() {
    let (mut base, trace, stats) = folded_fixture();
    base.busy_us += 1.0;
    let report = verify_schedule_from(&base, &trace, &stats, 0, DEVICES);
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::AccountingMismatch {
                stat: "busy_us",
                ..
            }
        )),
        "a wrong busy partial must not close:\n{report}"
    );
}

#[test]
fn device_free_at_moved_back_trips_device_overlap() {
    // Push a device's free time back past the cut: the first kept shard
    // placed on it now starts while the base says the device is still
    // busy. (Moved the other way — earlier — a free-at cannot contradict
    // anything: every kept shard starts at or after the base's frontier,
    // which bounds every free-at from above.)
    let (mut base, trace, stats) = folded_fixture();
    let (device, start, _) = trace[0].placements[0];
    base.free_at[device] = start + 1.0;
    let report = verify_schedule_from(&base, &trace, &stats, 0, DEVICES);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::DeviceOverlap { device: d, .. } if *d == device)),
        "a shard on a still-busy device must overlap:\n{report}"
    );
}

#[test]
fn dropped_off_by_one_trips_trace_order() {
    let (mut base, trace, stats) = folded_fixture();
    base.dropped += 1;
    let report = verify_schedule_from(&base, &trace, &stats, 0, DEVICES);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::OutOfOrder { .. })),
        "kept records no longer sit at their own indices:\n{report}"
    );
    assert!(
        report.violations.iter().any(|v| matches!(
            v,
            Violation::AccountingMismatch {
                stat: "batches_dispatched",
                ..
            }
        )),
        "and the batch count no longer closes:\n{report}"
    );
}

#[test]
fn frontier_behind_the_last_dropped_completion_trips_the_frontier_replay() {
    let (mut base, trace, stats) = folded_fixture();
    // The first kept batch was admitted at the cut, so the frontier it
    // recorded *is* the last dropped completion.
    assert_eq!(trace[0].frontier_us, base.frontier_us);
    base.frontier_us -= 1.0;
    base.elapsed_us = base.frontier_us;
    for free in &mut base.free_at {
        *free = free.min(base.frontier_us);
    }
    let report = verify_schedule_from(&base, &trace, &stats, 0, DEVICES);
    assert!(
        report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::FrontierMismatch { .. })),
        "a frontier behind the dropped completions must not replay:\n{report}"
    );
}

#[test]
fn a_base_that_contradicts_itself_is_reported_as_such() {
    let (base, trace, stats) = folded_fixture();
    let mut ticks = base.clone();
    ticks.event_tick = base.dropped as u64; // fewer ticks than admissions + joins
    let mut clocks = base.clone();
    clocks.elapsed_us += 1.0; // makespan and frontier are one max
    let mut devices = base.clone();
    devices.free_at.pop();
    for (what, doctored) in [("ticks", ticks), ("clocks", clocks), ("devices", devices)] {
        let report = verify_schedule_from(&doctored, &trace, &stats, 0, DEVICES);
        assert!(
            report
                .violations
                .iter()
                .any(|v| matches!(v, Violation::BaseInconsistent { .. })),
            "{what}:\n{report}"
        );
    }
}

#[test]
fn empty_base_is_the_unfolded_verdict() {
    // A short drain folds nothing: the service's base is the empty one,
    // and verifying from it is verifying the whole trace — clean or, on a
    // doctored trace, the same violations in the same order.
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .devices(DEVICES)
        .backend(ExecBackend::Sim)
        .sched(
            SchedPolicy::new()
                .workers(1)
                .pipeline_depth(4)
                .admission(AdmissionMode::OutOfOrder),
        )
        .service()
        .expect("valid service config");
    let max_level = svc.params().max_level();
    for k in 1..=max_level {
        for op in [FheOp::HMult, FheOp::Rescale] {
            svc.submit(FheRequest::new(op, k, 1, format!("c{k}")))
                .expect("valid");
        }
    }
    let _ = svc.drain();
    assert_eq!(*svc.schedule_trace_base(), TraceBase::empty(DEVICES));
    let stats = svc.stats();
    let mut trace = svc.schedule_trace().to_vec();
    assert!(verify_service(&svc).is_clean());
    assert!(verify_schedule(&trace, &stats, 0, DEVICES).is_clean());

    trace[1].planned_at = trace[1].admitted_at + 1;
    trace[2].bypassed = stats.aging_bound + 1;
    let whole = verify_schedule(&trace, &stats, 0, DEVICES);
    let resumed = verify_schedule_from(&TraceBase::empty(DEVICES), &trace, &stats, 0, DEVICES);
    assert!(!whole.is_clean());
    assert_eq!(whole.violations, resumed.violations);
}

#[test]
fn mid_drain_service_verifies_from_its_base() {
    // The per-record checks hold at any point of a drain, folded or not.
    let mut svc = folded_service(AdmissionMode::InOrder, 1, 4);
    let max_level = svc.params().max_level();
    for k in 1..=max_level {
        svc.submit(FheRequest::new(FheOp::HMult, k, 1, format!("c{k}")))
            .expect("valid");
    }
    let _ = svc.pump();
    assert!(svc.pending_ops() > 0, "still mid-drain");
    let report = verify_service(&svc);
    assert!(report.is_clean(), "{report}");
}
