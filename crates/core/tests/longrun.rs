//! Long-run flatness: a service driven for many times [`TRACE_WINDOW`]
//! batches keeps a bounded schedule trace, every record it sheds is
//! accounted for in the trace base, and the schedule verifier — resuming
//! from that base — stays clean after every fold.
//!
//! The simulated backend is pinned (whatever `TENSORFHE_BACKEND` says): the
//! pool's batch memo replays all but the first batch of each shape, which
//! is what makes tens of thousands of batches a sub-second run in release
//! and a few seconds in a debug build.

use tensorfhe_analyze::verify_service;
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::exec::ExecBackend;
use tensorfhe_core::sched::{AdmissionMode, SchedPolicy, TRACE_WINDOW};
use tensorfhe_core::service::{FheRequest, FheService};
use tensorfhe_core::{SessionConfig, SessionId};

const TENANTS: usize = 4;
const OPS: [FheOp; 4] = [FheOp::HMult, FheOp::HRotate, FheOp::Rescale, FheOp::HAdd];

/// A sessioned out-of-order service on the simulated backend, plus its
/// tenants' session handles.
fn service() -> (FheService, Vec<SessionId>) {
    let mut svc = TensorFhe::builder(&CkksParams::test_small())
        .devices(4)
        .backend(ExecBackend::Sim)
        .sched(
            SchedPolicy::new()
                .workers(1)
                .pipeline_depth(4)
                .admission(AdmissionMode::OutOfOrder),
        )
        .service()
        .expect("valid service config");
    let sessions = (0..TENANTS)
        .map(|i| {
            svc.register_session(SessionConfig::new(format!("tenant-{i}")))
                .expect("session registers")
        })
        .collect();
    (svc, sessions)
}

/// Submits wave `w`: every tenant re-runs a short circuit whose steps walk
/// the ops and the levels, so a wave coalesces into a few dozen partly
/// dependent batches. `count` of `None` asks for a few instances a step;
/// `Some(n)` for `n` (a whole batch cap makes every request its own batch,
/// however deep the backlog it is queued behind).
fn submit_wave(svc: &mut FheService, sessions: &[SessionId], w: usize, count: Option<usize>) {
    let max_level = svc.params().max_level();
    for step in 0..8 {
        for (t, &sid) in sessions.iter().enumerate() {
            let op = OPS[(step + t) % OPS.len()];
            let level = 1 + (step + 2 * t + w) % max_level;
            let count = count.unwrap_or(1 + (w + t) % 3);
            svc.submit(FheRequest::in_session(op, level, count, sid))
                .expect("valid request");
        }
    }
}

fn assert_ledger_closed(svc: &FheService) {
    let s = svc.stats();
    assert_eq!(
        s.ops_submitted,
        s.ops_completed + s.ops_shed + s.ops_rejected + svc.pending_ops(),
        "ops ledger open"
    );
    assert_eq!(
        svc.schedule_trace_base().dropped + svc.schedule_trace().len(),
        s.batches_dispatched,
        "a batch is neither in the trace nor in its base"
    );
}

#[test]
fn wave_driven_service_keeps_a_bounded_verifiable_trace() {
    let (mut svc, sessions) = service();
    let mut wave_max = 0usize;
    let mut folds = 0usize;
    let mut wave = 0usize;
    while svc.stats().batches_dispatched < 5 * TRACE_WINDOW {
        let before = svc.stats().batches_dispatched;
        let dropped_before = svc.schedule_trace_base().dropped;
        submit_wave(&mut svc, &sessions, wave, None);
        let reports = svc.drain();
        assert_eq!(reports.len(), 8 * TENANTS, "every request completes");
        wave += 1;
        wave_max = wave_max.max(svc.stats().batches_dispatched - before);

        // The bound: at most two generations, each shorter than a window
        // plus the batches between two quiescent points (one wave here).
        let len = svc.schedule_trace().len();
        assert!(
            len < 2 * (TRACE_WINDOW + wave_max),
            "wave {wave}: trace grew to {len} records"
        );
        assert_ledger_closed(&svc);
        let base = svc.schedule_trace_base();
        if base.dropped != dropped_before {
            folds += 1;
            assert!(
                len >= TRACE_WINDOW,
                "a fold must leave the newest window in place, left {len}"
            );
            let report = verify_service(&svc);
            assert!(
                report.is_clean(),
                "fold {folds} (dropped {}):\n{report}",
                base.dropped
            );
        }
    }
    assert!(folds >= 3, "5 windows of batches must fold repeatedly");
    // And once more on the final state, folded or not.
    let report = verify_service(&svc);
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.batches, svc.schedule_trace().len());
}

#[test]
fn pump_driven_stream_folds_only_where_it_quiesces() {
    let (mut svc, sessions) = service();
    // Wave-driven warm-up until the first generation has closed, so the
    // fold below has an old generation to drop.
    let mut wave = 0usize;
    while svc.stats().batches_dispatched < TRACE_WINDOW + 64 {
        submit_wave(&mut svc, &sessions, wave, None);
        let _ = svc.drain();
        wave += 1;
    }
    let dropped_before = svc.schedule_trace_base().dropped;
    let joined_before = svc.stats().batches_dispatched;

    // One backlog of more than a window of batches, pumped step by step:
    // with plans frozen ahead the scheduler is never quiescent until the
    // queue runs dry, so nothing may fold on the way — however long the
    // trace gets.
    let waves = (TRACE_WINDOW + 64).div_ceil(8 * TENANTS);
    let cap = svc.batch_cap();
    for w in 0..waves {
        submit_wave(&mut svc, &sessions, wave + w, Some(cap));
    }
    let mut completed = 0usize;
    while svc.pending_ops() > 0 {
        completed += svc.pump().len();
        if svc.pending_ops() > 0 {
            assert_eq!(
                svc.schedule_trace_base().dropped,
                dropped_before,
                "folded mid-stream, with batches still in flight"
            );
        }
    }
    assert_eq!(completed, waves * 8 * TENANTS);
    assert!(
        svc.stats().batches_dispatched - joined_before >= TRACE_WINDOW,
        "the backlog must span a window of batches"
    );

    // The pump that emptied the queue was the quiescent point: the old
    // generation went there.
    let base = svc.schedule_trace_base();
    assert!(
        base.dropped > dropped_before,
        "the fold due at the end of the stream did not happen"
    );
    assert!(svc.schedule_trace().len() >= TRACE_WINDOW);
    assert_ledger_closed(&svc);
    let report = verify_service(&svc);
    assert!(report.is_clean(), "{report}");
}
