//! Perf-regression gate: compares a PR's bench-smoke snapshot against the
//! committed baseline.
//!
//! ```text
//! check_regression [<BENCH_baseline.json> <BENCH_pr.json>]
//! ```
//!
//! Pinned metrics fall into two tolerance classes, keyed by name:
//!
//! * **deterministic** — metric names *not* starting with `host_`. These
//!   are simulated-device ratios (batched-GEMM formulations over their
//!   scalar counterparts), identical on every machine: the current run
//!   must contain them, and their value must not fall more than 25 %
//!   below the baseline. A missing deterministic key is fatal — the bench
//!   stopped emitting it.
//! * **host wall-clock** — metric names starting with `host_` (the part
//!   after the `bench/` prefix). These are real-machine timings emitted
//!   only behind each bench's variance guard, so they gate at a looser
//!   40 % drop and a missing key is *skipped*, not failed: a noisy or
//!   single-core runner simply contributes no host point that run.
//!
//! Metrics present only in the current snapshot are reported but not
//! gated (that's how new benches enter the trajectory: land the metric
//! first, pin it into the baseline next PR).
//!
//! Besides the ratio gate, the binary rebuilds smoke-scale service
//! schedules in-process — a pipelined anonymous stream and a
//! multi-tenant session stream at both matrix corners, plus the
//! adversarial head-blocked stream under out-of-order admission — and
//! replays them through the `tensorfhe-analyze` schedule verifier. A structural
//! violation (overlapping device intervals, a misapplied key upload, an
//! unclosed ops ledger) fails the gate even when every pinned ratio
//! still holds.
//!
//! Exit status: 0 when every pinned metric holds, 1 on any regression or
//! missing deterministic metric, 2 on usage/IO errors.

use std::path::Path;
use std::process::ExitCode;
use tensorfhe_bench::{print_table, report};

/// Deterministic pinned ratios may drop at most this fraction below the
/// baseline.
const ALLOWED_DROP: f64 = 0.25;

/// Host wall-clock keys (`host_*` metrics) gate at this looser fraction —
/// they are guarded medians, but still real-machine timings.
const ALLOWED_DROP_HOST: f64 = 0.40;

/// Tolerance class of a pinned key: `host_*` metric names (the segment
/// after the `bench/` prefix) are machine-dependent wall-clock points.
fn is_host_key(key: &str) -> bool {
    key.rsplit('/')
        .next()
        .is_some_and(|m| m.starts_with("host_"))
}

/// Rebuilds the bench-smoke schedule shapes in-process and audits them
/// with the structural verifier. Returns the joined violation reports on
/// failure.
fn verify_smoke_schedules() -> Result<(), String> {
    use tensorfhe_ckks::CkksParams;
    use tensorfhe_core::api::{FheOp, TensorFhe};
    use tensorfhe_core::sched::{AdmissionMode, SchedPolicy};
    use tensorfhe_core::service::FheRequest;
    use tensorfhe_core::SessionConfig;

    let mut failures = Vec::new();
    for &(workers, depth) in &[(1usize, 1usize), (4, 4)] {
        let mut svc = TensorFhe::builder(&CkksParams::test_small())
            .sched(SchedPolicy::new().workers(workers).pipeline_depth(depth))
            .service()
            .map_err(|e| e.to_string())?;
        let level = svc.params().max_level();
        let cap = svc.batch_cap();
        // The fig11/fig12 smoke shapes: a deadline-bound tenant, a
        // weighted heavy hitter, and anonymous pipelined traffic.
        let rt = svc
            .register_session(SessionConfig::new("rt").deadline_us(20_000.0))
            .map_err(|e| e.to_string())?;
        let be = svc
            .register_session(SessionConfig::new("be").weight(2.0))
            .map_err(|e| e.to_string())?;
        for i in 0..12 {
            let req = match i % 3 {
                0 => FheRequest::in_session(FheOp::HMult, level, cap, rt),
                1 => FheRequest::in_session(FheOp::HRotate, level, cap / 2 + 1, be),
                _ => FheRequest::new(FheOp::HAdd, level, cap, "anon"),
            };
            svc.submit(req).map_err(|e| e.to_string())?;
        }
        // Shedding can leave later work runnable; drain to a fixpoint.
        while !svc.drain().is_empty() {}
        let report = tensorfhe_analyze::verify_service(&svc);
        if !report.is_clean() {
            failures.push(format!("workers={workers} depth={depth}:\n{report}"));
        }
    }
    // The fig13 smoke shape: the adversarial head-blocked stream under
    // out-of-order admission (non-deadline traffic — deadline sessions
    // force the in-order fallback), re-verified structurally so the
    // scoreboard's reorder invariants are audited by the gate, not just
    // by the bench's bit-identity asserts.
    for &(workers, depth) in &[(1usize, 4usize), (4, 4)] {
        let mut svc = TensorFhe::builder(&CkksParams::test_small())
            .sched(
                SchedPolicy::new()
                    .workers(workers)
                    .pipeline_depth(depth)
                    .admission(AdmissionMode::OutOfOrder),
            )
            .devices(4)
            .service()
            .map_err(|e| e.to_string())?;
        let max_level = svc.params().max_level();
        for k in 1..=max_level {
            svc.submit(FheRequest::new(FheOp::HMult, k, 1, format!("c{k}")))
                .map_err(|e| e.to_string())?;
            svc.submit(FheRequest::new(FheOp::Rescale, k, 1, format!("c{k}")))
                .map_err(|e| e.to_string())?;
        }
        while !svc.drain().is_empty() {}
        let stats = svc.stats();
        if stats.reorder_distance == 0 {
            failures.push(format!(
                "ooo workers={workers} depth={depth}: the adversarial stream \
                 must reorder (reorder_distance == 0)"
            ));
        }
        let report = tensorfhe_analyze::verify_service(&svc);
        if !report.is_clean() {
            failures.push(format!("ooo workers={workers} depth={depth}:\n{report}"));
        }
    }
    // A stream long enough to fold the schedule trace once (two windows
    // of batches; the simulated backend is pinned so the dispatch-cost
    // cache keeps that to a fraction of a second): the verifier must
    // resume clean from the trace base the fold left behind.
    {
        let mut svc = TensorFhe::builder(&CkksParams::test_small())
            .sched(
                SchedPolicy::new()
                    .workers(1)
                    .pipeline_depth(4)
                    .admission(AdmissionMode::OutOfOrder),
            )
            .devices(4)
            .backend(tensorfhe_core::exec::ExecBackend::Sim)
            .service()
            .map_err(|e| e.to_string())?;
        let max_level = svc.params().max_level();
        let tenants = [
            svc.register_session(SessionConfig::new("a"))
                .map_err(|e| e.to_string())?,
            svc.register_session(SessionConfig::new("b").weight(2.0))
                .map_err(|e| e.to_string())?,
        ];
        let ops = [FheOp::HMult, FheOp::Rescale, FheOp::HRotate, FheOp::HAdd];
        let mut wave = 0usize;
        while svc.schedule_trace_base().dropped == 0 && wave < 4096 {
            for step in 0..12 {
                let (op, level) = (ops[(step + wave) % 4], 1 + (step + wave) % max_level);
                svc.submit(FheRequest::in_session(op, level, 1, tenants[step % 2]))
                    .map_err(|e| e.to_string())?;
            }
            svc.drain();
            wave += 1;
        }
        if svc.schedule_trace_base().dropped == 0 {
            failures.push(format!(
                "long stream: {} batches in {wave} waves never folded the trace",
                svc.stats().batches_dispatched
            ));
        }
        let report = tensorfhe_analyze::verify_service(&svc);
        if !report.is_clean() {
            failures.push(format!("long stream, folded trace:\n{report}"));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, current_path) = match args.as_slice() {
        [] => (
            "BENCH_baseline.json".to_string(),
            "BENCH_pr.json".to_string(),
        ),
        [b, c] => (b.clone(), c.clone()),
        _ => {
            eprintln!("usage: check_regression [<baseline.json> <current.json>]");
            return ExitCode::from(2);
        }
    };
    let baseline = match report::read_file(Path::new(&baseline_path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let current = match report::read_file(Path::new(&current_path)) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("cannot read current snapshot {current_path}: {e}");
            return ExitCode::from(2);
        }
    };

    let mut rows = Vec::new();
    let mut regressed: Vec<String> = Vec::new();
    let mut missing: Vec<String> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for (key, &base) in &baseline {
        let host = is_host_key(key);
        let (class, drop) = if host {
            ("host", ALLOWED_DROP_HOST)
        } else {
            ("det", ALLOWED_DROP)
        };
        let floor = base * (1.0 - drop);
        match current.get(key) {
            Some(&now) => {
                let ok = now >= floor;
                if !ok {
                    regressed.push(key.clone());
                }
                rows.push(vec![
                    key.clone(),
                    class.to_string(),
                    format!("{base:.3}"),
                    format!("{now:.3}"),
                    format!("{floor:.3}"),
                    if ok { "ok" } else { "REGRESSED" }.to_string(),
                ]);
            }
            None => {
                // A host key only appears when the emitting run was quiet
                // and multi-core; its absence is expected on noisy or
                // single-core runners and must not fail the gate.
                if host {
                    skipped.push(key.clone());
                } else {
                    missing.push(key.clone());
                }
                rows.push(vec![
                    key.clone(),
                    class.to_string(),
                    format!("{base:.3}"),
                    "missing".to_string(),
                    format!("{floor:.3}"),
                    if host { "SKIPPED" } else { "MISSING" }.to_string(),
                ]);
            }
        }
    }
    for (key, &now) in &current {
        if !baseline.contains_key(key) {
            rows.push(vec![
                key.clone(),
                if is_host_key(key) { "host" } else { "det" }.to_string(),
                "—".to_string(),
                format!("{now:.3}"),
                "—".to_string(),
                "unpinned".to_string(),
            ]);
        }
    }
    let det_pct = ALLOWED_DROP * 100.0;
    let host_pct = ALLOWED_DROP_HOST * 100.0;
    print_table(
        &format!(
            "Perf gate — {current_path} vs {baseline_path} \
             (max drop: det {det_pct:.0}%, host {host_pct:.0}%)"
        ),
        &["metric", "class", "baseline", "current", "floor", "status"],
        &rows,
    );
    if !skipped.is_empty() {
        println!(
            "{} host wall-clock key(s) skipped (not emitted this run — \
             noisy or single-core):",
            skipped.len()
        );
        for key in &skipped {
            println!("  - {key}");
        }
    }

    // A pinned key that disappeared is its own failure class: the bench
    // stopped emitting it (renamed, skipped, or broken), which the drop
    // check alone can't see. Name every absent key so the fix is obvious.
    if !missing.is_empty() {
        eprintln!(
            "{} pinned deterministic key(s) missing from {current_path}:",
            missing.len()
        );
        for key in &missing {
            eprintln!("  - {key}");
        }
        eprintln!(
            "(every deterministic key in {baseline_path} must be emitted by the \
             bench-smoke run; rename the baseline key in the same PR that renames \
             the metric. host_* keys are exempt — they skip when the variance \
             guard trips.)"
        );
    }
    if !regressed.is_empty() {
        eprintln!("{} pinned metric(s) regressed:", regressed.len());
        for key in &regressed {
            eprintln!("  - {key}");
        }
    }
    let schedule_audit = verify_smoke_schedules();
    if let Err(violations) = &schedule_audit {
        eprintln!("schedule verifier found structural violations:\n{violations}");
    } else {
        println!("schedule verifier: smoke schedules clean at every matrix corner (incl. ooo)");
    }
    if !missing.is_empty() || !regressed.is_empty() || schedule_audit.is_err() {
        ExitCode::FAILURE
    } else {
        println!(
            "all pinned metrics within tolerance \
             (det {det_pct:.0}%, host {host_pct:.0}%)"
        );
        ExitCode::SUCCESS
    }
}
