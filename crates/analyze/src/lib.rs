//! Determinism tooling for the TensorFHE workspace: a source lint engine
//! and a schedule-invariant verifier.
//!
//! Every headline number this repository pins — the fig08–fig12 ratios in
//! `BENCH_baseline.json`, the depth-4 overlap, the key-affinity win — is
//! only credible because the overlap clock, kernel traces, and service
//! stats are *deterministic and internally consistent*. This crate turns
//! those implicit contracts into enforced ones:
//!
//! * [`lint`] — the `tfhe-lint` source pass: token/line-level custom
//!   lints clippy cannot know about (ambient time, ambient randomness,
//!   order-dependent hash iteration in result paths, undocumented
//!   `unsafe`, unjustified `#[allow]`, unsanctioned `std::env::var`),
//!   with stable `file:line [L00x]` diagnostics, a committed allowlist
//!   (`tfhe-lint.allow`), suppression annotations
//!   (`// lint: ordered-ok (reason)`), and a `--deny-all` exit code for
//!   CI.
//! * [`verify`] — the schedule-invariant verifier: a structural checker
//!   over the scheduler's [`tensorfhe_core::sched::BatchRecord`] trace,
//!   the service's accounting, and [`tensorfhe_gpu::DeviceSim`] launch
//!   intervals. It replays the overlap clock independently and reports a
//!   [`verify::ScheduleReport`] with a typed violation list: per-device
//!   intervals non-overlapping and monotone, gang starts legal, joins in
//!   submission order, key uploads charged only where the residency model
//!   placed them (and never on anonymous plans), in-flight window
//!   independence, and closed op/time accounting.
//!
//! Both engines are pure observers: linting reads source text, and
//! verification replays recorded traces without touching a clock, so a
//! verified run is bit-identical to an unverified one.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod lint;
pub mod verify;

pub use lint::{lint_source, lint_workspace, Diagnostic, FileScope, LintId};
pub use verify::{
    verify_launch_intervals, verify_schedule, verify_schedule_from, verify_service, ScheduleReport,
    Violation,
};
