//! The schedule-invariant verifier: replays the scheduler's structural
//! trace and the device launch streams, and reports every violation of
//! the invariants the pinned benchmarks rest on.
//!
//! The checker is deliberately *independent*: it recomputes the join
//! frontier, the per-device free times, and the accounting totals from
//! the [`BatchRecord`] stream alone, then compares them against what the
//! scheduler claims. Where the reference implementation accumulates a
//! float in a known order, the verifier folds the same sequence and
//! demands exact equality; only cross-order sums (interval time vs the
//! canonical shard attribution) get a relative epsilon.
//!
//! # Resuming from a base
//!
//! A long-lived service keeps only a window of its trace
//! (`tensorfhe_core::sched`, "the trace is a window"): the records before
//! it are folded into a [`TraceBase`], cut at a quiescent point — nothing
//! in flight, frozen or unsettled — so the batches dropped are exactly
//! those with `seq < dropped` and exactly those with `serial_seq <
//! dropped`. Every replay below therefore *starts from the base instead of
//! from zero*: indices are offset by `base.dropped`, ticks start at
//! `base.event_tick`, clocks start at the base's frontier and free-ats,
//! and every cumulative fold continues from the base's partial, in the
//! order the accumulator itself uses — so exact folds stay exact however
//! often the trace was folded. Every partial, the settle totals that
//! [`ServiceStats`] reports (`busy_us`, `device_busy_us`, the upload
//! count and time, `ops_completed`) included, is a field of the base
//! itself: the scheduler keeps them all and the base is a copy of them
//! taken at the cut. With [`TraceBase::empty`]
//! ([`verify_schedule`]) the offsets are zero and the checks are the
//! whole-trace checks. The base cannot be replayed (its records are gone),
//! only held to what every quiescent snapshot satisfies
//! ([`Violation::BaseInconsistent`]): one free-at and one busy total per
//! device, `2·dropped ≤ event_tick ≤ 3·dropped`, makespan = frontier, no
//! free-at outside `[0, frontier]`, no more uploads than batches.
//!
//! Invariants checked, per [`verify_schedule_from`], each relative to the
//! base:
//!
//! 1. **Per-device intervals** are non-overlapping and monotone: every
//!    shard starts at or after its device's previous free time — for a
//!    device's first kept shard, the base's free-at.
//! 2. **Gang start** `≥ max(join frontier, chosen device free times)`,
//!    with the key-upload stall applied on top — and the frontier itself
//!    must equal the max completion of exactly the batches joined before
//!    admission: the base's frontier joined with the completions of the
//!    first `joins_at_admit − dropped` kept records.
//! 3. **Joins settle in submission order** (one global event counter
//!    orders admissions and joins; both must be strictly increasing, and
//!    start at or after the base's tick), the record at window position
//!    `k` is batch `dropped + k`, and each `joins_at_admit` counts the
//!    dropped batches plus the kept ones joined before that admission.
//! 4. **Key uploads** are charged before the first gang compute (every
//!    placement starts at the post-upload gang start) and never on
//!    anonymous plans.
//! 5. **Window independence**: two batches simultaneously in flight never
//!    share a `(client, level)` key. (Nothing was in flight at the cut, so
//!    kept batches only ever meet kept batches.)
//! 6. **Accounting closure**: `busy_us` = base partial + Σ kept walls
//!    (exact fold, serial order), `elapsed_us` = max(base makespan, kept
//!    completions) (exact), `overlap_fraction` = `1 − makespan / serial`
//!    with `serial` = base partial + Σ (upload + wall) in join order
//!    (exact) and inside `[0, 1)`, base attribution + Σ kept intervals ≈ Σ
//!    per-device attribution, upload count/time = base partials + kept,
//!    `batches_dispatched = dropped + kept`, `ops_completed` = base ops +
//!    kept widths, and
//!    `ops_submitted = completed + shed + rejected + pending`.
//! 7. **Program order**: two batches sharing a `(client, level)` key are
//!    admitted in serial plan order — the scoreboard never reorders one
//!    client stream against itself. (Every dropped batch was planned
//!    before every kept one, so the check runs among kept records.)
//! 8. **Reorder accounting**: every plan is frozen before it is admitted
//!    and not before the base's tick, no plan is bypassed more than the
//!    aging bound, the frontier never moves backwards while a plan is
//!    pending, and `reorder_distance` / `head_blocked_us` replay from the
//!    base's partials plus the trace. Under in-order admission the
//!    records must be degenerate: planned = admitted, serial order =
//!    admission order, zero bypasses. A drained trace's serial indices
//!    are a permutation of `dropped..dropped + kept`.
//! 9. **Priority-rule replay** (quiescent out-of-order traces): the
//!    verifier re-simulates every freeze/admit/join event against the
//!    scheduler's documented greedy-then-oldest rule — lookahead bound,
//!    key eligibility, aging gate, greedy group preference with
//!    reset-on-empty-window, bypass bumping — and rejects any admission
//!    the rule would not have made. The replay starts where the base
//!    left the scoreboard: empty, no greedy preference, `dropped` plans
//!    frozen so far.
//!
//! [`verify_launch_intervals`] holds a [`DeviceSim`]'s per-stream launch
//! records to the FIFO-stream contract (non-overlapping, monotone).
//!
//! [`DeviceSim`]: tensorfhe_gpu::DeviceSim

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use tensorfhe_core::sched::{AdmissionMode, BatchRecord, TraceBase};
use tensorfhe_core::service::{FheService, ServiceStats};

/// Relative tolerance for sums folded in a different order than the
/// reference accumulation.
const REL_EPS: f64 = 1e-9;

/// One violated schedule invariant.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A shard started before its device's previous shard finished.
    DeviceOverlap {
        /// Batch submission index.
        seq: usize,
        /// Device the shard was placed on.
        device: usize,
        /// The shard's start time (µs).
        start_us: f64,
        /// The device's free time when the shard started (µs).
        free_us: f64,
    },
    /// The recorded stall point disagrees with the replayed
    /// `max(frontier, chosen free times)`.
    StallMismatch {
        /// Batch submission index.
        seq: usize,
        /// Replayed stall point (µs).
        expected_us: f64,
        /// Recorded stall point (µs).
        got_us: f64,
    },
    /// The recorded join frontier disagrees with the max completion over
    /// the batches joined before admission.
    FrontierMismatch {
        /// Batch submission index.
        seq: usize,
        /// Replayed frontier (µs).
        expected_us: f64,
        /// Recorded frontier (µs).
        got_us: f64,
    },
    /// Admissions or joins left submission order.
    OutOfOrder {
        /// Batch submission index.
        seq: usize,
        /// What went out of order.
        detail: String,
    },
    /// A key upload was charged incorrectly: on an anonymous plan, after
    /// gang compute, or with a non-finite/negative stall.
    UploadMisapplied {
        /// Batch submission index.
        seq: usize,
        /// What the charge violated.
        detail: String,
    },
    /// Two simultaneously in-flight batches shared an independence key.
    WindowConflict {
        /// Earlier batch (by submission index).
        first: usize,
        /// Later batch admitted while `first` was still in flight.
        second: usize,
        /// The shared `(client, level)` key.
        key: (String, usize),
    },
    /// A batch's internal times are inconsistent (completion ≠ start +
    /// wall, wall ≠ longest shard, non-finite fields).
    BatchInconsistent {
        /// Batch submission index.
        seq: usize,
        /// The broken relation.
        detail: String,
    },
    /// A cumulative stat disagrees with the trace replay.
    AccountingMismatch {
        /// Which stat failed to close.
        stat: &'static str,
        /// Value replayed from the trace.
        expected: f64,
        /// Value the service reported.
        got: f64,
    },
    /// Submitted ops did not equal completed + shed + rejected + pending.
    OpsNotClosed {
        /// Ops ever submitted.
        submitted: usize,
        /// Ops completed.
        completed: usize,
        /// Ops shed.
        shed: usize,
        /// Ops rejected.
        rejected: usize,
        /// Ops still queued or in flight.
        pending: usize,
    },
    /// Two batches sharing a `(client, level)` key were admitted out of
    /// serial plan order — one client stream was reordered against
    /// itself.
    ProgramOrderViolated {
        /// The batch planned first (by serial index).
        first: usize,
        /// The batch planned later but admitted earlier.
        second: usize,
        /// The shared `(client, level)` key.
        key: (String, usize),
    },
    /// A plan was bypassed more times than the scheduler's aging bound
    /// permits.
    AgingExceeded {
        /// Batch admission index.
        seq: usize,
        /// Recorded bypass count.
        bypassed: usize,
        /// The scheduler's aging bound.
        bound: usize,
    },
    /// An admission disagrees with the greedy-then-oldest priority rule
    /// (or was made while key-blocked / nothing was admissible).
    PriorityViolated {
        /// Batch admission index.
        seq: usize,
        /// What the rule replay says instead.
        detail: String,
    },
    /// The reorder bookkeeping is internally inconsistent (freeze/admit
    /// tick relations, serial permutation, lookahead or window bounds,
    /// bypass counts, pending-frontier snapshots).
    ReorderInconsistent {
        /// Batch admission index.
        seq: usize,
        /// The broken relation.
        detail: String,
    },
    /// The trace's carry-in contradicts itself: a relation every quiescent
    /// snapshot satisfies, whatever records were folded into it, fails.
    BaseInconsistent {
        /// The broken relation.
        detail: String,
    },
    /// Two kernels on one FIFO stream overlapped or ran backwards.
    StreamOverlap {
        /// The stream id.
        stream: usize,
        /// Index of the offending kernel within the stream's records.
        index: usize,
        /// The violated relation.
        detail: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DeviceOverlap {
                seq,
                device,
                start_us,
                free_us,
            } => write!(
                f,
                "batch {seq}: shard on device {device} starts at {start_us} µs before the \
                 device is free at {free_us} µs"
            ),
            Violation::StallMismatch {
                seq,
                expected_us,
                got_us,
            } => write!(
                f,
                "batch {seq}: stall point {got_us} µs, replay says {expected_us} µs"
            ),
            Violation::FrontierMismatch {
                seq,
                expected_us,
                got_us,
            } => write!(
                f,
                "batch {seq}: join frontier {got_us} µs, replay says {expected_us} µs"
            ),
            Violation::OutOfOrder { seq, detail } => write!(f, "batch {seq}: {detail}"),
            Violation::UploadMisapplied { seq, detail } => write!(f, "batch {seq}: {detail}"),
            Violation::WindowConflict { first, second, key } => write!(
                f,
                "batches {first} and {second} in flight together share key ({}, {})",
                key.0, key.1
            ),
            Violation::BatchInconsistent { seq, detail } => write!(f, "batch {seq}: {detail}"),
            Violation::AccountingMismatch {
                stat,
                expected,
                got,
            } => write!(f, "{stat}: service reports {got}, trace replays {expected}"),
            Violation::OpsNotClosed {
                submitted,
                completed,
                shed,
                rejected,
                pending,
            } => write!(
                f,
                "op conservation broken: submitted {submitted} ≠ completed {completed} + \
                 shed {shed} + rejected {rejected} + pending {pending}"
            ),
            Violation::ProgramOrderViolated { first, second, key } => write!(
                f,
                "batches {first} and {second} share key ({}, {}) but admitted out of serial \
                 plan order",
                key.0, key.1
            ),
            Violation::AgingExceeded {
                seq,
                bypassed,
                bound,
            } => write!(
                f,
                "batch {seq}: bypassed {bypassed} times, aging bound is {bound}"
            ),
            Violation::PriorityViolated { seq, detail } => write!(f, "batch {seq}: {detail}"),
            Violation::ReorderInconsistent { seq, detail } => write!(f, "batch {seq}: {detail}"),
            Violation::BaseInconsistent { detail } => write!(f, "trace base: {detail}"),
            Violation::StreamOverlap {
                stream,
                index,
                detail,
            } => write!(f, "stream {stream}, kernel {index}: {detail}"),
        }
    }
}

/// The verifier's verdict: what was checked and every invariant that
/// failed. An empty violation list is the contract every integration run
/// must meet.
#[derive(Debug, Clone, Default)]
pub struct ScheduleReport {
    /// Batches replayed from the trace.
    pub batches: usize,
    /// Shard placements (or stream kernels) interval-checked.
    pub intervals: usize,
    /// Every violated invariant, in detection order.
    pub violations: Vec<Violation>,
}

impl ScheduleReport {
    /// Whether the schedule satisfied every invariant.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Merges another report into this one (summing coverage counters).
    pub fn merge(&mut self, other: ScheduleReport) {
        self.batches += other.batches;
        self.intervals += other.intervals;
        self.violations.extend(other.violations);
    }
}

impl fmt::Display for ScheduleReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule report: {} batches, {} intervals, {} violation(s)",
            self.batches,
            self.intervals,
            self.violations.len()
        )?;
        for v in &self.violations {
            writeln!(f, "  - {v}")?;
        }
        Ok(())
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= REL_EPS * a.abs().max(b.abs()).max(1.0)
}

/// Re-simulates the scoreboard against a quiescent trace: freezes,
/// admissions and joins share one tick counter, so sorting the per-record
/// ticks totally orders every scoreboard event (an in-order fallback
/// record freezes and admits on the same tick and replays as an immediate
/// pick from a one-plan scoreboard). Each replayed admission must be
/// exactly the plan the documented greedy-then-oldest rule picks.
fn replay_scoreboard(
    base: &TraceBase,
    trace: &[BatchRecord],
    stats: &ServiceStats,
    v: &mut Vec<Violation>,
) {
    use std::collections::{BTreeSet, VecDeque};

    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Ev {
        Freeze,
        Admit,
        Join,
    }

    let mut events: Vec<(u64, Ev, usize)> = Vec::with_capacity(trace.len() * 3);
    for (k, rec) in trace.iter().enumerate() {
        events.push((rec.planned_at, Ev::Freeze, k));
        events.push((rec.admitted_at, Ev::Admit, k));
        events.push((rec.joined_at, Ev::Join, k));
    }
    events.sort_unstable();

    // `pending` holds trace indices in freeze (= serial) order, so
    // position order is age order, exactly like the scheduler's deque.
    let mut pending: Vec<usize> = Vec::new();
    let mut bypassed = vec![0usize; trace.len()];
    let mut window: VecDeque<usize> = VecDeque::new();
    let mut inflight: BTreeSet<(Arc<str>, usize)> = BTreeSet::new();
    // The base is a quiescent point: scoreboard and window empty, no
    // greedy preference, and `dropped` plans frozen so far.
    let mut last_group: Option<(tensorfhe_core::FheOp, usize)> = None;
    let mut next_serial = base.dropped;

    for (_, ev, k) in events {
        let rec = &trace[k];
        match ev {
            Ev::Freeze => {
                if rec.serial_seq != next_serial {
                    v.push(Violation::ReorderInconsistent {
                        seq: rec.seq,
                        detail: format!(
                            "frozen as serial {} but {next_serial} plans froze before it",
                            rec.serial_seq
                        ),
                    });
                }
                next_serial += 1;
                if pending.len() >= stats.lookahead {
                    v.push(Violation::ReorderInconsistent {
                        seq: rec.seq,
                        detail: format!("frozen past the lookahead bound {}", stats.lookahead),
                    });
                }
                pending.push(k);
            }
            Ev::Admit => {
                let Some(pos) = pending.iter().position(|&i| i == k) else {
                    v.push(Violation::ReorderInconsistent {
                        seq: rec.seq,
                        detail: "admitted without a pending freeze".into(),
                    });
                    continue;
                };
                if window.len() >= stats.pipeline_depth {
                    v.push(Violation::ReorderInconsistent {
                        seq: rec.seq,
                        detail: format!(
                            "admitted into a full depth-{} window",
                            stats.pipeline_depth
                        ),
                    });
                }
                // Key eligibility: disjoint from every in-flight batch
                // and from every older pending plan (program order).
                let eligible: Vec<bool> = (0..pending.len())
                    .map(|p| {
                        let r = &trace[pending[p]];
                        r.keys.iter().all(|key| !inflight.contains(key))
                            && pending[..p]
                                .iter()
                                .all(|&o| trace[o].keys.iter().all(|key| !r.keys.contains(key)))
                    })
                    .collect();
                // Aging gate: once any plan starves, only plans at or
                // before its serial position may admit.
                let starve_min = pending
                    .iter()
                    .filter(|&&i| bypassed[i] >= stats.aging_bound)
                    .map(|&i| trace[i].serial_seq)
                    .min();
                let gated: Vec<usize> = (0..pending.len())
                    .filter(|&p| eligible[p])
                    .filter(|&p| starve_min.is_none_or(|m| trace[pending[p]].serial_seq <= m))
                    .collect();
                // Greedy-then-oldest: prefer the last admitted
                // `(op, level)` group, oldest among matches; else oldest.
                let expected = last_group
                    .and_then(|g| {
                        gated.iter().copied().find(|&p| {
                            let r = &trace[pending[p]];
                            (r.op, r.level) == g
                        })
                    })
                    .or_else(|| gated.first().copied());
                match expected {
                    None => v.push(Violation::PriorityViolated {
                        seq: rec.seq,
                        detail: "admitted while no pending plan was admissible".into(),
                    }),
                    Some(e) if e != pos => v.push(Violation::PriorityViolated {
                        seq: rec.seq,
                        detail: format!(
                            "rule picks serial {}, schedule admitted serial {}",
                            trace[pending[e]].serial_seq, rec.serial_seq
                        ),
                    }),
                    Some(_) => {}
                }
                // Only key-eligible older plans age.
                for p in 0..pos {
                    if eligible[p] {
                        bypassed[pending[p]] += 1;
                    }
                }
                if bypassed[k] != rec.bypassed {
                    v.push(Violation::ReorderInconsistent {
                        seq: rec.seq,
                        detail: format!(
                            "records {} bypasses, replay counts {}",
                            rec.bypassed, bypassed[k]
                        ),
                    });
                }
                pending.remove(pos);
                for key in &rec.keys {
                    inflight.insert(key.clone());
                }
                window.push_back(k);
                last_group = Some((rec.op, rec.level));
            }
            Ev::Join => {
                if window.front() != Some(&k) {
                    v.push(Violation::ReorderInconsistent {
                        seq: rec.seq,
                        detail: "joined out of admission order".into(),
                    });
                    window.retain(|&i| i != k);
                } else {
                    window.pop_front();
                }
                for key in &rec.keys {
                    inflight.remove(key);
                }
                // An empty window starts a fresh schedule epoch: the
                // greedy preference does not leak across it.
                if window.is_empty() {
                    last_group = None;
                }
            }
        }
    }
    if !pending.is_empty() || !window.is_empty() {
        v.push(Violation::ReorderInconsistent {
            seq: 0,
            detail: "quiescent trace left plans pending or in flight after replay".into(),
        });
    }
}

/// Verifies a whole (never folded) scheduler trace against the service's
/// cumulative stats: [`verify_schedule_from`] on the empty base.
#[must_use]
pub fn verify_schedule(
    trace: &[BatchRecord],
    stats: &ServiceStats,
    pending_ops: usize,
    devices: usize,
) -> ScheduleReport {
    verify_schedule_from(
        &TraceBase::empty(devices),
        trace,
        stats,
        pending_ops,
        devices,
    )
}

/// Checks a base against itself: what any quiescent snapshot satisfies
/// whatever the records behind it were.
fn check_base(base: &TraceBase, devices: usize, v: &mut Vec<Violation>) {
    let mut fail = |detail: String| v.push(Violation::BaseInconsistent { detail });
    if base.free_at.len() != devices || base.device_busy_us.len() != devices {
        fail(format!(
            "carries {} free-at and {} busy entries for {devices} devices",
            base.free_at.len(),
            base.device_busy_us.len()
        ));
    }
    // One tick per admission and per join, one more per out-of-order
    // freeze.
    let (lo, hi) = (2 * base.dropped as u64, 3 * base.dropped as u64);
    if !(lo..=hi).contains(&base.event_tick) {
        fail(format!(
            "event tick {} outside [{lo}, {hi}] for {} dropped batches",
            base.event_tick, base.dropped
        ));
    }
    // The frontier and the makespan are the same max over the same
    // completions; no device is busy past it, and none before time zero.
    if base.elapsed_us != base.frontier_us {
        fail(format!(
            "makespan {} µs ≠ join frontier {} µs",
            base.elapsed_us, base.frontier_us
        ));
    }
    for (d, &free) in base.free_at.iter().enumerate() {
        if !(0.0..=base.frontier_us).contains(&free) {
            fail(format!(
                "device {d} free at {free} µs, outside [0, join frontier {} µs]",
                base.frontier_us
            ));
        }
    }
    if base.key_uploads > base.dropped {
        fail(format!(
            "{} uploads charged to {} dropped batches",
            base.key_uploads, base.dropped
        ));
    }
}

/// Verifies the scheduler trace — the window of records since `base` —
/// against the service's cumulative stats.
///
/// `base` is the service's [`FheService::schedule_trace_base`] (the empty
/// base for a trace nothing was folded out of); `pending_ops` is the
/// service's live op count (queued + in flight) at the moment `stats` was
/// taken; `devices` bounds placement indices. Pass the trace of a service
/// at a quiescent point, e.g. after `drain`: every record is final once
/// joined, but key uploads are counted when a plan enters the scheduler
/// and busy time when a batch settles, so mid-drain the stats run ahead
/// of the trace.
#[must_use]
pub fn verify_schedule_from(
    base: &TraceBase,
    trace: &[BatchRecord],
    stats: &ServiceStats,
    pending_ops: usize,
    devices: usize,
) -> ScheduleReport {
    let mut report = ScheduleReport {
        batches: trace.len(),
        ..ScheduleReport::default()
    };
    let v = &mut report.violations;
    check_base(base, devices, v);

    // `joined_before(t)`: how many batches — dropped ones included — had
    // joined before tick `t`. Joins are in trace order (checked below), so
    // that set is the base plus a trace prefix.
    let joined_before =
        |k: usize, t: u64| base.dropped + trace[..k].partition_point(|r| r.joined_at < t);
    // `frontier_after[j]`: the join frontier once the base and the first
    // `j` trace records have joined.
    let mut frontier_after = Vec::with_capacity(trace.len() + 1);
    frontier_after.push(base.frontier_us);
    for rec in trace {
        let last = frontier_after[frontier_after.len() - 1];
        frontier_after.push(last.max(rec.completion_us));
    }
    let frontier_at =
        |joins: usize| frontier_after[joins.saturating_sub(base.dropped).min(trace.len())];

    // --- Ordering: one global tick orders admissions and joins. ---
    for (k, rec) in trace.iter().enumerate() {
        if rec.seq != base.dropped + k {
            v.push(Violation::OutOfOrder {
                seq: rec.seq,
                detail: format!(
                    "trace position {k} after {} dropped records holds seq {}",
                    base.dropped, rec.seq
                ),
            });
        }
        if rec.planned_at.min(rec.admitted_at) < base.event_tick {
            v.push(Violation::OutOfOrder {
                seq: rec.seq,
                detail: format!(
                    "planned at tick {}, admitted at tick {}: before the base's tick {}",
                    rec.planned_at, rec.admitted_at, base.event_tick
                ),
            });
        }
        if rec.admitted_at >= rec.joined_at {
            v.push(Violation::OutOfOrder {
                seq: rec.seq,
                detail: format!(
                    "joined (tick {}) before admitted (tick {})",
                    rec.joined_at, rec.admitted_at
                ),
            });
        }
        if k > 0 {
            let prev = &trace[k - 1];
            if prev.admitted_at >= rec.admitted_at {
                v.push(Violation::OutOfOrder {
                    seq: rec.seq,
                    detail: "admitted out of submission order".into(),
                });
            }
            if prev.joined_at >= rec.joined_at {
                v.push(Violation::OutOfOrder {
                    seq: rec.seq,
                    detail: "joined out of submission order".into(),
                });
            }
        }
        let joins_before = joined_before(k, rec.admitted_at);
        if joins_before != rec.joins_at_admit {
            v.push(Violation::OutOfOrder {
                seq: rec.seq,
                detail: format!(
                    "claims {} joins at admission, ticks say {joins_before}",
                    rec.joins_at_admit
                ),
            });
        }
    }

    // --- Frontier, stall, placement, and per-batch consistency. ---
    let mut free_at = base.free_at.clone();
    free_at.resize(devices, 0.0);
    for rec in trace {
        // Frontier: max completion over exactly the joined-before prefix.
        let expected_frontier = frontier_at(rec.joins_at_admit);
        if expected_frontier != rec.frontier_us {
            v.push(Violation::FrontierMismatch {
                seq: rec.seq,
                expected_us: expected_frontier,
                got_us: rec.frontier_us,
            });
        }
        // Stall: frontier joined with the chosen devices' free times.
        let mut expected_stall = rec.frontier_us;
        let mut seen = Vec::new();
        for &(d, start, dur) in &rec.placements {
            report.intervals += 1;
            if d >= devices {
                v.push(Violation::BatchInconsistent {
                    seq: rec.seq,
                    detail: format!("placement on device {d} of {devices}"),
                });
                continue;
            }
            if seen.contains(&d) {
                v.push(Violation::BatchInconsistent {
                    seq: rec.seq,
                    detail: format!("two shards on device {d}"),
                });
            }
            seen.push(d);
            if !(start.is_finite() && dur.is_finite()) || dur < 0.0 {
                v.push(Violation::BatchInconsistent {
                    seq: rec.seq,
                    detail: format!("degenerate interval ({start}, {dur}) on device {d}"),
                });
                continue;
            }
            expected_stall = expected_stall.max(free_at[d]);
            if start < free_at[d] {
                v.push(Violation::DeviceOverlap {
                    seq: rec.seq,
                    device: d,
                    start_us: start,
                    free_us: free_at[d],
                });
            }
            if start != rec.start_us {
                v.push(Violation::UploadMisapplied {
                    seq: rec.seq,
                    detail: format!(
                        "shard on device {d} starts at {start} µs, not at the post-upload \
                         gang start {} µs (uploads must precede all compute)",
                        rec.start_us
                    ),
                });
            }
        }
        if expected_stall != rec.stall_us {
            v.push(Violation::StallMismatch {
                seq: rec.seq,
                expected_us: expected_stall,
                got_us: rec.stall_us,
            });
        }
        for &(d, start, dur) in &rec.placements {
            if d < devices && dur >= 0.0 && start.is_finite() {
                free_at[d] = start + dur;
            }
        }
        // Upload charging.
        if !(rec.upload_us.is_finite() && rec.upload_us >= 0.0) {
            v.push(Violation::UploadMisapplied {
                seq: rec.seq,
                detail: format!("degenerate upload charge {} µs", rec.upload_us),
            });
        } else if !rec.sessioned && rec.upload_us != 0.0 {
            v.push(Violation::UploadMisapplied {
                seq: rec.seq,
                detail: format!("anonymous plan charged a {} µs key upload", rec.upload_us),
            });
        } else {
            let expected_start = if rec.upload_us > 0.0 {
                rec.stall_us + rec.upload_us
            } else {
                rec.stall_us
            };
            if expected_start != rec.start_us {
                v.push(Violation::UploadMisapplied {
                    seq: rec.seq,
                    detail: format!(
                        "gang start {} µs ≠ stall {} µs + upload {} µs",
                        rec.start_us, rec.stall_us, rec.upload_us
                    ),
                });
            }
        }
        // Internal consistency.
        if rec.start_us + rec.wall_us != rec.completion_us {
            v.push(Violation::BatchInconsistent {
                seq: rec.seq,
                detail: format!(
                    "completion {} µs ≠ start {} µs + wall {} µs",
                    rec.completion_us, rec.start_us, rec.wall_us
                ),
            });
        }
        if !rec.placements.is_empty() {
            let longest = rec
                .placements
                .iter()
                .fold(0.0f64, |m, &(_, _, dur)| m.max(dur));
            if !close(longest, rec.wall_us) {
                v.push(Violation::BatchInconsistent {
                    seq: rec.seq,
                    detail: format!("wall {} µs ≠ longest shard {longest} µs", rec.wall_us),
                });
            }
        }
    }

    // --- Window independence. ---
    for (k, rec) in trace.iter().enumerate() {
        // In flight at rec's admission: every earlier batch not yet joined.
        for prev in trace[..k].iter().rev() {
            if prev.joined_at < rec.admitted_at {
                break; // joins are in order: everything earlier left too
            }
            if let Some(shared) = prev.keys.iter().find(|k| rec.keys.contains(k)) {
                v.push(Violation::WindowConflict {
                    first: prev.seq,
                    second: rec.seq,
                    key: (shared.0.to_string(), shared.1),
                });
            }
        }
    }

    // --- Reorder invariants: per-record relations (valid mid-drain). ---
    for rec in trace {
        if rec.planned_at > rec.admitted_at {
            v.push(Violation::ReorderInconsistent {
                seq: rec.seq,
                detail: format!(
                    "admitted (tick {}) before planned (tick {})",
                    rec.admitted_at, rec.planned_at
                ),
            });
        }
        if rec.frontier_us < rec.planned_frontier_us {
            v.push(Violation::ReorderInconsistent {
                seq: rec.seq,
                detail: format!(
                    "join frontier moved backwards while pending ({} µs at freeze, {} µs at \
                     admission)",
                    rec.planned_frontier_us, rec.frontier_us
                ),
            });
        }
        // Pending-frontier snapshot: max completion over exactly the
        // batches joined before the freeze tick (joins are monotone, so
        // that set is the base plus a trace prefix).
        let expected = frontier_at(joined_before(trace.len(), rec.planned_at));
        if expected != rec.planned_frontier_us {
            v.push(Violation::ReorderInconsistent {
                seq: rec.seq,
                detail: format!(
                    "pending frontier {} µs, replay says {expected} µs",
                    rec.planned_frontier_us
                ),
            });
        }
        if rec.bypassed > stats.aging_bound {
            v.push(Violation::AgingExceeded {
                seq: rec.seq,
                bypassed: rec.bypassed,
                bound: stats.aging_bound,
            });
        }
        if stats.admission == AdmissionMode::InOrder {
            // In-order admission must be degenerate: planning and
            // admission are one step and nothing is ever bypassed.
            if rec.serial_seq != rec.seq {
                v.push(Violation::ReorderInconsistent {
                    seq: rec.seq,
                    detail: format!("in-order batch admitted as serial {}", rec.serial_seq),
                });
            }
            if rec.planned_at != rec.admitted_at {
                v.push(Violation::ReorderInconsistent {
                    seq: rec.seq,
                    detail: format!(
                        "in-order batch planned at tick {} but admitted at tick {}",
                        rec.planned_at, rec.admitted_at
                    ),
                });
            }
            if rec.bypassed != 0 {
                v.push(Violation::ReorderInconsistent {
                    seq: rec.seq,
                    detail: format!("in-order batch claims {} bypasses", rec.bypassed),
                });
            }
        }
    }

    // --- Program order: one client stream is never reordered. Every
    // --- dropped record was planned before every kept one, so only kept
    // --- records can be out of order with each other: per key, the
    // --- latest-planned batch admitted so far must have been planned
    // --- before this one.
    let mut latest: BTreeMap<&(Arc<str>, usize), &BatchRecord> = BTreeMap::new();
    for rec in trace {
        for key in &rec.keys {
            match latest.get(key) {
                Some(prev) if prev.serial_seq >= rec.serial_seq => {
                    v.push(Violation::ProgramOrderViolated {
                        first: rec.seq,
                        second: prev.seq,
                        key: (key.0.to_string(), key.1),
                    });
                }
                _ => {
                    latest.insert(key, rec);
                }
            }
        }
    }

    // --- Priority-rule replay (quiescent traces only: a mid-drain trace
    // --- is missing the frozen-but-unjoined plans the rule saw). ---
    if pending_ops == 0 {
        let mut serials: Vec<usize> = trace.iter().map(|r| r.serial_seq).collect();
        serials.sort_unstable();
        if serials
            .iter()
            .enumerate()
            .any(|(i, &s)| base.dropped + i != s)
        {
            v.push(Violation::ReorderInconsistent {
                seq: base.dropped,
                detail: format!(
                    "serial indices of a drained trace are not a permutation of {}..{}",
                    base.dropped,
                    base.dropped + trace.len()
                ),
            });
        }
        if stats.admission == AdmissionMode::OutOfOrder {
            replay_scoreboard(base, trace, stats, v);
        }
    }

    // --- Reorder accounting. The service accumulates both stats at
    // --- admission (= trace order), so a mid-drain trace replays a
    // --- prefix: the replay may trail the stat but never exceed it.
    let head_blocked: f64 = trace.iter().fold(base.head_blocked_us, |acc, r| {
        acc + (r.frontier_us - r.planned_frontier_us)
    });
    if head_blocked > stats.head_blocked_us
        || (pending_ops == 0 && head_blocked != stats.head_blocked_us)
    {
        v.push(Violation::AccountingMismatch {
            stat: "head_blocked_us",
            expected: head_blocked,
            got: stats.head_blocked_us,
        });
    }
    let reorder = trace
        .iter()
        .map(|r| r.seq.abs_diff(r.serial_seq))
        .fold(base.reorder_max, usize::max);
    if reorder > stats.reorder_distance || (pending_ops == 0 && reorder != stats.reorder_distance) {
        v.push(Violation::AccountingMismatch {
            stat: "reorder_distance",
            expected: reorder as f64,
            got: stats.reorder_distance as f64,
        });
    }

    // --- Accounting closure, every fold resumed from the base's partial.
    // --- The service accumulates `busy_us` at settle time, and the
    // --- reorder buffer settles in *serial* plan order — so the
    // --- exact-equality fold must run over the trace sorted by
    // --- `serial_seq`, not by admission. (In-order traces are unchanged:
    // --- there the two orders coincide.) ---
    let mut settle_order: Vec<&BatchRecord> = trace.iter().collect();
    settle_order.sort_by_key(|r| r.serial_seq);
    let busy: f64 = settle_order
        .iter()
        .fold(base.busy_us, |acc, r| acc + r.wall_us);
    if busy != stats.busy_us {
        v.push(Violation::AccountingMismatch {
            stat: "busy_us",
            expected: busy,
            got: stats.busy_us,
        });
    }
    let makespan = trace
        .iter()
        .fold(base.elapsed_us, |m, r| m.max(r.completion_us));
    if makespan != stats.elapsed_us {
        v.push(Violation::AccountingMismatch {
            stat: "elapsed_us",
            expected: makespan,
            got: stats.elapsed_us,
        });
    }
    // The overlap is measured against the one-at-a-time makespan of the
    // same batches — upload stall, then wall, in join order, guarded like
    // the clock itself — so it can never leave [0, 1).
    let serial = trace.iter().fold(base.serial_us, |s, r| {
        let s = if r.upload_us > 0.0 {
            s + r.upload_us
        } else {
            s
        };
        s + r.wall_us
    });
    let overlap = if serial > 0.0 {
        1.0 - makespan / serial
    } else {
        0.0
    };
    if overlap != stats.overlap_fraction || !(0.0..1.0).contains(&stats.overlap_fraction) {
        v.push(Violation::AccountingMismatch {
            stat: "overlap_fraction",
            expected: overlap,
            got: stats.overlap_fraction,
        });
    }
    let interval_sum: f64 = trace
        .iter()
        .flat_map(|r| r.placements.iter())
        .map(|&(_, _, dur)| dur)
        .sum();
    let attributed_before: f64 = base.device_busy_us.iter().sum();
    let attributed: f64 = stats.device_busy_us.iter().sum();
    if !close(attributed_before + interval_sum, attributed) {
        v.push(Violation::AccountingMismatch {
            stat: "interval sum vs device attribution",
            expected: attributed_before + interval_sum,
            got: attributed,
        });
    }
    let uploads = base.key_uploads + trace.iter().filter(|r| r.upload_us > 0.0).count();
    if uploads != stats.key_uploads {
        v.push(Violation::AccountingMismatch {
            stat: "key_uploads",
            expected: uploads as f64,
            got: stats.key_uploads as f64,
        });
    }
    // Uploads are charged when a plan *freezes*, i.e. along the serial
    // walk — fold in serial order for the same reason as `busy_us`.
    let upload_us: f64 = settle_order
        .iter()
        .fold(base.key_upload_us, |acc, r| acc + r.upload_us);
    if upload_us != stats.key_upload_us {
        v.push(Violation::AccountingMismatch {
            stat: "key_upload_us",
            expected: upload_us,
            got: stats.key_upload_us,
        });
    }
    let widths: usize = base.ops_completed + trace.iter().map(|r| r.width).sum::<usize>();
    if widths != stats.ops_completed {
        v.push(Violation::AccountingMismatch {
            stat: "ops_completed",
            expected: widths as f64,
            got: stats.ops_completed as f64,
        });
    }
    let batches = base.dropped + trace.len();
    if batches != stats.batches_dispatched {
        v.push(Violation::AccountingMismatch {
            stat: "batches_dispatched",
            expected: batches as f64,
            got: stats.batches_dispatched as f64,
        });
    }
    if stats.ops_submitted
        != stats.ops_completed + stats.ops_shed + stats.ops_rejected + pending_ops
    {
        v.push(Violation::OpsNotClosed {
            submitted: stats.ops_submitted,
            completed: stats.ops_completed,
            shed: stats.ops_shed,
            rejected: stats.ops_rejected,
            pending: pending_ops,
        });
    }

    report
}

/// Verifies a service end to end: its scheduler trace against its own
/// cumulative stats. Call at a quiescent point, e.g. after `drain` (see
/// [`verify_schedule_from`]); a clean report means the overlap clock,
/// residency charging, window discipline, and accounting all reconcile.
#[must_use]
pub fn verify_service(svc: &FheService) -> ScheduleReport {
    verify_schedule_from(
        svc.schedule_trace_base(),
        svc.schedule_trace(),
        &svc.stats(),
        svc.pending_ops(),
        svc.devices(),
    )
}

/// Verifies `(stream, start_us, end_us)` launch records — e.g. from
/// [`tensorfhe_gpu::DeviceSim::intervals`] — against the FIFO-stream
/// contract: within a stream, kernels run forward in time and never
/// overlap.
#[must_use]
pub fn verify_launch_intervals(
    intervals: impl IntoIterator<Item = (usize, f64, f64)>,
) -> ScheduleReport {
    let mut report = ScheduleReport::default();
    let mut streams: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for (stream, start, end) in intervals {
        streams.entry(stream).or_default().push((start, end));
    }
    for (stream, kernels) in &streams {
        let mut prev_end = f64::NEG_INFINITY;
        for (i, &(start, end)) in kernels.iter().enumerate() {
            report.intervals += 1;
            if !(start.is_finite() && end.is_finite()) || end < start {
                report.violations.push(Violation::StreamOverlap {
                    stream: *stream,
                    index: i,
                    detail: format!("degenerate interval [{start}, {end}]"),
                });
                continue;
            }
            if start < prev_end {
                report.violations.push(Violation::StreamOverlap {
                    stream: *stream,
                    index: i,
                    detail: format!(
                        "starts at {start} µs before the previous kernel ends at {prev_end} µs"
                    ),
                });
            }
            prev_end = prev_end.max(end);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_stream_intervals_pass() {
        let r = verify_launch_intervals(vec![(0, 0.0, 1.0), (0, 1.0, 2.5), (1, 0.5, 3.0)]);
        assert!(r.is_clean(), "{r}");
        assert_eq!(r.intervals, 3);
    }

    #[test]
    fn overlapping_stream_intervals_fail() {
        let r = verify_launch_intervals(vec![(0, 0.0, 2.0), (0, 1.5, 3.0)]);
        assert_eq!(r.violations.len(), 1);
        assert!(matches!(r.violations[0], Violation::StreamOverlap { .. }));
    }
}
