//! `svc_host` / `svc_sim`: request waves through `FheService`.
//!
//! * `svc_host` — the real-arithmetic executor path at HEAX set B: 2
//!   devices, host-parallel backend, `min(2, nproc)` workers. A wave is 4
//!   anonymous clients each submitting one request (op cycling
//!   HMULT/HROTATE/RESCALE/CMULT/HADD, two levels, count 2), then `drain`;
//!   the pattern repeats every 5 waves.
//! * `svc_sim` — the simulated backend at ResNet-20 scale: 4 devices, 8
//!   registered tenants sharing a key cache that holds 3 key sets,
//!   out-of-order admission, key-affinity coalescing, one service for the
//!   whole run. Every tenant owns a circuit of 32 requests drawn from the
//!   seed (op from the logistic-regression op mix, level uniform in
//!   `1..=L`, count uniform in `1..=48`) and runs it again and again, as a
//!   tenant serving inferences does. A wave is the next 4 requests of every
//!   tenant, then `drain`; the pattern repeats every 8 waves.

use crate::emit::Fnv;
use crate::probes::{self, ConvSet, Roofline};
use crate::run::{worker_budget, Report, RoundOut, Spec, Workload, CHECKED_ROUNDS};
use crate::span::Recorder;
use crate::stats::{median, percentile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;
use tensorfhe_analyze::verify::verify_service;
use tensorfhe_ckks::{CkksContext, CkksParams, KernelEvent};
use tensorfhe_core::api::{schedule_events, FheOp, TensorFhe};
use tensorfhe_core::engine::{Engine, EngineConfig, Variant};
use tensorfhe_core::exec::ExecBackend;
use tensorfhe_core::sched::{AdmissionMode, SchedPolicy};
use tensorfhe_core::service::{FheRequest, FheService, RequestReport, ServiceStats};
use tensorfhe_core::session::{default_galois_steps, key_set_bytes, SessionId};
use tensorfhe_core::{CoalescePolicy, SessionConfig};
use tensorfhe_ntt::{NttAlgorithm, PlanCache};
use tensorfhe_workloads::schedules;

/// Which service workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Host,
    Sim,
}

const HOST_OPS: [FheOp; 5] = [
    FheOp::HMult,
    FheOp::HRotate,
    FheOp::Rescale,
    FheOp::CMult,
    FheOp::HAdd,
];
const HOST_CLIENTS: usize = 4;
const HOST_COUNT: usize = 2;
const SIM_TENANTS: usize = 8;
const SIM_REQUESTS_PER_TENANT: usize = 4;
const SIM_MAX_COUNT: usize = 48;
/// Key sets the `svc_sim` cache holds: fewer than tenants, so residency is
/// contended and batch composition decides the hit rate.
const SIM_CACHE_KEY_SETS: u64 = 3;
/// Waves after which every `svc_sim` tenant's circuit starts over. The
/// service caches dispatch cost per `(op, level, width)` shape and lives as
/// long as the run, so with unbounded shapes it would keep speeding up for
/// thousands of waves and a run's speed would depend on its length.
/// Repeating circuits bound the shapes: the cache fills during the warm-up
/// and the timed waves run in the steady state a long-lived service is in
/// (`core.cost_reuse_rate` says how steady).
const SIM_CIRCUIT_WAVES: usize = 8;
/// Passes over the circuits before the first timed wave.
const SIM_WARMUP_CIRCUITS: usize = 3;
/// Waves of the single-worker `svc_host` baseline.
const BASELINE_WAVES: usize = 20;

/// Deterministic request stream: the seed is its only input.
struct Stream {
    kind: Kind,
    /// `svc_host`: requests generated so far; `svc_sim`: waves.
    next: usize,
    top: usize,
    /// `svc_sim`: every tenant's circuit as `(op, level, count)` steps.
    circuits: Vec<Vec<(FheOp, usize, usize)>>,
}

impl Stream {
    fn new(kind: Kind, seed: u64, params: &CkksParams) -> Self {
        let top = params.max_level();
        let mut circuits = Vec::new();
        if kind == Kind::Sim {
            // The logistic-regression op mix by instance count. Bootstraps
            // are left out: one is ~60 HMULTs of launches and would make wave
            // time bimodal instead of exercising the scheduler more.
            let mut counts: BTreeMap<&'static str, (usize, FheOp)> = BTreeMap::new();
            for step in &schedules::logistic_regression().steps {
                if !matches!(step.op, FheOp::Bootstrap { .. }) {
                    counts.entry(step.op.name()).or_insert((0, step.op)).0 += step.count;
                }
            }
            let mut total = 0;
            let mix: Vec<(usize, FheOp)> = counts
                .into_values()
                .map(|(c, op)| {
                    total += c;
                    (total, op)
                })
                .collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let steps = SIM_CIRCUIT_WAVES * SIM_REQUESTS_PER_TENANT;
            circuits = (0..SIM_TENANTS)
                .map(|_| {
                    (0..steps)
                        .map(|_| {
                            let draw = rng.gen_range(0..total);
                            let op = mix
                                .iter()
                                .find(|(cum, _)| draw < *cum)
                                .expect("draw < total")
                                .1;
                            let level = rng.gen_range(1..=top);
                            (op, level, rng.gen_range(1..=SIM_MAX_COUNT))
                        })
                        .collect()
                })
                .collect();
        }
        Self {
            kind,
            next: 0,
            top,
            circuits,
        }
    }

    fn wave(&mut self, sessions: &[SessionId]) -> Vec<FheRequest> {
        match self.kind {
            Kind::Host => (0..HOST_CLIENTS)
                .map(|c| {
                    let k = self.next;
                    self.next += 1;
                    let level = self.top - (k / HOST_OPS.len()) % 2;
                    FheRequest::new(
                        HOST_OPS[k % HOST_OPS.len()],
                        level,
                        HOST_COUNT,
                        format!("client-{c}"),
                    )
                })
                .collect(),
            Kind::Sim => {
                let at = self.next % SIM_CIRCUIT_WAVES * SIM_REQUESTS_PER_TENANT;
                self.next += 1;
                sessions
                    .iter()
                    .zip(&self.circuits)
                    .flat_map(|(&sid, circuit)| {
                        circuit[at..at + SIM_REQUESTS_PER_TENANT].iter().map(
                            move |&(op, level, count)| {
                                FheRequest::in_session(op, level, count, sid)
                            },
                        )
                    })
                    .collect()
            }
        }
    }
}

fn build_service(
    kind: Kind,
    backend: ExecBackend,
    workers: usize,
) -> (CkksParams, FheService, Vec<SessionId>) {
    match kind {
        Kind::Host => {
            let params = CkksParams::heax_set_b();
            let svc = TensorFhe::builder(&params)
                .backend(backend)
                .devices(2)
                .rows_cap(0)
                .sched(
                    SchedPolicy::new()
                        .workers(workers)
                        .pipeline_depth(2)
                        .admission(AdmissionMode::InOrder),
                )
                .service()
                .expect("svc_host configuration is valid");
            (params, svc, Vec::new())
        }
        Kind::Sim => {
            let params = CkksParams::table_v_resnet20();
            let set_mb = key_set_bytes(&params, default_galois_steps(&params)) >> 20;
            let mut svc = TensorFhe::builder(&params)
                .backend(backend)
                .devices(4)
                .sched(
                    SchedPolicy::new()
                        .workers(1)
                        .pipeline_depth(4)
                        .admission(AdmissionMode::OutOfOrder),
                )
                .coalesce_policy(CoalescePolicy::KeyAffinity)
                .key_cache_mb(SIM_CACHE_KEY_SETS * set_mb)
                .service()
                .expect("svc_sim configuration is valid");
            let sessions = (0..SIM_TENANTS)
                .map(|i| {
                    svc.register_session(SessionConfig::new(format!("tenant-{i}")))
                        .expect("session registers")
                })
                .collect();
            (params, svc, sessions)
        }
    }
}

/// Bits of everything a report says, in a fixed field order.
fn fold_report(h: &mut Fnv, r: &RequestReport) {
    h.word(r.id.raw());
    h.text(&r.client);
    h.word(r.level as u64);
    h.float(r.queue_us);
    h.word(r.batches as u64);
    let o = &r.report;
    h.text(o.op.name());
    h.word(o.batch as u64);
    for x in [
        o.time_us,
        o.per_op_us,
        o.occupancy,
        o.energy_j,
        o.ops_per_second,
        o.ops_per_watt,
    ] {
        h.float(x);
    }
    h.word(o.launches as u64);
    for (kernel, us) in &o.by_kernel {
        h.text(kernel);
        h.float(*us);
    }
}

/// Bits of every simulated float and count of the stats (host telemetry —
/// workers, backend, steals, lanes — is not simulated and stays out).
fn fold_stats(h: &mut Fnv, s: &ServiceStats) {
    for x in [
        s.requests_completed,
        s.ops_submitted,
        s.ops_completed,
        s.ops_shed,
        s.ops_rejected,
        s.batches_dispatched,
        s.launches,
        s.batch_cap,
        s.devices,
        s.reorder_distance,
        s.inflight_hwm,
        s.key_uploads,
        s.deadline_misses,
        s.shed_count,
        s.rejected_count,
    ] {
        h.word(x as u64);
    }
    for x in [s.key_cache_hits, s.key_cache_misses, s.key_cache_evictions] {
        h.word(x);
    }
    for x in [
        s.head_blocked_us,
        s.batch_fill,
        s.busy_us,
        s.elapsed_us,
        s.overlap_fraction,
        s.energy_j,
        s.mean_queue_us,
        s.ops_per_second,
        s.pipelined_ops_per_second,
        s.ops_per_watt,
        s.key_cache_hit_rate,
        s.key_upload_us,
        s.fairness_index,
    ] {
        h.float(x);
    }
    s.device_busy_us
        .iter()
        .chain(&s.device_utilization)
        .for_each(|&x| h.float(x));
    for (name, ops) in &s.per_session_ops {
        h.text(name);
        h.word(*ops as u64);
    }
}

/// NTT rows and Conv output elements one request plans, from the analytic
/// schedule (`count` instances of the op's event stream).
fn planned_work(params: &CkksParams, req: &FheRequest) -> (usize, usize) {
    let (mut rows, mut conv) = (0, 0);
    for e in schedule_events(params, req.op, req.level) {
        match e {
            KernelEvent::Ntt { limbs, .. } => rows += limbs,
            KernelEvent::Conv { n, l_dst, .. } => conv += n * l_dst,
            _ => {}
        }
    }
    (rows * req.count, conv * req.count)
}

/// An open ops ledger or a refusal, in words.
fn ledger_errors(s: &ServiceStats) -> Vec<String> {
    let mut errors = Vec::new();
    if s.ops_submitted != s.ops_completed + s.ops_shed + s.ops_rejected {
        errors.push(format!(
            "ops ledger open: submitted {} != completed {} + shed {} + rejected {}",
            s.ops_submitted, s.ops_completed, s.ops_shed, s.ops_rejected
        ));
    }
    if s.rejected_count + s.shed_count + s.ops_rejected + s.ops_shed != 0 {
        errors.push(format!(
            "unexpected refusals: {} rejected, {} shed",
            s.rejected_count, s.shed_count
        ));
    }
    errors
}

/// The `svc_*` workload state.
pub struct Svc {
    spec: Spec,
    kind: Kind,
    seed: u64,
    params: CkksParams,
    svc: FheService,
    sessions: Vec<SessionId>,
    stream: Stream,
    wave: Vec<FheRequest>,
    accepted: Vec<(u64, usize)>,
    reports: Vec<RequestReport>,
    done: usize,
    /// One digest per wave, warm-up included, for the sim-backend replay.
    wave_digests: Vec<u64>,
    checked_digest: Fnv,
    checked_queue_ms: Vec<f64>,
    /// Per timed wave: (planned NTT rows, planned Conv elements, launches).
    wave_work: Vec<(usize, usize, usize)>,
    /// Index into `wave_work` of the first traced wave.
    traced_from: Option<usize>,
    launches_seen: usize,
    /// Batch shapes the service dispatched up to the last checked wave, and
    /// how much of its schedule trace has been read into them.
    shapes: HashSet<(FheOp, usize, usize)>,
    trace_seen: usize,
    /// Batches of the checked waves, and those whose shape had been
    /// dispatched before (a dispatch-cost cache hit on the sim backend).
    checked_batches: (usize, usize),
}

impl Svc {
    /// Service build and session registration.
    pub fn setup(kind: Kind, seed: u64) -> Self {
        let (backend, workers, spec) = match kind {
            Kind::Host => (
                ExecBackend::HostParallel,
                worker_budget(),
                Spec {
                    name: crate::catalog::SVC_HOST,
                    warmup: 15,
                    period: HOST_OPS.len(),
                    rounds: 320,
                },
            ),
            Kind::Sim => (
                ExecBackend::Sim,
                1,
                Spec {
                    name: crate::catalog::SVC_SIM,
                    warmup: SIM_WARMUP_CIRCUITS * SIM_CIRCUIT_WAVES,
                    period: SIM_CIRCUIT_WAVES,
                    // A wave takes a fifth of a millisecond, but the service
                    // keeps about 10 KB of trace for each: 32 000 end at
                    // about 350 MiB.
                    rounds: 32_000,
                },
            ),
        };
        let (params, svc, sessions) = build_service(kind, backend, workers);
        let stream = Stream::new(kind, seed, &params);
        Self {
            spec,
            kind,
            seed,
            params,
            svc,
            sessions,
            stream,
            wave: Vec::new(),
            accepted: Vec::new(),
            reports: Vec::new(),
            done: 0,
            wave_digests: Vec::new(),
            checked_digest: Fnv::default(),
            checked_queue_ms: Vec::new(),
            wave_work: Vec::new(),
            traced_from: None,
            launches_seen: 0,
            shapes: HashSet::new(),
            trace_seen: 0,
            checked_batches: (0, 0),
        }
    }

    fn timed_index(&self) -> Option<usize> {
        self.done.checked_sub(self.spec.warmup)
    }

    /// Replays the whole stream on a sim-backend service with the same
    /// configuration; returns per-wave digests and per-wave drain seconds.
    fn replay_on_sim(&self, waves: usize) -> (Vec<u64>, Vec<f64>) {
        let (params, mut svc, sessions) = build_service(self.kind, ExecBackend::Sim, 1);
        let mut stream = Stream::new(self.kind, self.seed, &params);
        let (mut digests, mut secs) = (Vec::with_capacity(waves), Vec::with_capacity(waves));
        for _ in 0..waves {
            for req in stream.wave(&sessions) {
                svc.submit(req)
                    .expect("the host run accepted the same request");
            }
            let t = Instant::now();
            let reports = svc.drain();
            secs.push(t.elapsed().as_secs_f64());
            let mut h = Fnv::default();
            reports.iter().for_each(|r| fold_report(&mut h, r));
            digests.push(h.0);
        }
        (digests, secs)
    }
}

impl Workload for Svc {
    fn spec(&self) -> Spec {
        self.spec
    }

    fn prepare(&mut self) {
        self.wave = self.stream.wave(&self.sessions);
    }

    fn round(&mut self, rec: &mut Recorder) -> RoundOut {
        let mut out = RoundOut::default();
        self.accepted.clear();
        if rec.is_on() {
            self.traced_from.get_or_insert(self.wave_work.len());
        }
        rec.begin("round");
        // One span over the wave's submits: a single one is below the
        // clock's resolution.
        rec.begin("core.submit");
        for req in &self.wave {
            out.ops += req.count as u64;
            match self.svc.submit(req.clone()) {
                Ok(id) => self.accepted.push((id.raw(), req.count)),
                Err(_) => out.failed += req.count as u64,
            }
        }
        rec.end();
        self.reports = rec.leaf("core.drain", || self.svc.drain());
        rec.end();
        out
    }

    fn check(&mut self) -> u64 {
        // Every accepted request must come back exactly once, at full count.
        let mut missing: BTreeMap<u64, usize> = self.accepted.iter().copied().collect();
        let mut wrong = 0u64;
        let mut h = Fnv::default();
        for r in &self.reports {
            fold_report(&mut h, r);
            match missing.remove(&r.id.raw()) {
                Some(count) if r.report.batch == count => {}
                Some(count) => wrong += count as u64,
                None => wrong += r.report.batch as u64,
            }
        }
        wrong += missing.values().map(|&c| c as u64).sum::<u64>();
        self.wave_digests.push(h.0);
        let timed = self.timed_index();
        let checked = timed.is_some_and(|t| t < CHECKED_ROUNDS);
        if timed.is_none() || checked {
            // Warm-up and checked waves: which batch shapes are new.
            for batch in &self.svc.schedule_trace()[self.trace_seen..] {
                let reused = !self.shapes.insert((batch.op, batch.level, batch.width));
                if checked {
                    self.checked_batches.0 += 1;
                    self.checked_batches.1 += usize::from(reused);
                }
            }
            self.trace_seen = self.svc.schedule_trace().len();
        }
        let launches = self.svc.stats().launches;
        if timed.is_some() {
            let (mut rows, mut conv) = (0, 0);
            for req in &self.wave {
                let (r, c) = planned_work(&self.params, req);
                rows += r;
                conv += c;
            }
            self.wave_work
                .push((rows, conv, launches - self.launches_seen));
        }
        if checked {
            self.checked_digest.word(h.0);
            self.checked_queue_ms
                .extend(self.reports.iter().map(|r| r.queue_us / 1e3));
        }
        self.launches_seen = launches;
        self.done += 1;
        wrong
    }

    fn snapshot(&mut self, out: &mut Report) {
        let s = self.svc.stats();
        fold_stats(&mut self.checked_digest, &s);
        out.digests.push(("sim_digest", self.checked_digest.0));
        let util = s.device_utilization.iter().sum::<f64>() / s.device_utilization.len() as f64;
        out.set("sim_util", util);
        out.set("core.batches", s.batches_dispatched as f64);
        out.set("core.batch_fill", s.batch_fill);
        out.set("core.launches", s.launches as f64);
        out.set("core.workers", s.workers as f64);
        out.set("core.simd_lanes", s.simd_lanes as f64);
        out.set("core.key_hit_rate", s.key_cache_hit_rate);
        out.set("core.key_upload_ms", s.key_upload_us / 1e3);
        out.set("core.reorder_distance", s.reorder_distance as f64);
        out.set("core.head_blocked_ms", s.head_blocked_us / 1e3);
        out.set("core.overlap_fraction", s.overlap_fraction);
        out.set("core.inflight_hwm", s.inflight_hwm as f64);
        out.set("core.fairness_index", s.fairness_index);
        out.set("core.rejected", (s.rejected_count + s.ops_rejected) as f64);
        out.set("core.shed", (s.shed_count + s.ops_shed) as f64);
        out.set("core.sim_ops_per_s", s.pipelined_ops_per_second);
        out.set("core.sim_queue_ms_p50", median(&self.checked_queue_ms));
        out.set(
            "core.sim_queue_ms_p90",
            percentile(&self.checked_queue_ms, 90.0),
        );
        if self.kind == Kind::Sim {
            let (batches, reused) = self.checked_batches;
            out.set("core.cost_reuse_rate", reused as f64 / batches as f64);
            out.note(format!(
                "dispatch-cost cache: {reused} of the {batches} batches of the checked waves had a shape \
                 (op, level, width) the service had dispatched before; {} shapes in all",
                self.shapes.len()
            ));
            if s.backend != "sim" || s.simd_lanes != 0 {
                out.fail(format!(
                    "svc_sim must run no arithmetic: backend {}, {} SIMD lanes",
                    s.backend, s.simd_lanes
                ));
            }
        }
        // The schedule verifier reads the whole trace, warm-up included.
        let t = Instant::now();
        let verdict = verify_service(&self.svc);
        out.set("analyze.verify_ms", t.elapsed().as_secs_f64() * 1e3);
        out.set("analyze.violations", verdict.violations.len() as f64);
        for v in verdict.violations.iter().take(3) {
            out.fail(format!("schedule verifier: {v:?}"));
        }
        out.errors.extend(ledger_errors(&s));
    }

    fn finish(&mut self, out: &mut Report) {
        // The ledger once more, now over every wave of the run.
        out.errors.extend(ledger_errors(&self.svc.stats()));
        if self.kind == Kind::Host {
            let s = self.svc.stats();
            out.set("core.steals", s.steals as f64);
            out.set("core.stolen_rows", s.stolen_rows as f64);
            // The host backend adds wall-clock only: every report must be
            // bit-equal to the same stream on the simulated backend.
            let (digests, secs) = self.replay_on_sim(self.wave_digests.len());
            let differing = digests
                .iter()
                .zip(&self.wave_digests)
                .filter(|(a, b)| a != b)
                .count();
            if differing == 0 {
                out.note(format!(
                    "oracle: all {} waves' reports are bit-equal to the sim backend's",
                    digests.len()
                ));
            } else {
                out.fail(format!(
                    "{differing} waves' reports differ from the sim backend's"
                ));
            }
            out.set(
                "core.drain_simonly_ms",
                median(&secs[self.spec.warmup..]) * 1e3,
            );
        }
    }

    fn layers(&mut self, rec: &mut Recorder, round_ms_p50: f64, out: &mut Report) {
        let params = self.params.clone();
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5eed);
        let submit_us = median(&rec.durations_ms("core.submit")) * 1e3 / self.wave.len() as f64;
        out.set("core.submit_us", submit_us);
        let drain_ms = median(&rec.durations_ms("core.drain"));
        out.set("core.drain_ms", drain_ms);

        // The two costing entry points under every dispatched batch.
        let shapes: Vec<(FheOp, usize)> = self.wave.iter().map(|r| (r.op, r.level)).collect();
        let secs = probes::timed(rec, "core.schedule_events", || {
            for &(op, level) in &shapes {
                black_box(schedule_events(&params, op, level));
            }
        });
        out.set("core.schedule_us", secs * 1e6 / shapes.len() as f64);
        let events = schedule_events(&params, FheOp::HMult, params.max_level());
        let mut engine = Engine::new(EngineConfig::a100(Variant::TensorCore));
        let width = self.wave[0].count;
        let mut launches = 0;
        let secs = probes::timed(rec, "core.run_schedule", || {
            launches = engine.run_schedule("HMULT", &events, width).launches;
        });
        out.set("core.run_schedule_us", secs * 1e6);
        let us_per_launch = secs * 1e6 / launches as f64;

        let traced = &self.wave_work[self.traced_from.expect("a traced phase ran")..];
        let wave_launches = median(
            &self
                .wave_work
                .iter()
                .map(|w| w.2 as f64)
                .collect::<Vec<_>>(),
        );
        match self.kind {
            Kind::Sim => {
                let per_launch: Vec<f64> = traced
                    .iter()
                    .zip(rec.durations_ms("round"))
                    .map(|(w, ms)| ms * 1e3 / w.2.max(1) as f64)
                    .collect();
                out.set("gpu.host_us_per_launch", median(&per_launch));
                // What outside probes can account for: the submits, and
                // engine costing of the batches whose shape was new. The
                // rest of a wave is the scheduler's own time inside `drain`.
                let missed = 1.0 - out.get("core.cost_reuse_rate").expect("snapshot ran");
                let costing_ms = missed * wave_launches * us_per_launch / 1e3;
                let submits_ms = self.wave.len() as f64 * submit_us / 1e3;
                let residual = 1.0 - (costing_ms + submits_ms) / round_ms_p50;
                out.set("bench.recon_residual", residual);
                out.note(format!(
                    "reconciliation svc_sim: {submits_ms:.3} ms = {} submits x {submit_us:.3} us + {costing_ms:.3} ms engine costing \
                     ({:.1} % of {wave_launches:.0} launches/wave at new shapes x {us_per_launch:.3} us uncached run_schedule) \
                     vs round_ms_p50 {round_ms_p50:.3} ms; residual {:.1} % is scheduling inside drain, which no outside probe reaches",
                    self.wave.len(),
                    100.0 * missed,
                    100.0 * residual,
                ));
            }
            Kind::Host => {
                let simonly = out.get("core.drain_simonly_ms").expect("finish ran");
                let arith_share = 1.0 - simonly / drain_ms;
                out.set("core.arith_share", arith_share);
                if arith_share <= 0.8 {
                    out.fail(format!(
                        "svc_host is meant to be arithmetic-bound, arith_share is {arith_share:.3}"
                    ));
                }
                let rows_per_s: Vec<f64> = traced
                    .iter()
                    .zip(rec.durations_ms("round"))
                    .map(|(w, ms)| w.0 as f64 / (ms / 1e3))
                    .collect();
                out.set("core.host_ntt_rows_s", median(&rows_per_s));

                // Single-threaded baseline: the same stream, one worker.
                let (_, mut single, _) = build_service(Kind::Host, ExecBackend::HostParallel, 1);
                let mut stream = Stream::new(Kind::Host, self.seed, &params);
                let (mut ops, mut secs) = (Vec::new(), Vec::new());
                for wave in 0..self.spec.warmup + BASELINE_WAVES {
                    let reqs = stream.wave(&[]);
                    let t = Instant::now();
                    let count: usize = reqs.iter().map(|r| r.count).sum();
                    for req in reqs {
                        single.submit(req).expect("valid request");
                    }
                    black_box(single.drain());
                    if wave >= self.spec.warmup {
                        ops.push(count as u64);
                        secs.push(t.elapsed().as_secs_f64());
                    }
                }
                let baseline = ops.iter().sum::<u64>() as f64 / secs.iter().sum::<f64>();
                out.set("core.ops_per_s_1worker", baseline);

                // The kernels under the executor, and the roofline.
                let mut roofline = Roofline::default();
                let ctx = CkksContext::new(&params).expect("valid preset");
                let (n, q0) = (params.n(), ctx.q_primes()[0]);
                let set = ConvSet::new(ctx.q_primes(), ctx.p_primes(), n);
                probes::barrett_mul(rec, out, n, q0, &mut rng);
                probes::bconv_barrett(rec, out, &set, &mut rng);
                probes::math_fast_kernels(rec, out, n, q0, &set, &mut roofline, &mut rng);
                let plan = PlanCache::global().get(n, q0, NttAlgorithm::FourStep);
                let (fwd, inv) = probes::ntt_pair(
                    rec,
                    out,
                    probes::FAST_NAMES,
                    &plan,
                    probes::EXECUTOR_CHUNK_ROWS,
                    true,
                    &mut rng,
                );
                probes::plan_build_ms(rec, out, n, q0);
                roofline.ntt_row("ntt four-step forward (Montgomery fast)", n, fwd);

                // Reconciliation: the executor runs only the NTT and Conv
                // GEMMs, split over the workers.
                let mont = out.get("math.bconv_mont_melem_s").expect("just measured") * 1e6;
                let workers = out.get("core.workers").expect("snapshot ran");
                let period = &self.wave_work[..self.spec.period.min(self.wave_work.len())];
                let rows = median(&period.iter().map(|w| w.0 as f64).collect::<Vec<_>>());
                let conv = median(&period.iter().map(|w| w.1 as f64).collect::<Vec<_>>());
                let ntt_ms = rows / ((fwd + inv) / 2.0) * 1e3;
                let conv_ms = conv / mont * 1e3;
                let predicted_ms = (ntt_ms + conv_ms) / workers;
                let residual = 1.0 - predicted_ms / round_ms_p50;
                out.set("bench.recon_residual", residual);
                out.note(format!(
                    "reconciliation svc_host: predicted {predicted_ms:.3} ms = ({rows:.0} NTT rows -> {ntt_ms:.3} ms + \
                     {conv:.0} Conv elems -> {conv_ms:.3} ms) / {workers:.0} workers vs round_ms_p50 {:.3} ms, residual {:.1} %; \
                     1-worker baseline {baseline:.1} ops/s",
                    round_ms_p50,
                    100.0 * residual,
                ));
                roofline.report(rec, out);
            }
        }
    }
}
