//! The TensorFHE engine — the paper's contribution layer, fronted by a
//! request-stream service.
//!
//! `tensorfhe-core` glues the substrates together as §IV-E describes, and
//! exposes them the way the paper frames the API layer: clients send
//! streams of FHE operation *requests*; the system decomposes them, picks
//! the batch size, and invokes the kernel workflows.
//!
//! * **Kernel layer** ([`tracer`]) — translates the seven CKKS kernels into
//!   simulated GPU launches. The NTT kernel has three lowerings matching
//!   Table IV: butterfly launches (TensorFHE-NT), two modular GEMMs + a
//!   twiddle Hadamard (TensorFHE-CO), or the five-stage segmented
//!   tensor-core pipeline with 16 plane GEMMs across 16 streams
//!   (full TensorFHE, Fig. 8).
//! * **API layer** ([`api`]) — [`api::schedule_events`] is the one costing
//!   entry: an operation's schedule is the `tensorfhe_ckks` kernel-stream
//!   generator the evaluator emits (Algorithms 1–6), so paper-scale
//!   workloads (N = 2^16, L = 44, batch 128) are *costed* without executing
//!   the arithmetic. [`TensorFhe::builder`] configures params, device
//!   model, NTT variant, device count and the scheduler policy
//!   ([`TensorFheBuilder::sched`] takes a typed [`SchedPolicy`]);
//!   [`api::TensorFhe`] remains as the single-caller handle for costing one
//!   schedule at a time ([`api::TensorFhe::schedule_of`] → `run_schedule`
//!   → [`OpReport::from_stats`]).
//! * **Request service** ([`service`]) — the batching front end:
//!   [`service::FheService`] enqueues [`service::FheRequest`]s from many
//!   clients, coalesces compatible ones (same op, same level) into
//!   VRAM-feasible batches, dispatches them to the executor pool, and
//!   reports per-request cost plus service-level stats (queue latency,
//!   batch-fill efficiency, per-device utilization, aggregate ops/s and
//!   ops/W, pipeline overlap).
//! * **Pipelined scheduler** ([`sched`]) — the in-flight window between
//!   the queue and the executor: up to `depth` independent coalesced
//!   batches stay submitted-but-unjoined at once (GME-style multi-queue
//!   dispatch), joined in submission order. An opt-in out-of-order
//!   admission mode ([`sched::AdmissionMode::OutOfOrder`]) adds a
//!   scoreboard that admits past a key-blocked head; see the
//!   architecture section below.
//! * **Executor** ([`exec`]) — the one [`exec::Pool`] that runs a
//!   scheduled batch on the devices; see the architecture section below.
//! * **Operation-level batching** ([`engine`]) — the `(L, B, N)` vs
//!   `(B, L, N)` layout switch of Fig. 9 and the batch-size machinery of
//!   Fig. 14; sharding a batch across devices (§VII) is
//!   [`TensorFheBuilder::devices`], served by the one [`exec::Pool`].
//! * **Session tier** ([`session`]) — the multi-tenant layer over the
//!   service: registered [`session::ClientSession`]s with parameter-derived
//!   switch/rotation key-set footprints, a per-device LRU
//!   [`session::KeyCache`] that charges host→device key uploads to the
//!   overlap clock, deficit-round-robin fair scheduling with per-session
//!   deadline classes, and bounded-queue admission control; see the
//!   residency & fairness section below.
//! * **Errors** ([`error`]) — every fallible entry point returns
//!   [`error::CoreError`] instead of panicking.
//!
//! # Architecture: request → session/admission → coalesce → schedule → executor → device
//!
//! ```text
//! clients ──submit──▶ admission ──▶ FheService queue ──fair pick──▶ coalesce
//!  (session or anon)  (queue caps:    (by RequestId)   (DRR quanta,  (policy-ordered,
//!                      Rejected)                        urgent EDF,   key-affine)
//!                                                       shedding)        │
//!                                                        ┌──────────────┘
//!                                                        ▼
//!                                           BatchPlan (+ key-upload µs)
//!                                                        │ Scheduler::admit
//!                                          ┌─────────────┴──────────────┐
//!                                          │  in-flight window (depth)  │
//!                                          │  independent batches only  │
//!                                          └─────────────┬──────────────┘
//!                                                        │ Pool::submit / try_join
//!                                                        ▼
//!                                          Pool: workers own devices d % threads
//!                                    (one thread: inline on the calling thread;
//!                                     host backends: + stealable GEMM chunks)
//!                                                        │
//!                                          per-device Engine → DeviceSim
//! ```
//!
//! 1. **Request**: clients [`service::FheService::submit`] typed
//!    [`service::FheRequest`]s — anonymously (`FheRequest::new`), or
//!    inside a registered [`session::ClientSession`]
//!    (`FheRequest::in_session`); the queue preserves FIFO order across
//!    tenants.
//! 2. **Admission**: a session submission past its
//!    [`session::SessionConfig::queue_cap`] or the service-wide
//!    [`TensorFheBuilder::global_queue_cap`] is never queued — its handle
//!    reports [`service::RequestStatus::Rejected`]. Queued deadline-class
//!    work whose budget expires before any instance runs is *shed* at
//!    fill time ([`service::RequestStatus::Shed`]). Anonymous traffic is
//!    never admission-controlled.
//! 3. **Fair pick**: each batch slot goes to a bucket chosen by deficit
//!    round robin (quantum ∝ [`session::SessionConfig::weight`]; the
//!    anonymous traffic is bucket 0) — unless a deadline session's
//!    slack has dropped below a quarter of its budget, in which case the
//!    earliest-slack session pre-empts the round and may ship a
//!    partially-filled, same-session-only batch. With no sessions bucket 0
//!    is the only one and the walk is plain FIFO coalescing.
//! 4. **Coalesce**: the [`sched::Scheduler`]'s planning walk folds
//!    compatible requests (same op, same level) into VRAM-feasible
//!    [`exec::ExecBatch`]es up to `auto_batch × devices` — exactly the
//!    batches the synchronous drain always formed. Under the session tier
//!    the walk order is policy-driven
//!    ([`session::CoalescePolicy::KeyAffinity`] leads with the chosen
//!    bucket's whole backlog; `Blind` walks queue order), and the
//!    [`session::KeyCache`] places the batch's key sets on the shard
//!    devices, charging any host→device upload to the plan.
//! 5. **Schedule**: up to `depth` planned batches
//!    ([`SchedPolicy::pipeline_depth`] / `TENSORFHE_PIPELINE`) stay
//!    submitted-but-unjoined at once, **if independent**: no two in-flight
//!    batches may contain requests from the same client stream at the same
//!    ciphertext level, so chained operations on one working set observe
//!    program order (a dependent batch waits for the window to drain).
//!    Handles are joined in deterministic submission order, which keeps
//!    reports and request accounting bit-identical at every depth; the
//!    per-device-FIFO overlap clock separately reports what pipelining
//!    bought ([`service::ServiceStats::elapsed_us`] /
//!    [`service::ServiceStats::overlap_fraction`] /
//!    [`service::ServiceStats::pipelined_ops_per_second`]).
//!
//!    5a. **Scoreboard admission** (opt-in,
//!    [`SchedPolicy::admission`]`(`[`sched::AdmissionMode::OutOfOrder`]`)`
//!    / `TENSORFHE_ADMISSION=ooo`): when the *next serial* plan is
//!    key-blocked, the serial planning walk keeps running speculatively —
//!    each planned batch is *frozen* into a bounded pending scoreboard
//!    ([`sched::DEFAULT_LOOKAHEAD`] deep) with its reservations, key
//!    placements and DRR charges already applied, so batch composition is
//!    identical to in-order mode. Admission then picks from the
//!    scoreboard under a fixed **greedy-then-oldest** rule: prefer a
//!    key-eligible plan in the same `(op, level)` group as the most
//!    recently admitted batch (back-to-back same-shape gangs), else the
//!    oldest key-eligible plan — where *key-eligible* means the plan's
//!    `(client, level)` keys are disjoint from every in-flight batch
//!    *and* every older pending plan (program order within a client
//!    stream is never reordered). Every admission bumps a `bypassed`
//!    counter on each older plan that was eligible at that instant; once
//!    any counter reaches [`sched::DEFAULT_AGING_BOUND`], only plans at
//!    or before the starving one may admit, so no plan is bypassed more
//!    often than that. Joins still pop the window in admission
//!    order, but results park in a reorder buffer and **settle in serial
//!    plan order** — the float folds that produce reports and stats run
//!    in exactly the in-order sequence, which is why out-of-order drains
//!    are report-bit-identical to in-order at every depth/worker count.
//!    [`service::ServiceStats::reorder_distance`] and
//!    [`service::ServiceStats::head_blocked_us`] report what the
//!    scoreboard did; deadline sessions are refused while out-of-order
//!    work is in flight (their urgency clock reads settle time), and a
//!    service with deadline sessions registered falls back to in-order
//!    admission. Both modes run the same planning walk and settle through
//!    the same reorder buffer; in-order, a joined batch leaves it at once.
//! 6. **Executor**: every batch goes to the one [`exec::Pool`] —
//!    `submit(batch) → ExecHandle`, `join`/`try_join``(handle) →
//!    BatchResult`, any number of batches outstanding, FIFO per device —
//!    which owns sharding
//!    ([`exec::shard_widths`]) and the deterministic device-order merge
//!    ([`exec::merge_shards`]). Its workers ([`SchedPolicy::workers`] /
//!    `TENSORFHE_WORKERS`) own the per-device engines, device `d` on worker
//!    `d % threads`; one thread spawns nothing and runs every batch at
//!    `submit` on the calling thread. Every thread count is bit-identical,
//!    because each device's simulator sees the same launch sequence and
//!    the merge folds in the same order.
//!
//!    6a. **Backend selection** ([`TensorFheBuilder::backend`] /
//!    `TENSORFHE_BACKEND`) only chooses what the pool's workers run
//!    besides the simulated launches. [`exec::ExecBackend::Sim`] (the
//!    default) runs nothing else, so workers beyond the device count are
//!    clamped. [`exec::ExecBackend::HostParallel`] makes the workers also
//!    *execute* the batch's batched-NTT and basis-conversion GEMMs with
//!    real cache-blocked, register-tiled Montgomery `u64` arithmetic
//!    (`tensorfhe_math::gemm_fast`), staged through thread-local scratch
//!    arenas (`tensorfhe_math::scratch`). Its NTT is the four-step plan's
//!    ordinary batch path — the fused Montgomery GEMM pipeline that
//!    `ckks::Evaluator` and every other caller of
//!    `tensorfhe_ntt::NttBatchOps` also runs; there is no separate
//!    "fast" entry point to opt into. What it executes per operation is
//!    what the schedule lists, so it follows the evaluator's NTT-lean key
//!    switch (`tensorfhe_ckks::keyswitch::key_switch_events`): per HMULT
//!    `D·E + 2K + 2m` NTT rows — own limbs of a digit are never
//!    re-transformed and ModDown round-trips only the `K` special limbs;
//!    48 rows at HEAX set B where the literal Algorithm 1 is 60 — plus
//!    `D + 2` basis conversions, each single-limb one (`α = 1`) a plain
//!    reduction chosen when its plan is built.
//!    [`exec::ExecBackend::HostScalar`] pins the NTT to the Barrett scalar
//!    reference pipeline, which it asks for by name
//!    (`BatchedGemmNtt::reference_batch`): the baseline the
//!    `fig14_host_gemm` bench measures the fast kernels against (the
//!    basis conversion has one kernel, shared by both). Reports
//!    and stats stay bit-identical across all three backends — the host
//!    backends add only wall-clock and the [`exec::HostWorkStats`]
//!    counters, whose checksum is itself invariant across worker counts
//!    and kernel flavours (the Montgomery kernels are proven
//!    bit-identical to Barrett).
//!
//!    The host backends run **full-width by default**
//!    ([`TensorFheBuilder::rows_cap`] / `TENSORFHE_ROWS_CAP`, `0` =
//!    uncapped) through **work-stealing row chunks**. Stealing moves only
//!    the real arithmetic, never an engine, so who computed which rows
//!    touches no report; [`exec::host`] describes the chunk/steal
//!    lifecycle and why the [`exec::HostWorkStats`] checksum is invariant
//!    to it, and [`exec::StealStats`] carries the telemetry plus the
//!    work-conservation ledger (`planned_rows == executed_rows`).
//! 7. **Device**: each shard becomes kernel launches on a per-device
//!    [`Engine`]/`DeviceSim` pair. A real CUDA/CUTLASS or wgpu backend
//!    would take the pool's place here: the batched `B×L` GEMM shapes map
//!    1:1 onto grouped-GEMM calls, and the multi-outstanding
//!    `submit`/`try_join` contract maps onto stream events, so it would
//!    take the same `ExecBatch`es — coalescing, scheduling, attribution
//!    and reporting above the pool are backend-agnostic. A host-backend
//!    [`exec::Pool`] is the working template: it already runs real GEMM
//!    arithmetic with bit-identical reports. Contexts, NTT and basis-conversion plans, and
//!    DFT matrices are shared across workers through the `Send + Sync`
//!    process-wide `PlanCache` / DFT caches.
//!
//! # Residency model & fairness policy
//!
//! **Residency.** A session's footprint is its hybrid-key-switching key
//! set: `dnum` digit keys of `2 × (L+1+K)` limb-polynomials each, times
//! one relinearization key plus one rotation key per registered galois
//! step (defaulting to the power-of-two ± step set,
//! `2·log2(N/2)` steps). Each simulated device holds an LRU
//! [`session::KeyCache`] slice of VRAM
//! ([`session::KEY_CACHE_VRAM_FRACTION`], overridable via
//! [`TensorFheBuilder::key_cache_mb`] / `TENSORFHE_KEY_CACHE_MB`). At
//! plan time the cache *places* the batch's sessions on the devices the
//! batch will shard across, preferring the devices already holding the
//! most of those bytes; misses evict LRU sets and charge a PCIe DMA
//! (`tensorfhe_gpu::H2D_BANDWIDTH_GBPS`) to the batch's gang start in
//! the overlap clock — compute cost stays history-free, upload cost is
//! pure schedule state. Footprints larger than the whole cache stream:
//! they pay the DMA on every use and are never resident. Hits, misses,
//! evictions and uploaded bytes surface in
//! [`service::ServiceStats`] and the per-event
//! [`service::FheService::residency_trace`].
//!
//! **Fairness.** One deficit-round-robin bucket per session plus one for
//! anonymous traffic; a bucket accumulates `weight × batch_cap` deficit
//! per round and spends it on the batch widths it ships, so over any
//! backlogged interval a session's service share converges to its weight
//! share regardless of how many requests a tenant floods
//! ([`service::ServiceStats::fairness_index`] reports Jain's index over
//! served ops). Deadline classes overlay DRR: a session whose oldest
//! request has burned 75 % of its budget jumps the round
//! earliest-slack-first and ships alone — partially filled if need be —
//! without being charged deficit; expired untouched work is shed, late
//! completions count as [`service::ServiceStats::deadline_misses`].
//!
//! # Determinism invariants and how they're enforced
//!
//! Every number this crate reports is a pure function of the request
//! stream and the configuration — never of wall-clock time, hash seeds,
//! thread interleaving, or the environment. The invariants:
//!
//! * **No ambient time.** Simulated microseconds flow through explicit
//!   state (`DeviceSim`, the overlap clock); only `crates/bench` may read
//!   the host clock.
//! * **No ambient randomness.** Every RNG is caller-seeded
//!   (`StdRng::seed_from_u64`); OS entropy never reaches a result.
//! * **No order-dependent hash iteration.** Result-affecting collections
//!   that are iterated use `Vec`/`BTreeMap` (e.g.
//!   [`service::ServiceStats::per_session_ops`] is a `Vec` pinned to
//!   session registration order); `HashMap`s survive only for keyed
//!   lookup and say so at their declaration.
//! * **Bit-identity across the matrix.** Worker count
//!   (`TENSORFHE_WORKERS`), pipeline depth (`TENSORFHE_PIPELINE`) and
//!   admission mode (`TENSORFHE_ADMISSION`) change wall-clock overlap,
//!   never result bits — enforced by the determinism/pipeline/ooo test
//!   suites over the workers × depth × admission grid.
//! * **Bit-identity across host threads in the key switch.** Above its
//!   size gate, `tensorfhe_ckks::keyswitch::key_switch` splits its
//!   extended-limb loop and ModDown's `q`-limb loop across every core
//!   under `std::thread::scope`. Each job writes only its own limb and
//!   every result is stored by limb index, so ciphertext bits do not
//!   depend on the core count or the claim order — enforced by the
//!   `ckks` key-switch test that runs every preset shape at every level on
//!   1, 2, 3 and one-per-limb threads, and by the `ct_digest` the e2e
//!   harness prints for both `eval_*` workloads, which CI greps.
//! * **Schedule structure.** The [`sched::Scheduler`] records a
//!   [`sched::BatchRecord`] trace (admission/join ticks, window
//!   membership, gang placements, upload charges) that
//!   `tensorfhe-analyze` replays structurally: per-device intervals
//!   non-overlapping and monotone, gang starts at
//!   `max(join frontier, device free times)`, joins in submission order,
//!   key uploads charged exactly once per sessioned gang and never for
//!   anonymous plans, no two in-flight batches sharing a
//!   `(client, level)` key, and the ops ledger closed
//!   (`submitted = completed + shed + rejected + pending`).
//! * **The trace is a window, the verifier resumes from its base.** A
//!   long-lived service keeps the newest [`sched::TRACE_WINDOW`] records
//!   (at most about twice that) and folds older generations into a
//!   [`sched::TraceBase`] — cut only at quiescent points, every partial
//!   fold read from the accumulator itself, so no float is ever summed in
//!   a second order. `tensorfhe_analyze::verify_service` starts every
//!   replay (device intervals, frontier, window membership, priority
//!   rule, accounting closure) from
//!   [`service::FheService::schedule_trace_base`] instead of from zero;
//!   recording, folding and verifying never touch a report or a stat.
//! * **Costing windows are history-free; only a pure memo persists.**
//!   [`Engine::run_schedule`] runs every window on a fresh, zero-based
//!   `DeviceSim` — new clocks, queues and launch log — so a batch's cost
//!   never depends on what ran before it. The one thing an engine carries
//!   from window to window is its launch-cost memo
//!   (`tensorfhe_gpu::CostMemo`): the standalone cost of a launch is a
//!   pure function of `(device config, launch shape)`, so a warm engine
//!   and a fresh one return the same bits (tested per variant), and the
//!   memo refuses a simulator of any other device.
//! * **Reorder invariants.** Under out-of-order admission the trace
//!   additionally proves: program order within a client stream is never
//!   violated (same-key batches admit in serial plan order), no plan is
//!   bypassed more than the aging bound, the greedy-then-oldest priority
//!   rule replays *exactly* (the verifier re-simulates every
//!   freeze/admit/join event and rejects any admission the rule would
//!   not have made), and in-order mode stays degenerate (every batch
//!   admits the instant it is planned, zero reorder distance). See
//!   `tensorfhe_analyze::verify`.
//!
//! They are enforced mechanically, not by convention. The
//! `tensorfhe-analyze` crate ships `tfhe-lint`, which walks the
//! workspace in CI (`--deny-all`) with six lints:
//!
//! | id | name | rule |
//! |---|---|---|
//! | L001 | `ambient-time` | no `Instant`/`SystemTime` outside `crates/bench` |
//! | L002 | `ambient-randomness` | no `thread_rng`/`from_entropy`/`OsRng`… in crate src |
//! | L003 | `ordered-iteration` | no iterated `HashMap`/`HashSet` in result-affecting src |
//! | L004 | `undocumented-unsafe` | `unsafe` needs a `// SAFETY:` comment |
//! | L005 | `unjustified-allow` | `#[allow]` needs a justification comment |
//! | L006 | `ambient-env` | `env::var` only in sanctioned paths |
//!
//! Sanctioned exceptions are either inline —
//! `// lint: <slug> (reason)` on or directly above the line, where
//! `<slug>` is the lint's suppression name (`ordered-ok`, `time-ok`,
//! `random-ok`, `env-ok`) and the parenthesized reason is mandatory — or
//! an entry in the workspace-root `tfhe-lint.allow` file
//! (`<code|*> <path> [# why]`). The schedule invariants are checked by
//! `tensorfhe_analyze::verify_service` in the integration suites here,
//! fuzzed across random multi-session streams in
//! `tensorfhe-analyze`'s own tests, and re-audited on the bench-smoke
//! schedules by the `check_regression` perf gate.
//!
//! # Migrating from `run_op` to `submit`/`drain`
//!
//! Seed-era code chose its own batch and called the (now removed)
//! `run_op` shim. Code that genuinely wants to *cost one schedule at a
//! fixed width* — benchmarks, calibration — makes the three underlying
//! calls itself:
//!
//! ```
//! use tensorfhe_core::api::{FheOp, OpReport, TensorFhe};
//! use tensorfhe_ckks::CkksParams;
//!
//! let params = CkksParams::test_small();
//! let mut api = TensorFhe::builder(&params).build()?;
//! let (op, level, batch) = (FheOp::HMult, params.max_level(), 8);
//! let events = api.schedule_of(op, level);
//! let stats = api.engine_mut().run_schedule(op.name(), &events, batch);
//! let report = OpReport::from_stats(op, batch, api.engine().config().device.power_watts, stats);
//! assert!(report.time_us > 0.0);
//! # Ok::<(), tensorfhe_core::error::CoreError>(())
//! ```
//!
//! Everything else submits requests and lets the system batch:
//!
//! ```
//! use tensorfhe_core::api::{FheOp, TensorFhe};
//! use tensorfhe_core::service::FheRequest;
//! use tensorfhe_ckks::CkksParams;
//!
//! let params = CkksParams::test_small();
//! let mut svc = TensorFhe::builder(&params).service()?;
//! let level = params.max_level();
//! svc.submit(FheRequest::new(FheOp::HMult, level, 12, "alice"))?;
//! svc.submit(FheRequest::new(FheOp::HRotate, level, 4, "bob"))?;
//! let reports = svc.drain();
//! assert_eq!(reports.len(), 2);
//! assert!(svc.stats().ops_per_second > 0.0);
//! # Ok::<(), tensorfhe_core::error::CoreError>(())
//! ```
//!
//! | seed API | service API |
//! |---|---|
//! | `TensorFhe::new(&params, EngineConfig::a100(v))` | `TensorFhe::builder(&params).variant(v).build()?` |
//! | the seed's multi-GPU cluster type (panicked on 0 devices) | `builder.devices(n).service()?` |
//! | caller-chosen `run_op(op, level, batch)` | `submit(FheRequest)` + `drain()` |
//! | fixed-width costing via `run_op` | `schedule_of` + `run_schedule` + `OpReport::from_stats` |
//! | `.workers(w).pipeline_depth(d)` | `.sched(SchedPolicy::new().workers(w).pipeline_depth(d))` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod engine;
mod env;
pub mod error;
pub mod exec;
pub mod sched;
mod schedule;
pub mod service;
pub mod session;
pub mod tracer;

pub use api::{FheOp, OpReport, TensorFhe, TensorFheBuilder};
pub use engine::{Engine, EngineConfig, Layout, Variant};
pub use error::{CoreError, CoreResult};
pub use exec::{BatchResult, ExecBackend, ExecBatch, ExecHandle, HostWorkStats, Pool};
pub use sched::{AdmissionMode, SchedPolicy};
pub use service::{FheRequest, FheService, RequestId, RequestReport, RequestStatus, ServiceStats};
pub use session::{
    ClientSession, CoalescePolicy, KeyCache, ResidencyEvent, SessionConfig, SessionId,
};
