//! The API layer (§IV-E): operation requests → kernel workflows → reports.
//!
//! The API layer "collects and decomposes the requests for FHE operations
//! from the user applications … automatically generates the best batch size
//! … and sequentially invokes the kernels in the workflow". Two entry
//! points build on it:
//!
//! * [`TensorFhe`] — a direct, single-caller handle over one engine, for
//!   costing one schedule at a time: [`TensorFhe::schedule_of`] builds the
//!   kernel workflow, [`crate::engine::Engine::run_schedule`] costs it,
//!   and [`OpReport::from_stats`] turns the window statistics into a
//!   report. (The PR 1-era `run_op`/`run_op_auto` shims that bundled
//!   those three calls are gone; callers that want batching, coalescing
//!   or scheduling belong on the service.)
//! * [`crate::service::FheService`] — the request-stream front end: many
//!   clients submit [`crate::service::FheRequest`]s and the *service*
//!   coalesces them into batches. New code should prefer it; see the
//!   migration note in the crate docs.
//!
//! Both are configured through [`TensorFhe::builder`], which replaces the
//! old `TensorFhe::new(params, EngineConfig)` constructor threading.

use crate::engine::{Engine, EngineConfig, Layout, OpStats, Variant};
use crate::env::EnvConfig;
use crate::error::{CoreError, CoreResult};
use crate::exec::ExecBackend;
use crate::sched::SchedPolicy;
use crate::service::FheService;
use crate::session::CoalescePolicy;
use tensorfhe_ckks::ops::bootstrap_depth;
use tensorfhe_ckks::{CkksParams, KernelEvent};
use tensorfhe_gpu::DeviceConfig;

pub use tensorfhe_ckks::FheOp;

/// The kernel schedule of an operation at a level — the workflow the API
/// layer "sequentially invokes" (§IV-E), and the one costing entry: the
/// operation's [`FheOp::events`], the stream the evaluator emits for it
/// (the slim bootstrap's composition for a bootstrap). Shared by
/// [`TensorFhe`] and the request service.
#[must_use]
pub fn schedule_events(params: &CkksParams, op: FheOp, level: usize) -> Vec<KernelEvent> {
    op.events(params, level)
}

/// The one set of checks on a request for `count` instances of `op` at
/// `level` under `params`: what [`crate::service::FheService::submit`]
/// refuses, and what a direct costing of a program checks each step
/// against before [`schedule_events`] can reach an assertion.
///
/// # Errors
///
/// Returns [`CoreError::InvalidRequest`] for a zero `count`, a level
/// above the parameter set's modulus chain, or a bootstrap on a chain
/// too shallow for it.
pub fn check_request(params: &CkksParams, op: FheOp, level: usize, count: usize) -> CoreResult<()> {
    if count == 0 {
        return Err(CoreError::InvalidRequest("count must be non-zero".into()));
    }
    let top = params.max_level();
    if level > top {
        return Err(CoreError::InvalidRequest(format!(
            "level {level} exceeds max level {top}"
        )));
    }
    if let FheOp::Bootstrap {
        taylor_degree,
        double_angles,
    } = op
    {
        let need = bootstrap_depth(params, taylor_degree, double_angles);
        if top < need {
            return Err(CoreError::InvalidRequest(format!(
                "bootstrap needs L ≥ {need}, the chain has L = {top}"
            )));
        }
    }
    Ok(())
}

/// Result of executing one batched operation.
#[derive(Debug, Clone)]
pub struct OpReport {
    /// The operation.
    pub op: FheOp,
    /// Batch width used.
    pub batch: usize,
    /// Device wall time for the batch (µs).
    pub time_us: f64,
    /// Amortised time per operation (µs).
    pub per_op_us: f64,
    /// Time-weighted occupancy.
    pub occupancy: f64,
    /// Energy for the batch (J).
    pub energy_j: f64,
    /// Operations per second at this batch width.
    pub ops_per_second: f64,
    /// Operations per watt (Table XI's metric).
    pub ops_per_watt: f64,
    /// Kernel launches issued.
    pub launches: usize,
    /// Per-kernel device time (name → µs). A name is a
    /// [`tensorfhe_gpu::KernelName`] — the `Arc<str>` the kernel layer
    /// interned when it built its name table — so it prints, orders and
    /// derefs as `str` and costs a reference count, not a `String`, per
    /// report.
    pub by_kernel: Vec<(tensorfhe_gpu::KernelName, f64)>,
}

impl OpReport {
    /// Builds a report from raw window statistics at a given device power
    /// draw — the canonical way to cost one engine-level schedule run:
    ///
    /// ```
    /// use tensorfhe_core::{FheOp, OpReport, TensorFhe};
    /// use tensorfhe_ckks::CkksParams;
    ///
    /// let params = CkksParams::test_small();
    /// let mut api = TensorFhe::builder(&params).build()?;
    /// let (op, level, batch) = (FheOp::HMult, params.max_level(), 8);
    /// let events = api.schedule_of(op, level);
    /// let stats = api.engine_mut().run_schedule(op.name(), &events, batch);
    /// let power = api.engine().config().device.power_watts;
    /// let report = OpReport::from_stats(op, batch, power, stats);
    /// assert_eq!(report.batch, 8);
    /// # Ok::<(), tensorfhe_core::CoreError>(())
    /// ```
    #[must_use]
    pub fn from_stats(op: FheOp, batch: usize, power_watts: f64, stats: OpStats) -> OpReport {
        let per_op = stats.time_us / batch.max(1) as f64;
        let ops_per_second = if stats.time_us > 0.0 {
            batch as f64 / (stats.time_us * 1e-6)
        } else {
            0.0
        };
        OpReport {
            op,
            batch,
            time_us: stats.time_us,
            per_op_us: per_op,
            occupancy: stats.occupancy,
            energy_j: stats.energy_j,
            ops_per_second,
            ops_per_watt: ops_per_second / power_watts,
            launches: stats.launches,
            by_kernel: stats.by_kernel,
        }
    }
}

/// Configures a [`TensorFhe`] handle or an [`FheService`]: parameters,
/// device model, NTT variant, device count and the scheduler and service
/// policies. Engines it builds use the `(L, B, N)` layout.
#[derive(Debug, Clone)]
pub struct TensorFheBuilder {
    pub(crate) params: CkksParams,
    pub(crate) device: DeviceConfig,
    pub(crate) variant: Variant,
    pub(crate) devices: usize,
    pub(crate) sched: SchedPolicy,
    pub(crate) backend: Option<ExecBackend>,
    pub(crate) batch_cap: Option<usize>,
    pub(crate) key_cache_mb: Option<u64>,
    pub(crate) coalesce: Option<CoalescePolicy>,
    pub(crate) global_queue_cap: Option<usize>,
    pub(crate) rows_cap: Option<usize>,
}

impl TensorFheBuilder {
    /// Starts from the paper's defaults: one simulated A100 running the
    /// full tensor-core variant in the `(L, B, N)` layout.
    #[must_use]
    pub fn new(params: &CkksParams) -> Self {
        Self {
            params: params.clone(),
            device: DeviceConfig::a100(),
            variant: Variant::TensorCore,
            devices: 1,
            sched: SchedPolicy::default(),
            backend: None,
            batch_cap: None,
            key_cache_mb: None,
            coalesce: None,
            global_queue_cap: None,
            rows_cap: None,
        }
    }

    /// Replaces the parameter set (e.g. to re-target a configured builder
    /// at a workload's preset).
    #[must_use]
    pub fn params(mut self, params: &CkksParams) -> Self {
        self.params = params.clone();
        self
    }

    /// Simulated device model (A100/V100/GTX1080Ti or custom).
    #[must_use]
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// NTT lowering variant (Table IV).
    #[must_use]
    pub fn variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Number of identical devices (`> 1` shards batches, §VII).
    #[must_use]
    pub fn devices(mut self, devices: usize) -> Self {
        self.devices = devices;
        self
    }

    /// The scheduler policy: worker threads, pipeline depth and admission
    /// mode, as one typed [`SchedPolicy`] value — the only way to set
    /// them on the builder.
    /// Replaces the whole policy (unset fields resolve through their env
    /// var, then their default).
    ///
    /// Resolution order for every knob is *builder → environment →
    /// default*, with malformed or zero values a hard
    /// [`CoreError::InvalidConfig`] at [`TensorFheBuilder::service`] time:
    ///
    /// | knob | env var | default |
    /// |---|---|---|
    /// | `workers` | `TENSORFHE_WORKERS` | 1 (runs on the calling thread) |
    /// | `pipeline_depth` | `TENSORFHE_PIPELINE` | 1 (synchronous) |
    /// | `admission` | `TENSORFHE_ADMISSION` (`inorder`/`ooo`) | in-order |
    ///
    /// Out-of-order admission runs its scoreboard with
    /// [`crate::sched::DEFAULT_LOOKAHEAD`] and
    /// [`crate::sched::DEFAULT_AGING_BOUND`].
    ///
    /// `workers` is the [`crate::exec::Pool`]'s chunk-thread count on the
    /// host backend; it has no effect on the simulated backend, whose
    /// costing runs on the calling thread. The execution backend
    /// resolves the same way (builder → `TENSORFHE_BACKEND` → simulated
    /// default) but lives outside [`SchedPolicy`]; see
    /// [`TensorFheBuilder::backend`]. So does the host real-row cap
    /// (builder → `TENSORFHE_ROWS_CAP` → `0` = uncapped); see
    /// [`TensorFheBuilder::rows_cap`].
    ///
    /// Every policy choice is deterministic and leaves drain reports and
    /// [`ServiceStats`] request accounting bit-identical; workers change
    /// host wall-clock only, while depth and admission move only the
    /// overlap metrics ([`crate::service::ServiceStats::elapsed_us`],
    /// [`crate::service::ServiceStats::overlap_fraction`],
    /// [`crate::service::ServiceStats::pipelined_ops_per_second`],
    /// [`crate::service::ServiceStats::inflight_hwm`],
    /// [`crate::service::ServiceStats::reorder_distance`],
    /// [`crate::service::ServiceStats::head_blocked_us`]).
    ///
    /// [`ServiceStats`]: crate::service::ServiceStats
    #[must_use]
    pub fn sched(mut self, policy: SchedPolicy) -> Self {
        self.sched = policy;
        self
    }

    /// What the service's [`crate::exec::Pool`] runs besides the
    /// simulated launches.
    ///
    /// [`ExecBackend::Sim`] (the default) is the pure timing model.
    /// [`ExecBackend::HostParallel`] makes the pool also execute every
    /// batch's batched NTTs and basis-conversion GEMMs with real host
    /// arithmetic, split into work-stealing chunks that its worker
    /// threads run. Reports and [`crate::service::ServiceStats`]
    /// stay bit-identical across the two — the host backend adds only
    /// wall-clock and the [`crate::exec::HostWorkStats`] counters.
    ///
    /// The `TENSORFHE_BACKEND` environment variable (`sim`,
    /// `host-parallel`) overrides the default but not this
    /// builder call; malformed spellings are a hard
    /// [`CoreError::InvalidConfig`] at [`TensorFheBuilder::service`] time.
    #[must_use]
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Cap on real rows (NTT) / width factor (Conv) the host backend
    /// executes per kernel-event shard. `0` (the default) is uncapped:
    /// every row of every batch runs through the pool's work-stealing
    /// chunks at full width. A positive cap bounds the real arithmetic
    /// so paper-scale widths stay tractable on slow (e.g. debug-build)
    /// hosts — CI's bounded matrix corners set `TENSORFHE_ROWS_CAP=4`.
    ///
    /// Resolution follows the standard order (builder →
    /// `TENSORFHE_ROWS_CAP` → uncapped), with malformed values a hard
    /// [`CoreError::InvalidConfig`] at [`TensorFheBuilder::service`]
    /// time. The cap never changes drain reports or
    /// [`crate::service::ServiceStats`] — only host wall-clock and the
    /// [`crate::exec::HostWorkStats`] counters. Simulated backends
    /// ignore it.
    #[must_use]
    pub fn rows_cap(mut self, cap: usize) -> Self {
        self.rows_cap = Some(cap);
        self
    }

    /// Overrides the service's coalesced batch cap (defaults to the
    /// VRAM-feasible `auto_batch`, scaled by the device count).
    ///
    /// The cap can only *narrow* batches: values above
    /// `auto_batch × devices` are clamped down so the service's
    /// "VRAM-feasible batches" guarantee holds regardless of caller input.
    /// A zero cap is rejected at [`TensorFheBuilder::service`] time.
    #[must_use]
    pub fn batch_cap(mut self, cap: usize) -> Self {
        self.batch_cap = Some(cap);
        self
    }

    /// Per-device switch-key cache capacity in MiB (the session tier's
    /// residency budget). Defaults to
    /// [`crate::session::KEY_CACHE_VRAM_FRACTION`] of each device's VRAM
    /// — the complement of the 85% working-set budget
    /// [`crate::engine::auto_batch_for_vram`] reserves for ciphertexts.
    /// A zero capacity is rejected at [`TensorFheBuilder::service`] time.
    #[must_use]
    pub fn key_cache_mb(mut self, mb: u64) -> Self {
        self.key_cache_mb = Some(mb);
        self
    }

    /// Coalescing policy for session traffic:
    /// [`CoalescePolicy::KeyAffinity`] (the default) prefers grouping
    /// requests from the batch's first session together so a batch spans
    /// fewer key sets; [`CoalescePolicy::Blind`] coalesces in pure queue
    /// order, ignoring key residency. Anonymous traffic is unaffected.
    #[must_use]
    pub fn coalesce_policy(mut self, policy: CoalescePolicy) -> Self {
        self.coalesce = Some(policy);
        self
    }

    /// Global admission bound: the total number of queued-but-unserved
    /// session operations the service will hold before rejecting new
    /// session submissions ([`crate::service::RequestStatus::Rejected`]).
    /// Unset means unbounded. Anonymous traffic is never rejected. A zero
    /// cap is rejected at [`TensorFheBuilder::service`] time.
    #[must_use]
    pub fn global_queue_cap(mut self, cap: usize) -> Self {
        self.global_queue_cap = Some(cap);
        self
    }

    /// The engine configuration this builder describes.
    pub(crate) fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            device: self.device.clone(),
            variant: self.variant,
            layout: Layout::Lbn,
        }
    }

    /// Finishes as a direct single-device [`TensorFhe`] handle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless exactly one device is
    /// configured — multi-device execution goes through
    /// [`TensorFheBuilder::service`].
    pub fn build(self) -> CoreResult<TensorFhe> {
        if self.devices != 1 {
            return Err(CoreError::InvalidConfig(format!(
                "TensorFhe binds exactly one device (got {}); use .service() for clusters",
                self.devices
            )));
        }
        let cfg = self.engine_config();
        Ok(TensorFhe {
            params: self.params,
            engine: Engine::new(cfg),
        })
    }

    /// Finishes as a request-stream [`FheService`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero device count or a
    /// zero batch cap.
    pub fn service(self) -> CoreResult<FheService> {
        FheService::from_builder(self, &EnvConfig::process())
    }
}

/// The TensorFHE API layer bound to one parameter set and engine.
#[derive(Debug)]
pub struct TensorFhe {
    params: CkksParams,
    engine: Engine,
}

impl TensorFhe {
    /// Starts configuring a handle (or a service) for a parameter set.
    #[must_use]
    pub fn builder(params: &CkksParams) -> TensorFheBuilder {
        TensorFheBuilder::new(params)
    }

    /// Parameter set in use.
    #[must_use]
    pub fn params(&self) -> &CkksParams {
        &self.params
    }

    /// Access to the underlying engine (profiling, tracers).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Read access to the underlying engine.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The kernel schedule of an operation at a level.
    #[must_use]
    pub fn schedule_of(&self, op: FheOp, level: usize) -> Vec<KernelEvent> {
        schedule_events(&self.params, op, level)
    }

    /// The batch size the API layer would choose (VRAM-bounded, capped at
    /// the parameter preset's configured batch).
    #[must_use]
    pub fn auto_batch(&self) -> usize {
        self.engine.auto_batch(&self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Variant;

    fn api(variant: Variant) -> TensorFhe {
        TensorFhe::builder(&CkksParams::test_small())
            .variant(variant)
            .build()
            .expect("single-device build")
    }

    /// Engine-level costing of one batched operation — the three-call
    /// sequence `run_op` used to bundle.
    fn cost(a: &mut TensorFhe, op: FheOp, level: usize, batch: usize) -> OpReport {
        let events = a.schedule_of(op, level);
        let stats = a.engine_mut().run_schedule(op.name(), &events, batch);
        let power = a.engine().config().device.power_watts;
        OpReport::from_stats(op, batch, power, stats)
    }

    #[test]
    fn builder_defaults_match_the_paper() {
        let api = api(Variant::TensorCore);
        let cfg = api.engine().config();
        assert_eq!(cfg.variant, Variant::TensorCore);
        assert_eq!(cfg.layout, Layout::Lbn);
        assert_eq!(cfg.device.name, DeviceConfig::a100().name);
    }

    #[test]
    fn builder_rejects_multi_device_direct_handles() {
        let err = TensorFhe::builder(&CkksParams::test_small())
            .devices(4)
            .build()
            .expect_err("clusters need the service");
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        let err = TensorFhe::builder(&CkksParams::test_small())
            .devices(0)
            .build()
            .expect_err("zero devices");
        assert!(matches!(err, CoreError::InvalidConfig(_)));
    }

    #[test]
    fn reports_are_self_consistent() {
        let mut a = api(Variant::TensorCore);
        let level = a.params().max_level();
        let r = cost(&mut a, FheOp::HMult, level, 8);
        assert_eq!(r.batch, 8);
        assert!((r.per_op_us - r.time_us / 8.0).abs() < 1e-9);
        assert!(r.ops_per_second > 0.0);
        assert!(r.energy_j > 0.0);
        let total: f64 = r.by_kernel.iter().map(|(_, t)| t).sum();
        assert!(total > 0.0);
    }

    #[test]
    fn hmult_is_ntt_dominated() {
        // §VI-B2: "the NTT kernels occupy the most significant proportion in
        // HMULT … 92.1%" — measured at Table V's Default set, so that is
        // where the property is held (unbatched and at the set's batch). At
        // a bandwidth-bound toy degree the NTT-lean key switch's 60 rows
        // (the literal Algorithm 1: 84) fall behind its element-wise
        // kernels.
        let params = CkksParams::table_v_default();
        let mut a = TensorFhe::builder(&params)
            .variant(Variant::TensorCore)
            .build()
            .expect("single-device build");
        for batch in [1, params.batch_size()] {
            let r = cost(&mut a, FheOp::HMult, params.max_level(), batch);
            let ntt_time: f64 = r
                .by_kernel
                .iter()
                .filter(|(k, _)| k.starts_with("ntt") || k.starts_with("intt"))
                .map(|(_, t)| t)
                .sum();
            let total: f64 = r.by_kernel.iter().map(|(_, t)| t).sum();
            assert!(
                ntt_time / total > 0.5,
                "NTT share {} too small at batch {batch} in {:?}",
                ntt_time / total,
                r.by_kernel
            );
        }
    }

    #[test]
    fn auto_batch_respects_preset() {
        let a = api(Variant::TensorCore);
        let b = a.auto_batch();
        assert!(b >= 1);
        assert!(b <= a.params().batch_size().max(1));
    }

    #[test]
    fn bootstrap_dwarfs_single_ops() {
        let params = CkksParams::new("api-boot", 1 << 10, 19, 4, 5, 28, 26, 8).expect("valid");
        let mut a = TensorFhe::builder(&params).build().expect("build");
        let level = params.max_level();
        let mult = cost(&mut a, FheOp::HMult, level, 4);
        let boot = cost(
            &mut a,
            FheOp::Bootstrap {
                taylor_degree: 7,
                double_angles: 3,
            },
            level,
            4,
        );
        assert!(
            boot.time_us > mult.time_us * 20.0,
            "bootstrap {} vs hmult {}",
            boot.time_us,
            mult.time_us
        );
    }

    #[test]
    fn batching_improves_throughput() {
        // Fig. 14: larger batches raise kernel throughput until saturation.
        let mut a = api(Variant::TensorCore);
        let level = a.params().max_level();
        let b1 = cost(&mut a, FheOp::HMult, level, 1);
        let b32 = cost(&mut a, FheOp::HMult, level, 32);
        assert!(
            b32.ops_per_second > b1.ops_per_second * 2.0,
            "batched throughput {} vs single {}",
            b32.ops_per_second,
            b1.ops_per_second
        );
    }
}
