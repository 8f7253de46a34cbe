//! The TensorFHE engine: device ownership, configuration, batching.

use crate::error::{CoreError, CoreResult};
use crate::tracer::GpuTracer;
use std::cell::RefCell;
use std::rc::Rc;
use tensorfhe_ckks::{CkksContext, CkksParams, KernelEvent, KernelTracer};
use tensorfhe_gpu::{CostMemo, DeviceConfig, DeviceSim, KernelName, KernelStats, Profiler};

/// The NTT lowering variant — Table IV's three TensorFHE configurations.
pub type Variant = tensorfhe_ntt::NttAlgorithm;

/// Batched-ciphertext memory layout (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// `(L, B, N)` — limb-major, the paper's optimised layout.
    Lbn,
    /// `(B, L, N)` — operation-major, the naive layout.
    Bln,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Simulated device.
    pub device: DeviceConfig,
    /// NTT lowering.
    pub variant: Variant,
    /// Batched data layout.
    pub layout: Layout,
}

impl EngineConfig {
    /// A100 with the chosen variant (the paper's primary platform).
    #[must_use]
    pub fn a100(variant: Variant) -> Self {
        Self {
            device: DeviceConfig::a100(),
            variant,
            layout: Layout::Lbn,
        }
    }

    /// V100 (the 100x / PrivFT platform).
    #[must_use]
    pub fn v100(variant: Variant) -> Self {
        Self {
            device: DeviceConfig::v100(),
            variant,
            layout: Layout::Lbn,
        }
    }

    /// Overrides the batched layout (the Fig. 9 ablation).
    #[must_use]
    pub fn with_layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }
}

/// Statistics for one executed operation window.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Wall time on the device for the whole batched operation (µs).
    pub time_us: f64,
    /// Time-weighted GPU occupancy in `[0, 1]`.
    pub occupancy: f64,
    /// Energy attributed to the window (J).
    pub energy_j: f64,
    /// Kernel launches in the window.
    pub launches: usize,
    /// Per-kernel time shares (name → µs), names interned: cloning the
    /// stats (a dispatch-cache replay) bumps reference counts.
    pub by_kernel: Vec<(KernelName, f64)>,
}

impl OpStats {
    /// Folds a window of the launch log, borrowed where it lies.
    fn of_window(window: &[KernelStats]) -> Self {
        let p = Profiler::new(window);
        Self {
            time_us: p.span_us(),
            occupancy: p.occupancy(),
            energy_j: p.energy_j(),
            launches: window.len(),
            by_kernel: p.time_by_kernel(),
        }
    }
}

/// Owner of the simulated device plus the engine configuration.
#[derive(Debug)]
pub struct Engine {
    sim: Rc<RefCell<DeviceSim>>,
    cfg: EngineConfig,
    /// The engine's one launch-cost memo, lent to the fresh simulator of
    /// every [`Engine::run_schedule`] window and taken back afterwards.
    memo: CostMemo,
}

impl Engine {
    /// Creates an engine for the configuration.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        Self {
            sim: Rc::new(RefCell::new(DeviceSim::new(cfg.device.clone()))),
            cfg,
            memo: CostMemo::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Shared handle to the simulated device.
    #[must_use]
    pub fn device(&self) -> Rc<RefCell<DeviceSim>> {
        Rc::clone(&self.sim)
    }

    /// Creates a kernel tracer for `batch`-wide operations; attach it to a
    /// `tensorfhe_ckks::Evaluator` to cost its real arithmetic.
    #[must_use]
    pub fn make_tracer(&self, batch: usize) -> GpuTracer {
        GpuTracer::new(
            Rc::clone(&self.sim),
            self.cfg.variant,
            self.cfg.layout,
            batch,
        )
    }

    /// Builds a CKKS context whose arithmetic runs the engine's NTT
    /// [`Variant`] — pair it with [`Engine::make_tracer`] so traced
    /// execution both *computes* and *costs* the selected formulation
    /// (butterfly stages vs batched wide GEMMs) end to end.
    ///
    /// Twiddle plans come from the process-wide plan cache, shared across
    /// engines and contexts with the same `(N, q, variant)` keys.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the parameter set cannot
    /// produce a context (not enough NTT-friendly primes).
    pub fn make_context(&self, params: &CkksParams) -> CoreResult<CkksContext> {
        CkksContext::with_algorithm(params, self.cfg.variant)
            .map_err(|e| CoreError::InvalidConfig(format!("context construction failed: {e}")))
    }

    /// Costs a kernel schedule, without its arithmetic, under the
    /// given operation tag and batch, returning the window statistics.
    ///
    /// The window runs on a *fresh, zero-based* device clock: the result is
    /// a pure function of `(device config, events, batch)`, never of what
    /// the engine ran before. Executors and the service's dispatch cache
    /// rely on this — identical batches must cost bit-identically even when
    /// an out-of-order scoreboard dispatches them in a different order, and
    /// `span_us` over a persistent clock would leak the absolute offset
    /// into the last ulp of the window span. Evaluator tracing through
    /// [`Engine::make_tracer`] keeps the engine's persistent sim and
    /// profiler; only synthetic costing windows are isolated.
    ///
    /// The one thing a window inherits is the engine's launch-cost memo
    /// ([`tensorfhe_gpu::CostMemo`]): a launch's standalone cost is a pure
    /// function of `(device config, launch shape)`, so lending it changes
    /// no bit of any result. The cost model runs once per kernel shape per
    /// engine instead of once per shape per window, and the warp simulator
    /// once per distinct scheduler problem per engine, which many shapes
    /// share.
    pub fn run_schedule(&mut self, tag: &str, events: &[KernelEvent], batch: usize) -> OpStats {
        let memo = std::mem::take(&mut self.memo);
        let sim = Rc::new(RefCell::new(DeviceSim::with_memo(
            self.cfg.device.clone(),
            memo,
        )));
        let mut tracer = GpuTracer::new(Rc::clone(&sim), self.cfg.variant, self.cfg.layout, batch);
        tracer.op_begin(tag);
        for &e in events {
            tracer.kernel(e);
        }
        let mut sim = sim.borrow_mut();
        sim.synchronize();
        self.memo = sim.take_memo();
        OpStats::of_window(sim.stats())
    }

    /// Launch shapes costed so far by [`Engine::run_schedule`] windows —
    /// the size of the engine's launch-cost memo. It stops growing once
    /// every kernel shape of the traffic has been seen.
    #[must_use]
    pub fn costed_shapes(&self) -> usize {
        self.memo.len()
    }

    /// Statistics over launches recorded since index `first`.
    #[must_use]
    pub fn window_stats(&self, first: usize) -> OpStats {
        OpStats::of_window(&self.sim.borrow().stats()[first..])
    }

    /// Number of launches recorded so far (window bookmarking).
    #[must_use]
    pub fn mark(&self) -> usize {
        self.sim.borrow().stats().len()
    }

    /// Runs `f` on a profiler over everything recorded so far — a view
    /// of the persistent simulator's launch log, valid for the call.
    pub fn profiler<R>(&self, f: impl FnOnce(&Profiler<'_>) -> R) -> R {
        f(&Profiler::new(self.sim.borrow().stats()))
    }

    /// Total virtual time elapsed (µs).
    #[must_use]
    pub fn elapsed_us(&self) -> f64 {
        self.sim.borrow().elapsed_us()
    }

    /// Clears recorded statistics (cost caches are kept).
    pub fn reset(&mut self) {
        self.sim.borrow_mut().reset();
    }

    /// The largest operation batch that fits in VRAM (§IV-E: "the batch
    /// size of TensorFHE is mainly determined by the VRAM capacity").
    ///
    /// Uses a working-set factor of 6 ciphertexts per batched operation
    /// (operands, extended key-switch accumulators, output).
    #[must_use]
    pub fn max_batch(&self, params: &CkksParams) -> usize {
        let per_op = params.ciphertext_bytes() * 6;
        let budget = (self.cfg.device.vram_bytes() as f64 * 0.85) as u64;
        ((budget / per_op.max(1)) as usize).max(1)
    }

    /// The batch size the API layer auto-selects: VRAM-bounded
    /// ([`Engine::max_batch`]), capped at the parameter preset's
    /// configured batch. Single source of the policy for both
    /// `TensorFhe::auto_batch` and the request service's default cap (the
    /// service reads the VRAM figure through its executor's `caps()`).
    #[must_use]
    pub fn auto_batch(&self, params: &CkksParams) -> usize {
        auto_batch_for_vram(self.cfg.device.vram_bytes(), params)
    }
}

/// The §IV-E batch policy as a pure function of device VRAM: the largest
/// operation batch fitting `vram_bytes` (working set of 6 ciphertexts per
/// batched operation, 85% budget), capped at the parameter preset's
/// configured batch. Shared by [`Engine::auto_batch`] and the request
/// service, which reads the VRAM figure from its executor's
/// [`crate::exec::ExecCaps`] so a real backend's capacity flows through.
#[must_use]
pub fn auto_batch_for_vram(vram_bytes: u64, params: &CkksParams) -> usize {
    let per_op = params.ciphertext_bytes() * 6;
    let budget = (vram_bytes as f64 * 0.85) as u64;
    ((budget / per_op.max(1)) as usize)
        .max(1)
        .min(params.batch_size().max(1))
}

/// Deterministic cost of staging `bytes` of switch-key material onto a
/// device: one launch overhead plus the PCIe DMA time of the copy engine
/// ([`tensorfhe_gpu::H2D_BANDWIDTH_GBPS`]). Zero bytes cost nothing —
/// a fully resident key set never touches the bus.
#[must_use]
pub fn key_upload_us(bytes: u64, device: &DeviceConfig) -> f64 {
    if bytes == 0 {
        return 0.0;
    }
    device.kernel_launch_us + bytes as f64 / (tensorfhe_gpu::H2D_BANDWIDTH_GBPS * 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{schedule_events, FheOp};

    fn small() -> CkksParams {
        CkksParams::test_small()
    }

    #[test]
    fn run_schedule_produces_time() {
        let params = small();
        let mut e = Engine::new(EngineConfig::a100(Variant::TensorCore));
        let s = e.run_schedule("HADD", &schedule_events(&params, FheOp::HAdd, 7), 8);
        assert!(s.time_us > 0.0);
        assert!(s.launches >= 1);
    }

    fn bits(s: &OpStats) -> Vec<u64> {
        let mut v = vec![
            s.time_us.to_bits(),
            s.occupancy.to_bits(),
            s.energy_j.to_bits(),
            s.launches as u64,
        ];
        for (k, t) in &s.by_kernel {
            v.extend(k.bytes().map(u64::from));
            v.push(t.to_bits());
        }
        v
    }

    #[test]
    fn warm_memo_changes_no_bit_and_costs_nothing_twice() {
        let params = small();
        let sched = schedule_events(&params, FheOp::HMult, 7);
        for variant in [Variant::Butterfly, Variant::FourStep, Variant::TensorCore] {
            let fresh = |batch| {
                Engine::new(EngineConfig::a100(variant)).run_schedule("HMULT", &sched, batch)
            };
            let mut warm = Engine::new(EngineConfig::a100(variant));
            assert_eq!(warm.costed_shapes(), 0);
            let first = warm.run_schedule("HMULT", &sched, 8);
            let shapes = warm.costed_shapes();
            assert!(shapes > 0, "the first window fills the memo");
            let second = warm.run_schedule("HMULT", &sched, 8);
            assert_eq!(
                warm.costed_shapes(),
                shapes,
                "the second window must hit the memo on every launch"
            );
            // One engine twice == two fresh engines once each, bit for bit:
            // the window is history-free, only the pure memo persists.
            assert_eq!(bits(&first), bits(&fresh(8)));
            assert_eq!(bits(&second), bits(&fresh(8)));
            // A different batch is a different set of shapes on the same
            // memo, and still a fresh engine's answer.
            let wide = warm.run_schedule("HMULT", &sched, 32);
            assert!(warm.costed_shapes() > shapes);
            assert_eq!(bits(&wide), bits(&fresh(32)));
        }
    }

    #[test]
    fn hmult_much_more_expensive_than_hadd() {
        let params = small();
        let mut e = Engine::new(EngineConfig::a100(Variant::TensorCore));
        let add = e.run_schedule("HADD", &schedule_events(&params, FheOp::HAdd, 7), 8);
        let mult = e.run_schedule("HMULT", &schedule_events(&params, FheOp::HMult, 7), 8);
        assert!(
            mult.time_us > add.time_us * 5.0,
            "HMULT {} vs HADD {}",
            mult.time_us,
            add.time_us
        );
    }

    #[test]
    fn variant_ordering_tc_beats_co_beats_nt() {
        // The paper's headline: TensorFHE > TensorFHE-CO > TensorFHE-NT for
        // NTT-heavy operations at the default parameters.
        let params = CkksParams::table_v_default();
        let sched = schedule_events(&params, FheOp::HMult, params.max_level());
        let mut times = Vec::new();
        for v in [Variant::Butterfly, Variant::FourStep, Variant::TensorCore] {
            let mut e = Engine::new(EngineConfig::a100(v));
            let s = e.run_schedule("HMULT", &sched, 16);
            times.push((v.label(), s.time_us));
        }
        assert!(times[0].1 > times[1].1, "CO must beat NT: {times:?}");
        assert!(times[1].1 > times[2].1, "TC must beat CO: {times:?}");
    }

    #[test]
    fn lbn_layout_beats_bln_for_batched_ops() {
        let params = small();
        let sched = schedule_events(&params, FheOp::HAdd, 7);
        let mut fast = Engine::new(EngineConfig::a100(Variant::TensorCore));
        let mut slow =
            Engine::new(EngineConfig::a100(Variant::TensorCore).with_layout(Layout::Bln));
        let f = fast.run_schedule("HADD", &sched, 64);
        let s = slow.run_schedule("HADD", &sched, 64);
        assert!(
            s.time_us > f.time_us * 1.3,
            "(B,L,N) {} should lag (L,B,N) {}",
            s.time_us,
            f.time_us
        );
    }

    #[test]
    fn max_batch_tracks_vram() {
        let e = Engine::new(EngineConfig::a100(Variant::TensorCore));
        let b_default = e.max_batch(&CkksParams::table_v_default());
        assert!(
            (64..=512).contains(&b_default),
            "A100 default-params batch {b_default} out of plausible range"
        );
        let b_small = e.max_batch(&small());
        assert!(b_small > b_default, "smaller ciphertexts → bigger batches");
    }

    #[test]
    fn batched_gemm_ntt_beats_per_limb_butterfly() {
        // The fig08_batch_ntt acceptance property, pinned in the test
        // suite: at N = 2^13, a B·L ≥ 16 block through the batched GEMM
        // pipeline outruns B·L independent per-limb butterfly kernels.
        let n = 1 << 13;
        let per_transform = |variant: Variant, bl: usize| {
            let mut e = Engine::new(EngineConfig::a100(variant));
            let events: Vec<KernelEvent> = if variant == Variant::Butterfly {
                (0..bl)
                    .map(|_| KernelEvent::Ntt {
                        n,
                        limbs: 1,
                        inverse: false,
                    })
                    .collect()
            } else {
                vec![KernelEvent::Ntt {
                    n,
                    limbs: bl,
                    inverse: false,
                }]
            };
            e.run_schedule("NTT", &events, 1).time_us / bl as f64
        };
        for bl in [16usize, 64, 256] {
            let nt = per_transform(Variant::Butterfly, bl);
            let co = per_transform(Variant::FourStep, bl);
            assert!(
                co < nt,
                "batched GEMM must beat per-limb butterflies at B·L={bl}: {co} vs {nt}"
            );
        }
        // The tensor-core pipeline amortizes its 16-plane stages in the
        // deep-batch regime and then wins by an order of magnitude.
        let nt = per_transform(Variant::Butterfly, 256);
        let tc = per_transform(Variant::TensorCore, 256);
        assert!(
            tc * 5.0 < nt,
            "deep tensor-core block must win big: {tc} vs {nt}"
        );
    }

    #[test]
    fn gemm_lowered_conv_beats_scalar_conv_at_paper_scale() {
        // The fig09_basis_conv acceptance property, pinned in the test
        // suite: at the ResNet-20 key-switch shape (N = 2^16, α = 3,
        // L_dst = 30) with the paper's operation batch, the wide-GEMM
        // lowering of the Conv kernel beats the scalar per-residue walk.
        let ev = KernelEvent::Conv {
            n: 1 << 16,
            l_src: 3,
            l_dst: 30,
        };
        let time = |variant: Variant, batch: usize| {
            let mut e = Engine::new(EngineConfig::a100(variant));
            e.run_schedule("CONV", std::slice::from_ref(&ev), batch)
                .time_us
        };
        let nt = time(Variant::Butterfly, 64);
        let co = time(Variant::FourStep, 64);
        assert!(
            co * 2.0 < nt,
            "GEMM conv must win ≥2× at paper scale: CO {co} vs NT {nt}"
        );
        // The win holds across the batch sweep, not just at one width: the
        // serial-chain kernel is latency-bound at low occupancy (where the
        // GEMM win is largest) and bandwidth-bound once deep batches
        // saturate the device — it loses everywhere.
        let ratio_1 = time(Variant::Butterfly, 1) / time(Variant::FourStep, 1);
        assert!(
            ratio_1 >= 2.0,
            "GEMM conv must also win unbatched: ratio {ratio_1}"
        );
    }

    #[test]
    fn occupancy_grows_with_batch() {
        let params = small();
        let sched = schedule_events(&params, FheOp::HMult, 7);
        let mut e = Engine::new(EngineConfig::a100(Variant::Butterfly));
        let small_b = e.run_schedule("HMULT", &sched, 1);
        let big_b = e.run_schedule("HMULT", &sched, 128);
        assert!(
            big_b.occupancy > small_b.occupancy * 2.0,
            "batching must raise occupancy: {} vs {}",
            big_b.occupancy,
            small_b.occupancy
        );
    }
}
