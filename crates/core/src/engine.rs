//! The TensorFHE engine: device configuration, costing windows, batching.
//!
//! A costing window is a [`GpuTracer`] on a fresh simulator. Its
//! [`OpStats`] are read off the simulator's totals, which it folds as each
//! launch retires; the window's compact launch log stays behind for the
//! schedule verifier and the tests.

use crate::tracer::GpuTracer;
use tensorfhe_ckks::{CkksParams, KernelEvent, KernelTracer};
use tensorfhe_gpu::{CostMemo, DeviceConfig, DeviceSim, KernelName};

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
    /// stats (a replay from the pool's batch memo) bumps reference counts.
    pub by_kernel: Vec<(KernelName, f64)>,
}

impl OpStats {
    /// Reads a closed window off its simulator: the span from the earliest
    /// start to the latest end (the "execution time" of Tables VI/VII/X),
    /// the occupancy weighted by device time (Table IX), the energy
    /// (Table XI) and the device time per kernel name, descending (Figs.
    /// 11–13). The simulator folded each launch into these sums as it
    /// retired, in retire (end-time) order, and every kernel name into its
    /// own accumulator, so nothing here walks the launch log.
    fn of_window(sim: &DeviceSim) -> Self {
        let r = sim.retired();
        let mut by_kernel: Vec<_> = sim.busy_by_name().map(|(k, t)| (k.clone(), t)).collect();
        // Names are distinct: by name, then stably by time, descending.
        by_kernel.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        by_kernel.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        let (start, end) = (r.first_start_us, r.last_end_us);
        Self {
            time_us: if start.is_finite() && end > start {
                end - start
            } else {
                0.0
            },
            occupancy: if r.busy_us > 0.0 {
                r.occupancy_us / r.busy_us
            } else {
                0.0
            },
            energy_j: r.energy_j,
            launches: r.launches,
            by_kernel,
        }
    }
}

/// The engine configuration plus the launch-cost memo every costing
/// window of the engine shares.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    /// The engine's one launch-cost memo, lent to the simulator of every
    /// [`Engine::tracer`] and taken back by [`Engine::finish`].
    memo: CostMemo,
}

impl Engine {
    /// Creates an engine for the configuration.
    #[must_use]
    pub fn new(cfg: EngineConfig) -> Self {
        Self {
            cfg,
            memo: CostMemo::default(),
        }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Opens a costing window: a tracer for `batch`-wide operations that
    /// owns a *fresh, zero-based* simulator of the engine's device, lent
    /// the engine's launch-cost memo. Feed it a schedule or attach it to a
    /// `tensorfhe_ckks::Evaluator` (`Box::new(&mut tracer)`) whose context
    /// runs the engine's [`Variant`], then close the window with
    /// [`Engine::finish`]. The memo stays with the tracer until then, so
    /// keep one window open at a time.
    #[must_use]
    pub fn tracer(&mut self, batch: usize) -> GpuTracer {
        let memo = std::mem::take(&mut self.memo);
        let sim = DeviceSim::with_memo(self.cfg.device.clone(), memo);
        GpuTracer::new(sim, self.cfg.variant, self.cfg.layout, batch)
    }

    /// Closes a costing window: drains the tracer's simulator, takes the
    /// launch-cost memo back and reads the window's totals, which the
    /// simulator folded as its launches retired. The window's launch log
    /// stays readable through [`GpuTracer::sim`].
    pub fn finish(&mut self, tracer: &mut GpuTracer) -> OpStats {
        let sim = &mut tracer.sim;
        sim.synchronize();
        self.memo = sim.take_memo();
        OpStats::of_window(sim)
    }

    /// Costs a kernel schedule, without its arithmetic, under the
    /// given operation tag and batch, returning the window statistics.
    ///
    /// Like every window ([`Engine::tracer`]), it runs on a *fresh,
    /// zero-based* device clock: the result is a pure function of
    /// `(device config, events, batch)`, never of what the engine ran
    /// before. The pool relies on this: one engine costs every device's
    /// shard, and its batch memo replays identical batches even when an
    /// out-of-order scoreboard dispatches them in a different order. The
    /// span over a persistent clock would leak the absolute offset into
    /// the last ulp of the window span. A traced evaluator run is
    /// costed the same way, so the two agree bit for bit.
    ///
    /// The one thing a window inherits is the engine's launch-cost memo
    /// ([`tensorfhe_gpu::CostMemo`]): a launch's standalone cost is a pure
    /// function of `(device config, launch shape)`, so lending it changes
    /// no bit of any result. The cost model runs once per kernel shape per
    /// engine instead of once per shape per window, and the warp simulator
    /// once per distinct scheduler problem per engine, which many shapes
    /// share.
    pub fn run_schedule(&mut self, tag: &str, events: &[KernelEvent], batch: usize) -> OpStats {
        let mut tracer = self.tracer(batch);
        tracer.op_begin(tag);
        for &e in events {
            tracer.kernel(e);
        }
        self.finish(&mut tracer)
    }

    /// Launch shapes costed so far by the engine's windows — the size of
    /// its launch-cost memo. It stops growing once every kernel shape of
    /// the traffic has been seen.
    #[must_use]
    pub fn costed_shapes(&self) -> usize {
        self.memo.len()
    }

    /// The batch size the API layer auto-selects: [`auto_batch_for_vram`]
    /// on the engine's device. Single source of the policy for both
    /// `TensorFhe::auto_batch` and the request service's default cap (the
    /// service reads the VRAM figure off its own device model).
    #[must_use]
    pub fn auto_batch(&self, params: &CkksParams) -> usize {
        auto_batch_for_vram(self.cfg.device.vram_bytes(), params)
    }
}

/// The §IV-E batch policy as a pure function of device VRAM: the largest
/// operation batch fitting `vram_bytes` (working set of 6 ciphertexts per
/// batched operation, 85% budget), capped at the parameter preset's
/// configured batch. Shared by [`Engine::auto_batch`] and the request
/// service, which passes the VRAM of one device of its cluster.
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
/// a fully resident key set never touches the bus. This is the one model
/// of a key upload: the simulator never launches one.
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
        // §IV-E: VRAM bounds the batch (6 ciphertexts a batched operation
        // in 85 % of the card), and the preset's batch caps it.
        let params = CkksParams::table_v_default();
        let per_op = params.ciphertext_bytes() * 6;
        assert_eq!(auto_batch_for_vram(per_op * 10, &params), 8);
        assert_eq!(auto_batch_for_vram(0, &params), 1, "never below one");
        let a100 = DeviceConfig::a100().vram_bytes();
        assert_eq!(auto_batch_for_vram(a100, &params), params.batch_size());
        assert!(
            auto_batch_for_vram(per_op * 2, &small()) > auto_batch_for_vram(per_op * 2, &params),
            "smaller ciphertexts → bigger batches"
        );
    }

    /// An addition, then a butterfly NTT and a Hadamard product, on one
    /// stream, drained.
    fn two_op_window() -> DeviceSim {
        use tensorfhe_gpu::{KernelClass, KernelDesc};
        let ew = |ops_per_elem| KernelClass::Elementwise {
            elems: 1 << 20,
            ops_per_elem,
            bytes_per_elem: 12,
        };
        let mut sim = DeviceSim::new(DeviceConfig::a100());
        let st = sim.create_stream();
        sim.launch(st, KernelDesc::new(ew(1), "ele-add"));
        let ntt = KernelClass::ButterflyNtt {
            n: 1 << 14,
            batch: 16,
        };
        sim.launch(st, KernelDesc::new(ntt, "ntt"));
        sim.launch(st, KernelDesc::new(ew(2), "hada-mult"));
        sim.synchronize();
        sim
    }

    #[test]
    fn empty_window_is_zero() {
        let s = OpStats::of_window(&DeviceSim::new(DeviceConfig::a100()));
        assert_eq!((s.time_us, s.occupancy, s.launches), (0.0, 0.0, 0));
        assert!(s.by_kernel.is_empty());
    }

    #[test]
    fn window_span_covers_its_launches() {
        let sim = two_op_window();
        let s = OpStats::of_window(&sim);
        assert_eq!(s.launches, 3);
        assert!(s.time_us > 0.0);
        // One stream: the launches tile the span, nothing overlaps.
        let busy: f64 = sim.stats().iter().map(|k| k.duration_us).sum();
        assert!(busy <= s.time_us * 1.001);
    }

    #[test]
    fn window_energy_and_occupancy_are_launch_folds() {
        let sim = two_op_window();
        let s = OpStats::of_window(&sim);
        let w = sim.stats();
        assert!(s.energy_j > 0.0);
        let energy: f64 = w.iter().map(|k| k.energy_j).sum();
        assert_eq!(s.energy_j.to_bits(), energy.to_bits());
        let busy: f64 = w.iter().map(|k| k.duration_us).sum();
        let weighted: f64 = w.iter().map(|k| k.occupancy * k.duration_us).sum();
        assert_eq!(s.occupancy.to_bits(), (weighted / busy).to_bits());
        assert!((0.0..=1.0).contains(&s.occupancy));
    }

    #[test]
    fn kernel_table_sums_to_busy_time() {
        let sim = two_op_window();
        let s = OpStats::of_window(&sim);
        let busy: f64 = sim.stats().iter().map(|k| k.duration_us).sum();
        let table: f64 = s.by_kernel.iter().map(|(_, t)| t).sum();
        assert!((table - busy).abs() <= busy * 1e-12);
        assert_eq!(s.by_kernel.len(), 3, "one row per kernel name");
    }

    /// The window fold as a pass over the launch log: sums in log order
    /// from `-0.0`, per-name sums from `0.0` in a name-ordered map, rows
    /// stably sorted by time, descending.
    fn fold_of_log(log: &[tensorfhe_gpu::KernelStats]) -> OpStats {
        let (mut start, mut end) = (f64::INFINITY, 0.0f64);
        let mut by_name = std::collections::BTreeMap::<KernelName, f64>::new();
        for k in log {
            start = start.min(k.start_us);
            end = end.max(k.end_us);
            *by_name.entry(k.name.clone()).or_insert(0.0) += k.duration_us;
        }
        let busy: f64 = log.iter().map(|k| k.duration_us).sum();
        let weighted: f64 = log.iter().map(|k| k.occupancy * k.duration_us).sum();
        let mut by_kernel: Vec<_> = by_name.into_iter().collect();
        by_kernel.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        OpStats {
            time_us: if start.is_finite() && end > start {
                end - start
            } else {
                0.0
            },
            occupancy: if busy > 0.0 { weighted / busy } else { 0.0 },
            energy_j: log.iter().map(|k| k.energy_j).sum(),
            launches: log.len(),
            by_kernel,
        }
    }

    #[test]
    fn retire_time_fold_is_the_fold_of_the_log() {
        // Overlapping streams (the tensor-core NTT's 16 plane GEMMs at
        // batch 1) and one stream at a time (batch 64), traced and
        // scheduled: the simulator's retire-time totals carry every bit
        // of a fold over its launch log.
        let params = small();
        let sched = schedule_events(&params, FheOp::HMult, 7);
        for variant in [Variant::Butterfly, Variant::FourStep, Variant::TensorCore] {
            let mut e = Engine::new(EngineConfig::a100(variant));
            for batch in [1, 64] {
                let mut tracer = e.tracer(batch);
                tracer.op_begin("HMULT");
                for &ev in &sched {
                    tracer.kernel(ev);
                }
                let folded = e.finish(&mut tracer);
                let log = tracer.sim().stats();
                assert_eq!(bits(&folded), bits(&fold_of_log(&log)));
                assert_eq!(folded.launches, log.len());
            }
        }
    }

    #[test]
    fn ntt_dominates_its_window() {
        let s = OpStats::of_window(&two_op_window());
        assert_eq!(
            &*s.by_kernel[0].0, "ntt",
            "NTT must dominate: {:?}",
            s.by_kernel
        );
        assert!(s.by_kernel.windows(2).all(|p| p[0].1 >= p[1].1));
    }

    #[test]
    fn a_traced_window_returns_the_memo_and_costs_like_a_schedule() {
        let params = small();
        let sched = schedule_events(&params, FheOp::HMult, 7);
        let mut e = Engine::new(EngineConfig::a100(Variant::TensorCore));
        let mut tracer = e.tracer(8);
        assert_eq!(e.costed_shapes(), 0, "the open window holds the memo");
        tracer.op_begin("HMULT");
        for &ev in &sched {
            tracer.kernel(ev);
        }
        let traced = e.finish(&mut tracer);
        let shapes = e.costed_shapes();
        assert!(shapes > 0, "finish hands the filled memo back");
        assert_eq!(traced.launches, tracer.sim().stats().len());
        let costed = e.run_schedule("HMULT", &sched, 8);
        assert_eq!(e.costed_shapes(), shapes, "every launch hit the memo");
        assert_eq!(bits(&traced), bits(&costed));
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
