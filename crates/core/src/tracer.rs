//! The kernel layer: translating CKKS kernel events into GPU launches.
//!
//! [`GpuTracer`] implements [`KernelTracer`] and owns the simulated device
//! it lowers onto. Open one with [`crate::Engine::tracer`], attach it to a
//! `tensorfhe_ckks::Evaluator` (real arithmetic) or feed it a schedule
//! from [`crate::api::schedule_events`] (costing only), and every kernel of
//! every operation becomes a launch on that device; [`crate::Engine::finish`]
//! folds the window. The NTT lowering depends on the engine variant:
//!
//! * `Butterfly` — one monolithic butterfly kernel per launch
//!   (TensorFHE-NT).
//! * `FourStep` — `GEMM → twiddle Hadamard → GEMM` on the CUDA cores
//!   (TensorFHE-CO, Eq. 9).
//! * `TensorCore` — the five-stage Fig. 8 pipeline: segmentation, 16 u8
//!   plane GEMMs spread over 16 CUDA streams, Booth fusion + Hadamard +
//!   re-segmentation, 16 more plane GEMMs, final fusion/modulo.
//!
//! The `Conv` kernel (fast basis conversion) is variant-dependent too:
//! Butterfly launches the scalar per-residue walk (`basis-conv`), while
//! both GEMM formulations launch the batched `y` stage plus one wide
//! `(L_dst × L_src) × (L_src × B·N)` GEMM (`conv-gemm`) — the same
//! lowering `tensorfhe_ckks::keyswitch` executes on the host.

use crate::engine::{Layout, Variant};
use tensorfhe_ckks::{KernelEvent, KernelTracer};
use tensorfhe_gpu::{DeviceSim, KernelClass, KernelDesc, KernelName, StreamId};

/// Number of concurrent streams used for the segmented plane GEMMs
/// (`SEGMENTS² = 16`, §IV-C "assigning each GEMM to a separate stream").
pub const TCU_STREAMS: usize = 16;

/// The names one NTT direction launches under.
struct NttNames {
    /// Every CUDA-core stage: `ntt` / `intt`.
    kernel: KernelName,
    /// The fat grouped plane-GEMM launch: `ntt-planes`.
    planes: KernelName,
    /// The per-stream plane GEMMs, `ntt-plane0` … `ntt-plane15` (only the
    /// tensor-core lowering launches them; empty otherwise).
    plane: Vec<KernelName>,
}

impl NttNames {
    fn new(kernel: &str, variant: Variant) -> Self {
        let plane = match variant {
            Variant::TensorCore => (0..TCU_STREAMS)
                .map(|i| format!("{kernel}-plane{i}").into())
                .collect(),
            Variant::Butterfly | Variant::FourStep => Vec::new(),
        };
        Self {
            kernel: kernel.into(),
            planes: format!("{kernel}-planes").into(),
            plane,
        }
    }
}

/// Every kernel name a tracer can launch, interned once when the tracer is
/// built: a launch clones a reference count, never formats or allocates a
/// string, and every launch of one kernel shares one allocation.
struct Names {
    ntt: NttNames,
    intt: NttNames,
    hada_mult: KernelName,
    ele_add: KernelName,
    ele_sub: KernelName,
    frobenius_map: KernelName,
    conjugate: KernelName,
    conv: KernelName,
    conv_y: KernelName,
    conv_gemm: KernelName,
}

impl Names {
    fn new(variant: Variant) -> Self {
        Self {
            ntt: NttNames::new("ntt", variant),
            intt: NttNames::new("intt", variant),
            hada_mult: "hada-mult".into(),
            ele_add: "ele-add".into(),
            ele_sub: "ele-sub".into(),
            frobenius_map: "forbenius-map".into(),
            conjugate: "conjugate".into(),
            conv: "conv".into(),
            conv_y: "conv-y".into(),
            conv_gemm: "conv-gemm".into(),
        }
    }

    /// The names of one NTT direction.
    fn ntt(&self, inverse: bool) -> &NttNames {
        if inverse {
            &self.intt
        } else {
            &self.ntt
        }
    }
}

/// A [`KernelTracer`] that lowers kernel events onto the [`DeviceSim`] it
/// owns.
pub struct GpuTracer {
    pub(crate) sim: DeviceSim,
    variant: Variant,
    layout: Layout,
    /// Operation-level batch: every event's limb count is multiplied by
    /// this (the B dimension of Fig. 9).
    batch: usize,
    main: StreamId,
    tcu: Vec<StreamId>,
    names: Names,
}

impl std::fmt::Debug for GpuTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuTracer")
            .field("variant", &self.variant.label())
            .field("batch", &self.batch)
            .finish()
    }
}

impl GpuTracer {
    /// Creates a tracer that lowers onto `sim`, on streams of its own.
    #[must_use]
    pub fn new(mut sim: DeviceSim, variant: Variant, layout: Layout, batch: usize) -> Self {
        let main = sim.create_stream();
        let tcu = (0..TCU_STREAMS).map(|_| sim.create_stream()).collect();
        Self {
            sim,
            variant,
            layout,
            batch: batch.max(1),
            main,
            tcu,
            names: Names::new(variant),
        }
    }

    /// The device simulator this tracer lowers onto. After
    /// [`crate::Engine::finish`] its launch log holds the whole window, so
    /// the schedule verifier can replay [`DeviceSim::intervals`] and hold
    /// the launch streams to the per-stream structural invariants.
    #[must_use]
    pub fn sim(&self) -> &DeviceSim {
        &self.sim
    }

    fn coalesced(&self) -> bool {
        // Batched loads from the (B, L, N) layout straddle discontiguous
        // groups (Fig. 9a); the optimised (L, B, N) layout packs them.
        self.batch == 1 || self.layout == Layout::Lbn
    }

    fn launch_main(&mut self, desc: KernelDesc) {
        let desc = if self.coalesced() {
            desc
        } else {
            desc.with_strided_layout()
        };
        // Unbatched execution reproduces the baseline launch configuration
        // of §III-B (512 threads/SM was the best-performing unbatched
        // config — 16K threads total); batching is what unlocks the full
        // thread grid.
        let desc = if self.batch == 1 && !matches!(desc.class, KernelClass::GemmTcu { .. }) {
            let natural = desc.threads();
            desc.with_threads(natural.min(16_384))
        } else {
            desc
        };
        self.sim.launch(self.main, desc);
    }

    fn elementwise(&mut self, name: KernelName, elems: u64, ops: u32, bytes: u32) {
        self.launch_main(KernelDesc::new(
            KernelClass::Elementwise {
                elems,
                ops_per_elem: ops,
                bytes_per_elem: bytes,
            },
            name,
        ));
    }

    fn launch_ntt(&mut self, n: usize, limbs: usize, inverse: bool) {
        let batch = limbs * self.batch;
        let name = self.names.ntt(inverse).kernel.clone();
        match self.variant {
            Variant::Butterfly => {
                self.launch_main(KernelDesc::new(
                    KernelClass::ButterflyNtt { n, batch },
                    name,
                ));
            }
            Variant::FourStep => {
                let (n1, n2) = split(n);
                self.launch_main(KernelDesc::new(
                    KernelClass::GemmCuda {
                        m: n1,
                        k: n2,
                        cols: n2,
                        batch,
                    },
                    name.clone(),
                ));
                self.elementwise(name.clone(), (n * batch) as u64, 2, 12);
                self.launch_main(KernelDesc::new(
                    KernelClass::GemmCuda {
                        m: n1,
                        k: n1,
                        cols: n2,
                        batch,
                    },
                    name,
                ));
            }
            Variant::TensorCore => {
                let (n1, n2) = split(n);
                // Stage 1: input segmentation (u32 → 4×u8 planes).
                self.elementwise(name.clone(), (n * batch) as u64, 1, 8);
                // Stage 2: 16 plane GEMMs across dedicated streams.
                self.plane_gemms(inverse, n1, n2, n2, batch);
                // Stage 3: Booth fusion + twiddle Hadamard + re-segmentation
                // run as one fused epilogue kernel (partials stay L2
                // resident; see the GemmTcu traffic model).
                self.elementwise(name.clone(), (n * batch) as u64, 6, 8);
                // Stage 4: 16 plane GEMMs with the outer DFT matrix.
                self.plane_gemms(inverse, n1, n1, n2, batch);
                // Stage 5: fusion + final modulo (+ N^{-1} fold for INTT).
                self.elementwise(name, (n * batch) as u64, 4, 8);
            }
        }
    }

    fn plane_gemms(&mut self, inverse: bool, m: usize, k: usize, cols: usize, batch: usize) {
        let names = self.names.ntt(inverse);
        // At saturating batch the 16 plane GEMMs each fill the device on
        // their own, so the streams no longer overlap anything; issue them
        // as one fat launch (fewer host round trips — what a production
        // CUTLASS grouped-GEMM call does).
        if batch >= 64 {
            self.sim.launch(
                self.main,
                KernelDesc::new(
                    KernelClass::GemmTcu {
                        m,
                        k,
                        cols,
                        batch: batch * TCU_STREAMS,
                    },
                    names.planes.clone(),
                ),
            );
            return;
        }
        for (stream, name) in self.tcu.iter().zip(&names.plane) {
            self.sim.launch(
                *stream,
                KernelDesc::new(KernelClass::GemmTcu { m, k, cols, batch }, name.clone()),
            );
        }
        // Stage barrier: fusion depends on all 16 plane products.
        self.sim.synchronize();
    }
}

/// The four-step `(N1, N2)` split (`N1 ≥ N2`) of the **modelled GPU
/// kernel**: the paper's two-GEMM form of Eq. 9, which every simulated NTT
/// launch is lowered to. It is not the host pass's shape — on the host
/// `FourStepNtt` runs one GEMM per entry of `FourStepNtt::radices()`
/// (three from `N = 2^9`), doing `FourStepNtt::macs_per_row()`
/// multiply-accumulates instead of `N·(N1 + N2)`.
#[must_use]
pub fn split(n: usize) -> (usize, usize) {
    let log = n.trailing_zeros();
    let n1 = 1usize << log.div_ceil(2);
    (n1, n / n1)
}

impl KernelTracer for GpuTracer {
    fn kernel(&mut self, event: KernelEvent) {
        let b = self.batch as u64;
        match event {
            KernelEvent::Ntt { n, limbs, inverse } => self.launch_ntt(n, limbs, inverse),
            KernelEvent::HadaMult { n, limbs } => {
                self.elementwise(self.names.hada_mult.clone(), (n * limbs) as u64 * b, 2, 12);
            }
            KernelEvent::EleAdd { n, limbs } => {
                self.elementwise(self.names.ele_add.clone(), (n * limbs) as u64 * b, 1, 12);
            }
            KernelEvent::EleSub { n, limbs } => {
                self.elementwise(self.names.ele_sub.clone(), (n * limbs) as u64 * b, 1, 12);
            }
            KernelEvent::FrobeniusMap { n, limbs } => {
                self.launch_main(KernelDesc::new(
                    KernelClass::Permute {
                        elems: (n * limbs) as u64 * b,
                    },
                    self.names.frobenius_map.clone(),
                ));
            }
            KernelEvent::Conjugate { n, limbs } => {
                self.launch_main(KernelDesc::new(
                    KernelClass::Permute {
                        elems: (n * limbs) as u64 * b,
                    },
                    self.names.conjugate.clone(),
                ));
            }
            KernelEvent::Conv { n, l_src, l_dst } => match self.variant {
                // TensorFHE-NT: the scalar per-residue walk.
                Variant::Butterfly => {
                    self.launch_main(KernelDesc::new(
                        KernelClass::BasisConv {
                            elems: (n * l_dst) as u64 * b,
                            l_src,
                        },
                        self.names.conv.clone(),
                    ));
                }
                // GEMM formulations: batched y stage + one wide
                // `(L_dst × L_src) × (L_src × B·N)` GEMM. The conversion
                // matrix is far below tensor-core tile shapes (L_src is as
                // small as 1 at the paper's Default α), so even the TC
                // variant issues the dense GEMM on the CUDA cores —
                // padding to 16×8×32 tiles would waste an order of
                // magnitude more MACs than the product contains.
                Variant::FourStep | Variant::TensorCore => {
                    self.elementwise(self.names.conv_y.clone(), (n * l_src) as u64 * b, 2, 12);
                    self.launch_main(KernelDesc::new(
                        KernelClass::GemmCuda {
                            m: l_dst,
                            k: l_src,
                            cols: n * self.batch,
                            batch: 1,
                        },
                        self.names.conv_gemm.clone(),
                    ));
                }
            },
        }
    }

    fn op_begin(&mut self, name: &str) {
        self.sim.set_scope(name);
    }

    fn op_end(&mut self, _name: &str) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensorfhe_gpu::{DeviceConfig, KernelStats};

    fn tracer(variant: Variant, layout: Layout, batch: usize) -> GpuTracer {
        GpuTracer::new(DeviceSim::new(DeviceConfig::a100()), variant, layout, batch)
    }

    /// Lowers `event` on a fresh tracer and returns the launches it made.
    fn launched(
        variant: Variant,
        layout: Layout,
        batch: usize,
        event: KernelEvent,
    ) -> Vec<KernelStats> {
        let mut t = tracer(variant, layout, batch);
        t.kernel(event);
        t.sim.synchronize();
        t.sim.stats()
    }

    #[test]
    fn split_shapes() {
        assert_eq!(split(1 << 16), (256, 256));
        assert_eq!(split(1 << 13), (128, 64));
        assert_eq!(split(16), (4, 4));
    }

    #[test]
    fn butterfly_variant_launches_one_kernel_per_ntt() {
        let ntt = KernelEvent::Ntt {
            n: 1 << 12,
            limbs: 4,
            inverse: false,
        };
        let stats = launched(Variant::Butterfly, Layout::Lbn, 1, ntt);
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].class_tag, "butterfly-ntt");
    }

    #[test]
    fn tensor_core_variant_launches_fig8_pipeline() {
        let ntt = KernelEvent::Ntt {
            n: 1 << 12,
            limbs: 4,
            inverse: false,
        };
        let stats = launched(Variant::TensorCore, Layout::Lbn, 1, ntt);
        let tcu = stats.iter().filter(|k| k.class_tag == "gemm-tcu").count();
        assert_eq!(tcu, 32, "two stages of 16 plane GEMMs");
        let ew = stats
            .iter()
            .filter(|k| k.class_tag == "elementwise")
            .count();
        assert_eq!(ew, 3, "segment / fused-epilogue / final-fusion stages");
    }

    #[test]
    fn plane_gemms_use_distinct_streams() {
        let ntt = KernelEvent::Ntt {
            n: 1 << 12,
            limbs: 1,
            inverse: false,
        };
        let streams: std::collections::HashSet<usize> =
            launched(Variant::TensorCore, Layout::Lbn, 1, ntt)
                .iter()
                .filter(|k| k.class_tag == "gemm-tcu")
                .map(|k| k.stream)
                .collect();
        assert_eq!(streams.len(), TCU_STREAMS);
    }

    #[test]
    fn bln_layout_marks_batched_kernels_strided() {
        let add = KernelEvent::EleAdd {
            n: 1 << 12,
            limbs: 2,
        };
        let strided = &launched(Variant::Butterfly, Layout::Bln, 8, add)[0];
        let packed = &launched(Variant::Butterfly, Layout::Lbn, 8, add)[0];
        assert!(
            strided.standalone_us > packed.standalone_us * 1.3,
            "(B,L,N) layout must be slower: {} vs {}",
            strided.standalone_us,
            packed.standalone_us
        );
    }

    #[test]
    fn conv_lowering_is_variant_dependent() {
        let ev = KernelEvent::Conv {
            n: 1 << 12,
            l_src: 3,
            l_dst: 12,
        };
        let tags = |variant| -> Vec<&'static str> {
            launched(variant, Layout::Lbn, 4, ev)
                .iter()
                .map(|k| k.class_tag)
                .collect()
        };
        // NT: one scalar kernel.
        assert_eq!(tags(Variant::Butterfly), ["basis-conv"]);
        // CO: a batched y stage plus the wide GEMM; TC rides the same
        // dense-GEMM lowering.
        assert_eq!(tags(Variant::FourStep), ["elementwise", "gemm-cuda"]);
        assert_eq!(tags(Variant::TensorCore), ["elementwise", "gemm-cuda"]);
    }

    #[test]
    fn batch_multiplies_work() {
        let hada = KernelEvent::HadaMult {
            n: 1 << 12,
            limbs: 4,
        };
        let one = &launched(Variant::Butterfly, Layout::Lbn, 1, hada)[0];
        let wide = &launched(Variant::Butterfly, Layout::Lbn, 64, hada)[0];
        assert!(wide.bytes > one.bytes * 32);
    }

    /// Every launch of one costing window, as [`crate::Engine::run_schedule`]
    /// makes them: an HMULT at the CI-sized preset, unbatched, so the
    /// tensor-core lowering spreads its plane GEMMs over the streams.
    fn hmult_window(variant: Variant) -> Vec<KernelStats> {
        let params = tensorfhe_ckks::CkksParams::test_small();
        let mut t = tracer(variant, Layout::Lbn, 1);
        t.op_begin("HMULT");
        for e in crate::api::schedule_events(&params, crate::FheOp::HMult, params.max_level()) {
            t.kernel(e);
        }
        t.sim.synchronize();
        t.sim.stats()
    }

    #[test]
    fn launches_share_one_allocation_per_distinct_name() {
        use std::collections::BTreeMap;
        use std::sync::Arc;
        for variant in [Variant::Butterfly, Variant::FourStep, Variant::TensorCore] {
            let stats = hmult_window(variant);
            let mut first: BTreeMap<&str, &tensorfhe_gpu::KernelName> = BTreeMap::new();
            for k in &stats {
                let seen = first.entry(&k.name).or_insert(&k.name);
                assert!(Arc::ptr_eq(seen, &k.name), "{} allocated twice", k.name);
                assert!(Arc::ptr_eq(&k.op_tag, &stats[0].op_tag));
            }
            assert!(
                first.len() < stats.len() / 2,
                "names repeat within a window"
            );
        }
    }

    #[test]
    fn plane_names_are_spelled_as_before() {
        let stats = hmult_window(Variant::TensorCore);
        for (dir, prefix) in [("ntt", "ntt-plane"), ("intt", "intt-plane")] {
            let mut planes: Vec<(usize, &str)> = stats
                .iter()
                .filter(|k| k.name.starts_with(prefix))
                .map(|k| (k.stream, &*k.name))
                .collect();
            planes.sort_unstable();
            planes.dedup();
            let want: Vec<String> = (0..TCU_STREAMS)
                .map(|i| format!("{dir}-plane{i}"))
                .collect();
            let got: Vec<&str> = planes.iter().map(|&(_, name)| name).collect();
            assert_eq!(got, want, "one name per plane stream, in stream order");
        }
        // At a saturating batch the planes fuse into one fat launch.
        let intt = KernelEvent::Ntt {
            n: 1 << 12,
            limbs: 1,
            inverse: true,
        };
        assert!(launched(Variant::TensorCore, Layout::Lbn, 64, intt)
            .iter()
            .any(|k| &*k.name == "intt-planes"));
    }

    #[test]
    fn fig8_plane_gemms_log_in_end_time_order() {
        // At batch 1 the 16 plane GEMMs of each tensor-core NTT stage run
        // on their own streams and overlap. The simulator logs launches as
        // they retire, with no sort, and that is end-time order.
        let mut t = tracer(Variant::TensorCore, Layout::Lbn, 1);
        t.kernel(KernelEvent::Ntt {
            n: 1 << 16,
            limbs: 16,
            inverse: false,
        });
        t.sim.synchronize();
        let stats = t.sim.stats();
        assert!(
            stats.windows(2).any(|p| p[1].start_us < p[0].end_us),
            "the plane GEMMs overlap"
        );
        assert!(stats.windows(2).all(|p| p[0].end_us <= p[1].end_us));
        let intervals: Vec<_> = t.sim.intervals().collect();
        assert!(intervals.windows(2).all(|p| p[0].2 <= p[1].2));
        let window = hmult_window(Variant::TensorCore);
        assert!(window.windows(2).all(|p| p[0].end_us <= p[1].end_us));
    }

    #[test]
    fn kernel_table_equals_a_string_keyed_fold() {
        use std::collections::BTreeMap;
        let params = tensorfhe_ckks::CkksParams::test_small();
        let events = crate::api::schedule_events(&params, crate::FheOp::HMult, params.max_level());
        let got = crate::Engine::new(crate::EngineConfig::a100(Variant::TensorCore))
            .run_schedule("HMULT", &events, 1)
            .by_kernel;
        let mut m: BTreeMap<String, f64> = BTreeMap::new();
        for k in &hmult_window(Variant::TensorCore) {
            *m.entry(k.name.to_string()).or_insert(0.0) += k.duration_us;
        }
        let mut want: Vec<(String, f64)> = m.into_iter().collect();
        want.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
        assert_eq!(got.len(), want.len());
        for ((gk, gt), (wk, wt)) in got.iter().zip(&want) {
            assert_eq!((&**gk, gt.to_bits()), (wk.as_str(), wt.to_bits()));
        }
    }

    #[test]
    fn op_scope_propagates() {
        let mut t = tracer(Variant::Butterfly, Layout::Lbn, 1);
        t.op_begin("HMULT");
        t.kernel(KernelEvent::EleAdd { n: 64, limbs: 1 });
        t.sim.synchronize();
        assert_eq!(&*t.sim.stats()[0].op_tag, "HMULT");
    }
}
