//! Kernel descriptors: the bridge between FHE kernels and the device model.
//!
//! Each launch is described by a [`KernelClass`] (what shape of computation
//! it is) plus launch geometry. The class determines three things the engine
//! needs:
//!
//! 1. a per-thread [`InstrTemplate`] for the warp simulator (CUDA-core
//!    kernels only),
//! 2. the total work (thread-iterations), DRAM traffic and TCU MAC count,
//! 3. how much of the device the kernel can use by itself
//!    (`parallel fraction`), which drives the stream-overlap model.
//!
//! The templates encode the *algorithmic* properties the paper's analysis
//! rests on: the butterfly NTT carries a long RAW chain and per-stage
//! barriers; the GEMM formulation has independent accumulators and near-zero
//! chains; element-wise kernels are bandwidth-bound.

use crate::warp_sim::{Instr, InstrTemplate};
use std::sync::Arc;

/// An interned kernel (or operation-scope) name.
///
/// A name is allocated once — by whoever builds the descriptor, e.g. the
/// kernel layer's per-tracer name table — and from there on every copy
/// (the simulator's name table, [`crate::KernelStats`], per-kernel tables,
/// per-request reports) is a reference-count bump, never a heap `String`;
/// queued and logged launches hold only the name's index in the
/// simulator's table. It orders, hashes and derefs as `str`, so tables
/// keyed by it sort exactly as the `String`-keyed tables they replaced.
pub type KernelName = Arc<str>;

/// Bytes per RNS residue on the device (the paper stores limbs as 32-bit
/// words — `N × 32-bits` data entries, Fig. 9).
pub const RESIDUE_BYTES: u64 = 4;

/// Effective host→device DMA bandwidth in GB/s for key-set uploads.
///
/// The paper's A100 platform sits on PCIe 4.0 ×16 (31.5 GB/s raw); large
/// pinned-memory copies sustain ≈ 25 GB/s in practice, and key-switch key
/// sets are exactly that shape — hundreds of MB of contiguous limb data.
/// One figure for every device model keeps the residency cost model simple:
/// the interconnect, unlike the SM array, does not differ first-order
/// across the paper's three GPUs. An upload is never launched on the
/// simulator: `tensorfhe_core::engine::key_upload_us` (one launch overhead
/// plus bytes over this bandwidth) is its one cost.
pub const H2D_BANDWIDTH_GBPS: f64 = 25.0;

/// The computation shape of one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// One pass of butterfly NTT/INTT over `batch` polynomials of degree
    /// `n` (all `log2 n` stages).
    ButterflyNtt {
        /// Polynomial degree.
        n: usize,
        /// Number of (limb × operation) polynomials processed together.
        batch: usize,
    },
    /// Modular GEMM on CUDA cores: `(m×k) × (k×cols)`, `batch` independent
    /// instances (the TensorFHE-CO path).
    GemmCuda {
        /// Rows of the left operand.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of the right operand.
        cols: usize,
        /// Independent GEMM instances in this launch.
        batch: usize,
    },
    /// One u8-plane GEMM on tensor cores (one of the 16 segment products of
    /// Fig. 8), `batch` independent instances.
    GemmTcu {
        /// Rows of the left operand.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of the right operand.
        cols: usize,
        /// Independent GEMM instances in this launch.
        batch: usize,
    },
    /// Streaming element-wise kernel (Hada-Mult, Ele-Add, Ele-Sub, twiddle
    /// Hadamard, segmentation, fusion, modulus correction…).
    Elementwise {
        /// Number of output elements.
        elems: u64,
        /// Arithmetic ops per element (1 = add, 2 = mul+correct, …).
        ops_per_elem: u32,
        /// DRAM bytes touched per element (reads + writes).
        bytes_per_elem: u32,
    },
    /// Data-dependent permutation (FrobeniusMap, Conjugate): gather with
    /// poor locality.
    Permute {
        /// Number of elements permuted.
        elems: u64,
    },
    /// Scalar fast-basis-conversion kernel (the TensorFHE-NT lowering of
    /// `Conv`): one thread per output residue, each walking a serial
    /// dot product of length `l_src` with the `y` scaling recomputed in
    /// the chain — no independent accumulators, and the source block is
    /// re-read for every target limb. The GEMM variants lower `Conv` to
    /// an element-wise `y` stage plus a wide [`KernelClass::GemmCuda`]
    /// launch instead.
    BasisConv {
        /// Output residues produced.
        elems: u64,
        /// Source-basis size (dot-product length).
        l_src: usize,
    },
    /// Complex FFT butterfly reference kernel (Fig. 4 only).
    FftButterfly {
        /// Transform size.
        n: usize,
        /// Batched transforms.
        batch: usize,
    },
    /// Discrete wavelet transform lifting reference kernel (Fig. 4 only).
    DwtLifting {
        /// Signal length.
        n: usize,
        /// Batched transforms.
        batch: usize,
    },
}

impl KernelClass {
    /// Maximum resident warps per scheduler, bounded by the kernel's shared
    /// memory / register footprint. Butterfly-style kernels stage large
    /// tiles in shared memory and therefore achieve low residency — the
    /// root cause of their unhidden stalls in Fig. 4.
    #[must_use]
    pub fn resident_warp_cap(&self) -> u64 {
        match self {
            // Shared-memory footprint limits butterfly kernels to ~1.5
            // resident blocks of the paper's Fig. 4 launch geometries.
            KernelClass::ButterflyNtt { .. } => 5,
            KernelClass::FftButterfly { .. } => 9,
            KernelClass::DwtLifting { .. } => 16,
            _ => 16,
        }
    }

    /// Short class tag used in profiles.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            KernelClass::ButterflyNtt { .. } => "butterfly-ntt",
            KernelClass::GemmCuda { .. } => "gemm-cuda",
            KernelClass::GemmTcu { .. } => "gemm-tcu",
            KernelClass::Elementwise { .. } => "elementwise",
            KernelClass::Permute { .. } => "permute",
            KernelClass::BasisConv { .. } => "basis-conv",
            KernelClass::FftButterfly { .. } => "fft",
            KernelClass::DwtLifting { .. } => "dwt",
        }
    }
}

/// A fully-specified kernel launch.
#[derive(Debug, Clone)]
pub struct KernelDesc {
    /// Computation shape.
    pub class: KernelClass,
    /// Kernel name shown in profiles (e.g. `"ntt-fwd"`, `"hada-mult"`).
    pub name: KernelName,
    /// Threads per block.
    pub block_size: u32,
    /// Launch exactly this many threads instead of the natural geometry
    /// (used by the Fig. 5 thread sweep).
    pub threads_override: Option<u64>,
    /// Whether batched loads are contiguous — `true` for the optimised
    /// `(L, B, N)` layout, `false` for the naive `(B, L, N)` layout (Fig. 9).
    pub coalesced: bool,
}

impl KernelDesc {
    /// Creates a descriptor with the default geometry (block size 256,
    /// coalesced layout).
    #[must_use]
    pub fn new(class: KernelClass, name: impl Into<KernelName>) -> Self {
        Self {
            class,
            name: name.into(),
            block_size: 256,
            threads_override: None,
            coalesced: true,
        }
    }

    /// Sets the block size.
    #[must_use]
    pub fn with_block_size(mut self, block_size: u32) -> Self {
        self.block_size = block_size;
        self
    }

    /// Overrides the total thread count.
    #[must_use]
    pub fn with_threads(mut self, threads: u64) -> Self {
        self.threads_override = Some(threads);
        self
    }

    /// Marks the launch as reading the strided `(B, L, N)` layout.
    #[must_use]
    pub fn with_strided_layout(mut self) -> Self {
        self.coalesced = false;
        self
    }

    /// Total thread-iterations of work in this launch.
    #[must_use]
    pub fn total_work(&self) -> u64 {
        match self.class {
            KernelClass::ButterflyNtt { n, batch } => {
                let stages = n.trailing_zeros() as u64;
                stages * (n as u64 / 2) * batch as u64
            }
            KernelClass::GemmCuda { m, k, cols, batch } => {
                // One thread per output element, k/3 template iterations
                // each (3 modular MACs per iteration — wide accumulation
                // costs roughly twice a plain MAD on INT32 cores).
                (m * cols * batch) as u64 * (k as u64).div_ceil(3)
            }
            KernelClass::GemmTcu { m, k, cols, batch } => (m * k * cols * batch) as u64,
            KernelClass::Elementwise { elems, .. } => elems,
            KernelClass::Permute { elems } => elems,
            // One dependent MAC per source term: the serial chain cannot
            // pack multiple accumulators per template iteration.
            KernelClass::BasisConv { elems, l_src } => elems * l_src as u64,
            KernelClass::FftButterfly { n, batch } => {
                let stages = n.trailing_zeros() as u64;
                stages * (n as u64 / 2) * batch as u64
            }
            KernelClass::DwtLifting { n, batch } => n as u64 * batch as u64,
        }
    }

    /// Natural thread-count (before any override).
    #[must_use]
    pub fn natural_threads(&self) -> u64 {
        let t = match self.class {
            KernelClass::ButterflyNtt { n, batch } => (n as u64 / 2) * batch as u64,
            KernelClass::GemmCuda { m, cols, batch, .. } => (m * cols * batch) as u64,
            KernelClass::GemmTcu { m, cols, batch, .. } => {
                // One warp per 16×8 tile.
                let tiles = (m as u64).div_ceil(16) * (cols as u64).div_ceil(8) * batch as u64;
                tiles * 32
            }
            // Streaming kernels use grid-stride loops: four elements per
            // thread keeps 16-byte vectorised accesses (no thin-thread
            // bandwidth penalty).
            KernelClass::Elementwise { elems, .. } => elems.div_ceil(4),
            KernelClass::Permute { elems } => elems.div_ceil(4),
            KernelClass::BasisConv { elems, .. } => elems,
            KernelClass::FftButterfly { n, batch } => (n as u64 / 2) * batch as u64,
            KernelClass::DwtLifting { n, batch } => (n as u64 / 2) * batch as u64,
        };
        t.max(1)
    }

    /// Threads actually launched.
    #[must_use]
    pub fn threads(&self) -> u64 {
        self.threads_override
            .unwrap_or_else(|| self.natural_threads())
    }

    /// Template iterations per thread.
    #[must_use]
    pub fn iters_per_thread(&self) -> u64 {
        self.total_work().div_ceil(self.threads()).max(1)
    }

    /// DRAM bytes moved by the launch (reads + writes).
    #[must_use]
    pub fn bytes_moved(&self) -> u64 {
        match self.class {
            KernelClass::ButterflyNtt { n, batch } => {
                // Every stage streams the whole working set in and out.
                let stages = n.trailing_zeros() as u64;
                stages * (n * batch) as u64 * RESIDUE_BYTES * 2
            }
            KernelClass::GemmCuda { m, k, cols, batch } => {
                // Tiled: operands once per tile wave + output once.
                let ops = (m * k + k * cols + m * cols) as u64;
                ops * RESIDUE_BYTES * batch as u64
            }
            KernelClass::GemmTcu { m, k, cols, batch } => {
                // Each u8 input plane is read once from DRAM and then shared
                // by its four plane-pair GEMMs via L2; twiddle planes are
                // tiny and cache-resident; the s32 partials never leave L2
                // (the fusion epilogue consumes them and its write traffic
                // is charged to the fusion kernel). Charging full partial
                // traffic would make the tensor-core path memory-bound in a
                // way the paper's measured NTT throughput (913 KOPS) rules
                // out.
                (m * k * batch) as u64 / 4 + (k * cols * batch) as u64 / 16
            }
            KernelClass::Elementwise {
                elems,
                bytes_per_elem,
                ..
            } => elems * bytes_per_elem as u64,
            KernelClass::Permute { elems } => elems * RESIDUE_BYTES * 2,
            KernelClass::BasisConv { elems, l_src } => {
                // Every output residue re-reads its l_src source residues
                // (no cross-target operand reuse in the scalar kernel) and
                // writes itself once — the data-movement cost the GEMM
                // lowering removes by tiling the y block through shared
                // memory.
                elems * (l_src as u64 + 1) * RESIDUE_BYTES
            }
            KernelClass::FftButterfly { n, batch } => {
                let stages = n.trailing_zeros() as u64;
                stages * (n * batch) as u64 * 8 * 2 // complex f32
            }
            KernelClass::DwtLifting { n, batch } => (n * batch) as u64 * 4 * 3,
        }
    }

    /// Tensor-core MACs (after tile padding); zero for non-TCU kernels.
    #[must_use]
    pub fn tcu_macs(&self) -> u64 {
        match self.class {
            KernelClass::GemmTcu { m, k, cols, batch } => {
                let mp = (m as u64).div_ceil(16) * 16;
                let np = (cols as u64).div_ceil(8) * 8;
                let kp = (k as u64).div_ceil(32) * 32;
                mp * np * kp * batch as u64
            }
            _ => 0,
        }
    }

    /// The warp-simulator template, or `None` for TCU kernels (their timing
    /// comes from the tensor-core pipeline model).
    #[must_use]
    pub fn template(&self) -> Option<InstrTemplate> {
        let t = match self.class {
            KernelClass::ButterflyNtt { .. } => InstrTemplate {
                // One butterfly: the tile is staged in shared memory (the
                // standard GPU NTT structure; DRAM traffic is charged by the
                // bandwidth model), then a Shoup multiply chain
                // (hi → lo → correct) feeds the dependent add/sub pair — the
                // RAW source of Fig. 4 — with a barrier at each stage.
                body: vec![
                    // Consume the tile element prefetched by the previous
                    // iteration (double-buffered global traffic).
                    // Consume the element prefetched by the previous
                    // iteration (double-buffered global traffic), then issue
                    // the next prefetch — distance ≈ one full body.
                    Instr::Alu {
                        dst: 1,
                        srcs: [10, 0],
                    },
                    Instr::LdGlobal {
                        dst: 10,
                        coalesced: self.coalesced,
                    },
                    Instr::LdShared { dst: 2 },
                    // 32-bit Barrett/Shoup modmul lowers to a serial
                    // mul.lo/mul.hi/correction sequence on INT32 cores.
                    Instr::Mul {
                        dst: 3,
                        srcs: [2, 0],
                    },
                    Instr::Mul {
                        dst: 4,
                        srcs: [3, 0],
                    },
                    Instr::Mul {
                        dst: 5,
                        srcs: [4, 0],
                    },
                    Instr::Mul {
                        dst: 11,
                        srcs: [5, 0],
                    },
                    Instr::Mul {
                        dst: 12,
                        srcs: [11, 0],
                    },
                    Instr::Alu {
                        dst: 6,
                        srcs: [12, 2],
                    },
                    Instr::Alu {
                        dst: 7,
                        srcs: [6, 0],
                    },
                    Instr::Alu {
                        dst: 8,
                        srcs: [1, 7],
                    },
                    Instr::Alu {
                        dst: 9,
                        srcs: [1, 7],
                    },
                    Instr::StGlobal { src: 8 },
                    Instr::StGlobal { src: 9 },
                    Instr::Bar,
                ],
                code_footprint: 4.0,
                loop_redirect_cycles: 6,
            },
            KernelClass::BasisConv { .. } => InstrTemplate {
                // One serial dot-product step: load the source residue from
                // DRAM, recompute its y scaling (two dependent multiplies)
                // and fold it into the single accumulator — a RAW chain
                // with nothing to dual-issue, the Conv analogue of the
                // butterfly NTT's Fig. 4 stall pathology.
                body: vec![
                    Instr::LdGlobal {
                        dst: 1,
                        coalesced: self.coalesced,
                    },
                    Instr::Mul {
                        dst: 2,
                        srcs: [1, 0],
                    },
                    Instr::Mul {
                        dst: 3,
                        srcs: [2, 0],
                    },
                    Instr::Mad {
                        dst: 4,
                        srcs: [3, 4],
                    },
                ],
                code_footprint: 1.0,
                loop_redirect_cycles: 2,
            },
            KernelClass::GemmCuda { .. } => InstrTemplate {
                // Tiled modular GEMM inner step: two shared loads feed three
                // independent wide accumulators — no RAW chain, no barrier
                // in the steady state.
                body: vec![
                    Instr::LdShared { dst: 1 },
                    Instr::LdShared { dst: 2 },
                    Instr::Mad {
                        dst: 3,
                        srcs: [1, 2],
                    },
                    Instr::Mad {
                        dst: 4,
                        srcs: [1, 2],
                    },
                    Instr::Mad {
                        dst: 5,
                        srcs: [1, 2],
                    },
                ],
                code_footprint: 1.0,
                loop_redirect_cycles: 2,
            },
            KernelClass::Elementwise { ops_per_elem, .. } => {
                let mut body = vec![Instr::LdGlobal {
                    dst: 1,
                    coalesced: self.coalesced,
                }];
                for i in 0..ops_per_elem.min(4) {
                    let dst = 2 + i as u8;
                    let src = 1 + i as u8;
                    body.push(Instr::Mul {
                        dst,
                        srcs: [src, 0],
                    });
                }
                body.push(Instr::StGlobal {
                    src: 2 + ops_per_elem.min(4) as u8 - 1,
                });
                InstrTemplate {
                    body,
                    code_footprint: 0.8,
                    loop_redirect_cycles: 2,
                }
            }
            KernelClass::Permute { .. } => InstrTemplate {
                body: vec![
                    Instr::LdGlobal {
                        dst: 1,
                        coalesced: false,
                    },
                    Instr::StGlobal { src: 1 },
                ],
                code_footprint: 0.8,
                loop_redirect_cycles: 2,
            },
            KernelClass::FftButterfly { .. } => InstrTemplate {
                // Complex butterfly (shared-memory staged): cross mul/add
                // with a shorter dependency chain than the Shoup sequence.
                body: vec![
                    Instr::Alu {
                        dst: 1,
                        srcs: [10, 0],
                    },
                    Instr::LdGlobal {
                        dst: 10,
                        coalesced: self.coalesced,
                    },
                    Instr::LdShared { dst: 2 },
                    Instr::Mul {
                        dst: 3,
                        srcs: [2, 0],
                    },
                    Instr::Mul {
                        dst: 4,
                        srcs: [2, 0],
                    },
                    Instr::Alu {
                        dst: 5,
                        srcs: [3, 4],
                    },
                    Instr::Alu {
                        dst: 6,
                        srcs: [1, 5],
                    },
                    Instr::Alu {
                        dst: 7,
                        srcs: [1, 5],
                    },
                    Instr::StGlobal { src: 6 },
                    Instr::StGlobal { src: 7 },
                    Instr::Bar,
                ],
                code_footprint: 3.0,
                loop_redirect_cycles: 6,
            },
            KernelClass::DwtLifting { .. } => InstrTemplate {
                // Lifting step: neighbour loads from shared memory feed two
                // independent MADs.
                body: vec![
                    Instr::Alu {
                        dst: 1,
                        srcs: [10, 0],
                    },
                    Instr::LdGlobal {
                        dst: 10,
                        coalesced: self.coalesced,
                    },
                    Instr::LdShared { dst: 2 },
                    Instr::Mad {
                        dst: 3,
                        srcs: [1, 2],
                    },
                    Instr::Mad {
                        dst: 4,
                        srcs: [1, 2],
                    },
                    Instr::StGlobal { src: 3 },
                    Instr::Bar,
                ],
                code_footprint: 2.0,
                loop_redirect_cycles: 4,
            },
            // TCU kernels are timed by the tensor-core pipeline model and
            // run no warps.
            KernelClass::GemmTcu { .. } => return None,
        };
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn butterfly_work_counts_all_stages() {
        let k = KernelDesc::new(KernelClass::ButterflyNtt { n: 1024, batch: 2 }, "ntt");
        assert_eq!(k.total_work(), 10 * 512 * 2);
        assert_eq!(k.natural_threads(), 1024);
        assert_eq!(k.iters_per_thread(), 10);
    }

    #[test]
    fn threads_override_raises_iterations() {
        let k = KernelDesc::new(KernelClass::ButterflyNtt { n: 1024, batch: 1 }, "ntt")
            .with_threads(128);
        assert_eq!(k.threads(), 128);
        assert_eq!(k.iters_per_thread(), 10 * 512 / 128);
    }

    #[test]
    fn tcu_macs_padded_to_tiles() {
        let k = KernelDesc::new(
            KernelClass::GemmTcu {
                m: 17,
                k: 33,
                cols: 9,
                batch: 1,
            },
            "gemm",
        );
        // 17→32, 9→16, 33→64.
        assert_eq!(k.tcu_macs(), 32 * 16 * 64);
        assert!(k.template().is_none());
    }

    #[test]
    fn templates_exist_for_cuda_classes() {
        let classes = [
            KernelClass::ButterflyNtt { n: 64, batch: 1 },
            KernelClass::GemmCuda {
                m: 8,
                k: 8,
                cols: 8,
                batch: 1,
            },
            KernelClass::Elementwise {
                elems: 64,
                ops_per_elem: 2,
                bytes_per_elem: 12,
            },
            KernelClass::Permute { elems: 64 },
            KernelClass::BasisConv {
                elems: 64,
                l_src: 8,
            },
            KernelClass::FftButterfly { n: 64, batch: 1 },
            KernelClass::DwtLifting { n: 64, batch: 1 },
        ];
        for c in classes {
            let d = KernelDesc::new(c, "k");
            assert!(d.template().is_some(), "{} needs a template", c.tag());
            assert!(d.total_work() > 0);
            assert!(d.bytes_moved() > 0);
        }
    }

    #[test]
    fn strided_layout_marks_uncoalesced_loads() {
        let k = KernelDesc::new(
            KernelClass::Elementwise {
                elems: 64,
                ops_per_elem: 1,
                bytes_per_elem: 12,
            },
            "e",
        )
        .with_strided_layout();
        let t = k.template().expect("template");
        let has_uncoalesced = t.body.iter().any(|i| {
            matches!(
                i,
                Instr::LdGlobal {
                    coalesced: false,
                    ..
                }
            )
        });
        assert!(has_uncoalesced);
    }

    #[test]
    fn butterfly_template_has_barrier_and_chain() {
        let k = KernelDesc::new(KernelClass::ButterflyNtt { n: 64, batch: 1 }, "ntt");
        let t = k.template().expect("template");
        assert!(t.body.iter().any(|i| matches!(i, Instr::Bar)));
        assert!(t.code_footprint > 1.0);
    }
}
