//! A first-order GPGPU performance model — the hardware substrate of the
//! TensorFHE reproduction.
//!
//! The paper evaluates on real NVIDIA GPUs (A100/V100) and on GPGPUSim (for
//! the 1080Ti stall analysis). Neither is available here, so this crate
//! models the three machines at the level the paper's numbers depend on:
//!
//! * [`device`] — static machine descriptions (SMs, clocks, CUDA cores,
//!   tensor cores, HBM bandwidth, VRAM, power) for A100, V100 and GTX1080Ti.
//! * [`warp_sim`] — an in-order, scoreboarded warp scheduler simulator that
//!   executes per-thread instruction templates and classifies every unhidden
//!   stall cycle into the six buckets of Fig. 4 (RAW, long latency, L1I
//!   miss, control hazard, function-unit busy, barrier).
//! * [`kernel`] — kernel descriptors: the instruction template, thread
//!   geometry and memory traffic of each TensorFHE kernel class (butterfly
//!   NTT, CUDA-core GEMM, TCU GEMM, element-wise, permutation, basis
//!   conversion, plus the FFT/DWT reference kernels of Fig. 4).
//! * [`engine`] — a discrete-event device engine with CUDA-stream semantics
//!   (concurrent kernels water-fill the SM pool, which is how the 16
//!   segmented GEMMs of Fig. 8 overlap). A launch allocates nothing of its
//!   own: its shape is costed once into a profile of the [`CostMemo`],
//!   and the launch log keeps one 32-byte record per retired launch —
//!   stream, start, end and the ids of its profile, name and operation
//!   scope. Each launch is folded into the simulator's [`Retired`] totals
//!   as it retires (`tensorfhe-core`'s `OpStats`, the fold the paper's
//!   tables report, reads them), and [`DeviceSim::stats`] builds full
//!   per-launch [`KernelStats`] — timing, stall breakdown, occupancy and
//!   energy — from the log on demand.
//!
//! Nothing in this crate knows about FHE; it executes abstract kernel
//! descriptions. The kernel layer of `tensorfhe-core` translates CKKS
//! kernels into [`kernel::KernelDesc`]s, so the performance ordering between
//! TensorFHE-NT/-CO/full TensorFHE *emerges* from the model rather than
//! being tabulated.
//!
//! # Examples
//!
//! ```
//! use tensorfhe_gpu::device::DeviceConfig;
//! use tensorfhe_gpu::engine::DeviceSim;
//! use tensorfhe_gpu::kernel::{KernelClass, KernelDesc};
//!
//! let mut sim = DeviceSim::new(DeviceConfig::a100());
//! let s = sim.create_stream();
//! sim.launch(s, KernelDesc::new(KernelClass::Elementwise {
//!     elems: 1 << 20,
//!     ops_per_elem: 2,
//!     bytes_per_elem: 24,
//! }, "ele-add"));
//! sim.synchronize();
//! // The totals fold as launches retire; per-launch stats are built from
//! // the compact launch log on demand.
//! assert_eq!(sim.retired().launches, 1);
//! let stats = sim.stats();
//! assert_eq!(stats.len(), 1);
//! assert!(stats[0].duration_us > 0.0);
//! assert_eq!(&*stats[0].name, "ele-add");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod engine;
pub mod kernel;
pub mod stall;
pub mod warp_sim;

pub use device::DeviceConfig;
pub use engine::{CostMemo, DeviceSim, KernelStats, Retired, StreamId};
pub use kernel::{KernelClass, KernelDesc, KernelName, H2D_BANDWIDTH_GBPS};
pub use stall::{StallBreakdown, StallKind};
