//! TensorFHE — a reproduction of "TensorFHE: Achieving Practical Computation
//! on Encrypted Data Using GPGPU" (HPCA 2023) in pure Rust, grown into a
//! batching FHE *service*.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`math`] — modular arithmetic, primes, CRT, sampling.
//! * [`ntt`] — butterfly / four-step GEMM / tensor-core NTT variants.
//! * [`gpu`] — the simulated GPGPU substrate (A100/V100/GTX1080Ti models).
//! * [`ckks`] — full-RNS CKKS with hybrid key switching.
//! * [`boot`] — slim bootstrapping.
//! * [`core`] — the TensorFHE engine and the request-stream service:
//!   clients submit [`core::service::FheRequest`]s, the service coalesces
//!   compatible ones into VRAM-feasible batches (§IV-E) and dispatches to
//!   one engine or a multi-GPU cluster.
//! * [`workloads`] — ResNet-20, HELR logistic regression, LSTM and packed
//!   bootstrapping evaluation workloads, costed by folding each step's
//!   memoised batch cost (a service drain of the same steps is held
//!   bit-equal to the fold).
//!
//! # Quick start
//!
//! ```
//! use tensorfhe::ckks::CkksParams;
//! use tensorfhe::core::api::{FheOp, TensorFhe};
//! use tensorfhe::core::service::FheRequest;
//!
//! let params = CkksParams::test_small();
//! let mut svc = TensorFhe::builder(&params).service()?;
//! svc.submit(FheRequest::new(FheOp::HMult, params.max_level(), 16, "demo"))?;
//! let reports = svc.drain();
//! assert_eq!(reports.len(), 1);
//! # Ok::<(), tensorfhe::core::CoreError>(())
//! ```
//!
//! ## Migrating from the seed API
//!
//! `TensorFhe::new(&params, EngineConfig::…)` became
//! [`core::TensorFhe::builder`]; caller-batched `run_op` calls become
//! service `submit`/`drain` streams (the shim is gone — one-off costing
//! calls `schedule_of` + `run_schedule` + `OpReport::from_stats`
//! directly). See the [`core`] crate docs for the full migration table.
//!
//! See `examples/` for runnable entry points — `examples/request_stream.rs`
//! demonstrates the multi-tenant service front end.

pub use tensorfhe_boot as boot;
pub use tensorfhe_ckks as ckks;
pub use tensorfhe_core as core;
pub use tensorfhe_gpu as gpu;
pub use tensorfhe_math as math;
pub use tensorfhe_ntt as ntt;
pub use tensorfhe_workloads as workloads;
