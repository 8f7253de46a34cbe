//! The paper's evaluation workloads (§V): ResNet-20, HELR logistic
//! regression, LSTM and packed bootstrapping.
//!
//! Each workload exists in two forms:
//!
//! * a **schedule** ([`WorkloadSpec`]) — the sequence of batched CKKS
//!   operations the workload executes at its Table V parameters, runnable
//!   through the TensorFHE engine's schedule costing to regenerate
//!   Tables X/XI and Figs. 12/13;
//! * a **functional kernel** ([`helr`], [`conv`], [`lstm_cell`]) — a real
//!   encrypted computation at reduced parameters, validated against its
//!   plaintext reference, proving the op sequences do what the schedule
//!   claims.
//!
//! Operation counts are derived from the cited implementations
//! (Lee et al. for ResNet-20, Han et al. HELR, Podschwadt–Takabi LSTM);
//! where the papers leave counts unspecified we derive them from the
//! architecture and document the derivation next to the builder.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod conv;
pub mod helr;
pub mod lstm_cell;
pub mod schedules;
pub mod spec;

pub use spec::{run_workload, Step, WorkloadReport, WorkloadSpec};
