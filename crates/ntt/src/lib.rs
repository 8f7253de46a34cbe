//! Number Theoretic Transform implementations for TensorFHE.
//!
//! The paper's core contribution is a chain of three NTT formulations with
//! increasing GPU-friendliness; this crate implements all of them bit-exactly
//! plus a naive reference, and proves (in tests) that they compute the *same*
//! negacyclic transform:
//!
//! | Variant | Paper name | Module |
//! |---|---|---|
//! | Cooley–Tukey / Gentleman–Sande butterflies: Harvey lazy butterflies on 32-bit Shoup twiddles in `u64` lanes for `q < 2^31`, 64-bit Shoup for wider primes | TensorFHE-NT | [`butterfly`] |
//! | `O(N²)` matrix–vector product (Eq. 8) | analysis only | [`naive`] |
//! | Four-step GEMM decomposition (Eq. 9), run on the host as Eq. 9 applied to its own outer DFT: one Montgomery GEMM per radix (three from `N = 2^9`) with the twiddle Hadamards and all repacks fused into their epilogues; for `q < 2^31` a single-`u64`-accumulator register tile and a packed 32-bit Shoup twiddle product, no `u128` anywhere in the pass | TensorFHE-CO | [`four_step`] |
//! | Segmented u8 GEMM + Booth fusion (Fig. 7/8) | TensorFHE | [`tensor_core`] |
//! | Batched `B×L` execution + plan cache (Fig. 8, §IV-B/D); the Barrett wide pipeline kept as the named reference | TensorFHE batching | [`batch`] |
//!
//! The [`batch`] module is the execution layer the others plug into:
//! [`batch::NttBatchOps`] transforms a whole block of same-modulus residue
//! rows per call, and [`batch::PlanCache`] shares one
//! [`batch::BatchedGemmNtt`] plan per `(n, q, algorithm)` key across the
//! entire process — twiddle matrices are built once, whoever asks.
//!
//! There is **one** four-step pipeline and every caller gets it: per-row
//! [`NttOps`] calls, batched calls, the CKKS evaluator and the host
//! executor all run the fused Montgomery/SIMD GEMMs of
//! [`tensorfhe_math::gemm_fast`]. The scalar Barrett wide pipeline
//! survives only as [`batch::BatchedGemmNtt::reference_batch`] — the
//! equivalence tests' Barrett reference and `fig14_host_gemm`'s
//! denominator (its block plumbing also carries the tensor-core
//! formulation).
//!
//! The same cache also hands out [`batch::BasisConvGemm`] plans (keyed on
//! the `(src, dst)` prime lists) for the GEMM-lowered fast basis conversion
//! of `ModUp`/`ModDown` — the Conv kernel rides the identical wide-GEMM
//! execution layer as the NTT, converting `B·N` coefficients per matrix
//! product instead of walking them one at a time.
//!
//! All variants share the convention: `forward` maps natural-order
//! coefficients to natural-order evaluations of the *negacyclic* transform
//! `A_k = Σ_n a_n ψ^{(2k+1)n} mod q` where `ψ` is a primitive `2N`-th root of
//! unity, so `INTT(NTT(a) ⊙ NTT(b))` is exactly the product in
//! `Z_q[X]/(X^N + 1)` with no zero padding (§II-A of the paper).
//!
//! # Examples
//!
//! ```
//! use tensorfhe_ntt::{NttTable, NttOps};
//! use tensorfhe_math::prime::generate_ntt_primes;
//!
//! let n = 64;
//! let q = generate_ntt_primes(1, 30, n as u64)[0];
//! let table = NttTable::new(n, q);
//! let mut a: Vec<u64> = (0..n as u64).collect();
//! let orig = a.clone();
//! table.forward(&mut a);
//! table.inverse(&mut a);
//! assert_eq!(a, orig);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod butterfly;
pub mod four_step;
mod mat;
pub mod naive;
pub mod polymul;
pub mod tensor_core;

pub use batch::{BasisConvGemm, BatchedGemmNtt, NttBatchOps, PlanCache};
pub use butterfly::NttTable;
pub use four_step::FourStepNtt;
pub use tensor_core::{SegmentedMatrix, TensorCoreNtt};

/// Which NTT formulation an engine uses — mirrors the three TensorFHE
/// configurations of Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NttAlgorithm {
    /// Butterfly NTT on CUDA cores (TensorFHE-NT).
    Butterfly,
    /// Four-step GEMM NTT on CUDA cores (TensorFHE-CO).
    FourStep,
    /// Segmented u8 GEMM NTT on tensor cores (TensorFHE).
    TensorCore,
}

impl NttAlgorithm {
    /// Human-readable name matching the paper's scheme labels.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            NttAlgorithm::Butterfly => "TensorFHE-NT",
            NttAlgorithm::FourStep => "TensorFHE-CO",
            NttAlgorithm::TensorCore => "TensorFHE",
        }
    }
}

/// Common interface of every NTT implementation: an in-place, natural-order
/// negacyclic transform pair.
pub trait NttOps {
    /// Polynomial degree `N`.
    fn degree(&self) -> usize;

    /// The prime modulus `q`.
    fn modulus(&self) -> u64;

    /// In-place forward negacyclic NTT (coefficients → evaluations).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.degree()`.
    fn forward(&self, a: &mut [u64]);

    /// In-place inverse negacyclic NTT (evaluations → coefficients).
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != self.degree()`.
    fn inverse(&self, a: &mut [u64]);
}
