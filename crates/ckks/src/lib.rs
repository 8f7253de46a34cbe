//! Full-RNS CKKS with hybrid (generalized) key switching.
//!
//! This crate is the FHE substrate of the TensorFHE reproduction: a complete,
//! self-contained implementation of the CKKS approximate-arithmetic scheme
//! (Cheon–Kim–Kim–Song 2017) in its full-RNS form (Cheon–Han–Kim–Kim–Song
//! 2018) with the generalized key-switching of Han–Ki 2020 — the exact
//! algorithm stack §II-B/§IV-A of the paper builds on.
//!
//! Structure:
//!
//! * [`params`] / [`context`] — parameter sets (including the Table V
//!   presets) and the pre-computed context (moduli chains, NTT tables,
//!   basis-conversion caches, Galois permutations).
//! * [`poly`] — RNS polynomials with explicit coefficient/NTT domains.
//! * [`encoder`] — canonical-embedding encoding of complex vectors, by the
//!   `O(N log N)` special FFT.
//! * [`keys`] / [`encrypt`] — key generation (secret, public, relinearisation
//!   and rotation keys in the hybrid gadget) and RLWE encryption.
//! * [`keyswitch`] — `Dcomp` → `ModUp` → inner product → `ModDown`
//!   (Algorithm 1 of the paper).
//! * [`ops`] — [`FheOp`], the one operation vocabulary from the evaluator
//!   to the service, and [`FheOp::events`], the one kernel-stream generator
//!   per operation (the slim bootstrap's stream included).
//! * [`eval`] — the five CKKS operations of Table II (`HADD`, `HMULT`,
//!   `CMULT`, `HROTATE`, `RESCALE`) plus conjugation, built from the seven
//!   reusable kernels; each operation reports its `FheOp`'s stream to an
//!   optional [`trace::KernelTracer`] so the GPU engine can cost it.
//!
//! # Examples
//!
//! ```
//! use tensorfhe_ckks::params::CkksParams;
//! use tensorfhe_ckks::context::CkksContext;
//! use tensorfhe_ckks::keys::KeyChain;
//! use tensorfhe_ckks::eval::Evaluator;
//! use tensorfhe_math::Complex64;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! let params = CkksParams::toy();
//! let ctx = CkksContext::new(&params)?;
//! let mut rng = StdRng::seed_from_u64(7);
//! let keys = KeyChain::generate(&ctx, &mut rng);
//! let mut eval = Evaluator::new(&ctx);
//!
//! let v = vec![Complex64::new(1.5, 0.0), Complex64::new(-2.0, 0.25)];
//! let pt = ctx.encode(&v, ctx.params().scale())?;
//! let ct = keys.encrypt(&pt, &mut rng);
//! let prod = eval.hmult(&ct, &ct, &keys)?;
//! let dec = ctx.decode(&keys.decrypt(&prod))?;
//! assert!((dec[0].re - 2.25).abs() < 0.05);
//! # Ok::<(), tensorfhe_ckks::CkksError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod context;
pub mod encoder;
pub mod encrypt;
pub mod error;
pub mod eval;
pub mod keys;
pub mod keyswitch;
pub mod ops;
mod par;
pub mod params;
pub mod poly;
mod schedule;
pub mod trace;

pub use context::CkksContext;
pub use error::CkksError;
pub use eval::Evaluator;
pub use keys::KeyChain;
pub use ops::FheOp;
pub use params::CkksParams;
pub use poly::{Ciphertext, Domain, Plaintext, RnsPoly};
pub use trace::{KernelEvent, KernelTracer};
