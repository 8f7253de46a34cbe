//! Scalar mathematics substrate for the TensorFHE reproduction.
//!
//! This crate provides everything the higher layers need to do exact
//! arithmetic in prime fields `Z_q` and to move between residue bases:
//!
//! * [`Modulus`] — Barrett-reduced modular arithmetic over `u64` primes,
//!   including Shoup multiplication for hot loops with a fixed multiplicand,
//!   and slice kernels that run `u128`-free word-size bodies (Barrett-64,
//!   32-bit Shoup) whenever `q < 2^31`.
//! * [`prime`] — Miller–Rabin primality testing and generation of
//!   NTT-friendly primes (`q ≡ 1 mod 2N`) together with primitive roots.
//! * [`crt`] — Chinese-Remainder reconstruction (Garner mixed radix) and the
//!   pre-computed tables used by the fast basis conversion (`Conv`) kernel.
//! * [`complex`] — a minimal `Complex64` used by the CKKS canonical-embedding
//!   encoder.
//! * [`sampling`] — the three random distributions CKKS needs (uniform mod
//!   `q`, ternary secrets, centered discrete Gaussian noise).
//! * [`gemm_fast`] — cache-blocked, register-tiled Montgomery GEMM kernels,
//!   the host fast path for the batched-NTT and basis-conversion products
//!   (bit-identical to the Barrett scalar reference).
//! * [`simd`] — the pluggable register tiles behind [`gemm_fast`]: the
//!   single-`u64`-accumulator, `u128`-free tile for word-size primes
//!   (`Narrow`), the lane-parallel 32×32→64 limb-split Montgomery tile
//!   (`Simd4`) and the `u128`-accumulator scalar reference tile; an
//!   operand selects `Narrow` or `Simd4` from its prime, once, when it is
//!   built.
//! * [`scratch`] — thread-local reusable buffer pools backing the hot GEMM
//!   paths, so steady-state drains stop allocating; buffers a kernel
//!   overwrites whole can be taken dirty and skip the zero fill.
//!
//! # Examples
//!
//! ```
//! use tensorfhe_math::{Modulus, prime::generate_ntt_primes};
//!
//! let q = generate_ntt_primes(1, 30, 1 << 10)[0];
//! let m = Modulus::new(q);
//! let a = m.mul(12345, 67890);
//! assert_eq!(a, (12345u128 * 67890 % q as u128) as u64);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitrev;
pub mod complex;
pub mod crt;
pub mod gemm_fast;
pub mod modulus;
pub mod montgomery;
pub mod prime;
pub mod sampling;
pub mod scratch;
pub mod simd;

pub use complex::Complex64;
pub use modulus::{Modulus, ShoupMul};
