//! The CKKS operations and their kernel streams — one vocabulary from the
//! evaluator to the costing.
//!
//! [`FheOp`] names every operation the evaluator traces and the service
//! costs, and [`FheOp::events`] is the one generator of its kernel-event
//! stream (Algorithms 2–6): the evaluator emits it inside the operation's
//! scope, and `tensorfhe-core` costs the same stream, so an operation's
//! kernel sequence is written once, here. A bootstrap's stream is the
//! slim-bootstrap composition (Fig. 6) of the others' streams, and
//! [`bootstrap_depth`] is the chain depth it needs.

use crate::keyswitch::key_switch_events;
use crate::schedule::bootstrap_schedule;
use crate::{CkksParams, KernelEvent};

pub use crate::schedule::bootstrap_depth;

/// A CKKS operation: what the evaluator traces and the service costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FheOp {
    /// HADD (Algorithm 5): one Ele-Add over both components.
    HAdd,
    /// Ciphertext subtraction and negation: one Ele-Sub over both
    /// components.
    HSub,
    /// A plaintext or constant added to `c0`: one Ele-Add over one
    /// component.
    AddPlain,
    /// HMULT (Algorithm 2): the tensor step, the key switch of `d2`, the
    /// fold of the switched pair.
    HMult,
    /// CMULT (Algorithm 3) and constant multiplication: one Hada-Mult over
    /// both components.
    CMult,
    /// HROTATE (Algorithm 4): the Frobenius map, the key switch, the add
    /// into `c0`.
    HRotate,
    /// RESCALE (Algorithm 6): the two top limbs back to coefficients, the
    /// lifted rows forward, the scaled subtraction.
    Rescale,
    /// Conjugation: HROTATE's stream with the Conjugate permutation.
    Conjugate,
    /// Full slim bootstrap (Fig. 6) with the given sine parameters.
    Bootstrap {
        /// Taylor degree of the `exp(iθ)` approximation.
        taylor_degree: usize,
        /// Double-angle squarings.
        double_angles: usize,
    },
}

impl FheOp {
    /// Operation name as the paper prints it.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            FheOp::HAdd => "HADD",
            FheOp::HSub => "HSUB",
            FheOp::AddPlain => "ADD-PLAIN",
            FheOp::HMult => "HMULT",
            FheOp::CMult => "CMULT",
            FheOp::HRotate => "HROTATE",
            FheOp::Rescale => "RESCALE",
            FheOp::Conjugate => "HCONJ",
            FheOp::Bootstrap { .. } => "BOOTSTRAP",
        }
    }

    /// The operation's kernel events on a ciphertext at `level` of
    /// `params`. A bootstrap starts at the top of the chain whatever
    /// `level` says.
    ///
    /// # Panics
    ///
    /// Panics on a bootstrap when the chain is shallower than
    /// [`bootstrap_depth`].
    #[must_use]
    pub fn events(self, params: &CkksParams, level: usize) -> Vec<KernelEvent> {
        let n = params.n();
        let limbs = level + 1;
        match self {
            FheOp::HAdd => vec![KernelEvent::EleAdd {
                n,
                limbs: 2 * limbs,
            }],
            FheOp::HSub => vec![KernelEvent::EleSub {
                n,
                limbs: 2 * limbs,
            }],
            FheOp::AddPlain => vec![KernelEvent::EleAdd { n, limbs }],
            FheOp::CMult => vec![KernelEvent::HadaMult {
                n,
                limbs: 2 * limbs,
            }],
            FheOp::HMult => {
                let mut ev = vec![
                    KernelEvent::HadaMult {
                        n,
                        limbs: 4 * limbs,
                    },
                    KernelEvent::EleAdd { n, limbs },
                ];
                ev.extend(key_switch_events(params, level));
                ev.push(KernelEvent::EleAdd {
                    n,
                    limbs: 2 * limbs,
                });
                ev
            }
            FheOp::Rescale => vec![
                KernelEvent::Ntt {
                    n,
                    limbs: 2,
                    inverse: true,
                },
                KernelEvent::Ntt {
                    n,
                    limbs: 2 * level,
                    inverse: false,
                },
                KernelEvent::EleSub {
                    n,
                    limbs: 2 * level,
                },
            ],
            FheOp::HRotate | FheOp::Conjugate => {
                let limbs = 2 * limbs;
                let mut ev = vec![if self == FheOp::HRotate {
                    KernelEvent::FrobeniusMap { n, limbs }
                } else {
                    KernelEvent::Conjugate { n, limbs }
                }];
                ev.extend(key_switch_events(params, level));
                ev.push(KernelEvent::EleAdd {
                    n,
                    limbs: level + 1,
                });
                ev
            }
            FheOp::Bootstrap {
                taylor_degree,
                double_angles,
            } => bootstrap_schedule(params, taylor_degree, double_angles),
        }
    }
}
