//! Schedule-invariant fuzzing: random multi-session request streams are
//! driven through the service at every workers × pipeline-depth corner,
//! and the structural verifier must find zero violations — device
//! intervals non-overlapping, gang starts legal, joins in order, uploads
//! charged exactly once per sessioned gang, windows independent, and the
//! accounting closed.

use proptest::prelude::*;
use tensorfhe_analyze::verify_service;
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{FheOp, TensorFhe};
use tensorfhe_core::service::{FheRequest, FheService};
use tensorfhe_core::{SchedPolicy, SessionConfig};

fn service(workers: usize, depth: usize) -> FheService {
    TensorFhe::builder(&CkksParams::test_small())
        .sched(SchedPolicy::new().workers(workers).pipeline_depth(depth))
        .service()
        .expect("valid service config")
}

/// The workers × depth corners the CI matrix pins.
const MATRIX: [(usize, usize); 4] = [(1, 1), (1, 4), (4, 1), (4, 4)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any stream shape — mixed sessions, anonymous traffic, tight
    /// deadlines, admission caps, interleaved pumps — must replay clean
    /// through the verifier at every matrix corner.
    #[test]
    fn random_streams_verify_clean_across_the_matrix(
        seed in 0u64..10_000,
        deadline_scale in 1u32..6,
        queue_cap in 4usize..32,
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for &(workers, depth) in &MATRIX {
            let mut svc = service(workers, depth);
            let max_level = svc.params().max_level();
            let cap = svc.batch_cap();
            // One deadline-bound session (tight enough to shed under
            // load), one weighted heavy hitter, one default client.
            let rt = svc
                .register_session(
                    SessionConfig::new("rt")
                        .deadline_us(f64::from(deadline_scale) * 5_000.0)
                        .queue_cap(queue_cap),
                )
                .expect("valid");
            let heavy = svc
                .register_session(SessionConfig::new("heavy").weight(2.0))
                .expect("valid");
            let light = svc
                .register_session(SessionConfig::new("light"))
                .expect("valid");
            let mut rng = StdRng::seed_from_u64(seed);
            let ops = [FheOp::HMult, FheOp::HAdd, FheOp::HRotate, FheOp::Rescale];
            for i in 0..rng.gen_range(6..20) {
                let op = ops[rng.gen_range(0..ops.len())];
                let level = rng.gen_range(1..=max_level);
                let count = rng.gen_range(1..=cap * 2);
                let req = match i % 4 {
                    0 => FheRequest::in_session(op, level, count, rt),
                    1 => FheRequest::in_session(op, level, count, heavy),
                    2 => FheRequest::in_session(op, level, count, light),
                    _ => FheRequest::new(op, level, count, "anon"),
                };
                svc.submit(req).expect("admission never errors");
                if i % 3 == 2 {
                    // Interleave partial drains so batches join while
                    // later requests are still arriving.
                    svc.pump();
                }
            }
            loop {
                // Shedding can leave later work runnable; drain to a
                // fixpoint before auditing the trace.
                if svc.drain().is_empty() {
                    break;
                }
            }
            let report = verify_service(&svc);
            prop_assert!(
                report.is_clean(),
                "workers={workers} depth={depth} seed={seed}:\n{report}"
            );
        }
    }
}
