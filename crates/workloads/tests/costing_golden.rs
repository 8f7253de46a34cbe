//! Every bit of the paper-scale costings, pinned by one golden digest.
//!
//! Ten costings fold into one FNV-1a digest:
//!
//! * `Engine::run_schedule` of the Table VII bootstrap (`taylor_degree` 7,
//!   `double_angles` 6, batch 128) under each of the three variants —
//!   `time_us`, `energy_j`, `launches`, `occupancy` and every `by_kernel`
//!   name and time;
//! * the same for a HEAX set B HMULT at batch 16 under each variant: at
//!   paper scale every CUDA-core launch sits at its resident-warp cap,
//!   here some do not, so launches that differ only in resident warps
//!   are costed too;
//! * `run_workload` of each of the four Table X workloads under the
//!   tensor-core variant — `time_s`, `energy_j`, `energy_per_iter_j`,
//!   `occupancy`, `per_op_us` and `per_kernel_us`.
//!
//! A change to how a launch is costed — the warp simulator, the cost
//! model, or how either is memoised — that moves any bit of any of these
//! figures moves the digest.

use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::{schedule_events, FheOp};
use tensorfhe_core::engine::{Engine, EngineConfig, Variant};
use tensorfhe_workloads::schedules;
use tensorfhe_workloads::spec::run_workload;

/// FNV-1a (64-bit) over little-endian words.
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A name's bytes behind a length prefix.
fn name_words(words: &mut Vec<u64>, name: &str) {
    words.push(name.len() as u64);
    words.extend(name.bytes().map(u64::from));
}

/// A `(name, µs)` table behind a length prefix.
fn table_words<'a>(words: &mut Vec<u64>, rows: impl ExactSizeIterator<Item = (&'a str, f64)>) {
    words.push(rows.len() as u64);
    for (name, us) in rows {
        name_words(words, name);
        words.push(us.to_bits());
    }
}

/// The ten costings, recorded before the launch-cost memo carried warp
/// simulations across launch shapes; every later memo must keep it.
const GOLDEN: u64 = 0x8cc1_27a5_efc6_ad85;

#[test]
fn paper_costings_match_their_golden_digest() {
    let mut words = Vec::new();

    let params = CkksParams::table_vii_bootstrap();
    let op = FheOp::Bootstrap {
        taylor_degree: 7,
        double_angles: 6,
    };
    let boot = schedule_events(&params, op, params.max_level());
    let heax_b = CkksParams::heax_set_b();
    let hmult = schedule_events(&heax_b, FheOp::HMult, heax_b.max_level());
    for (tag, events, batch) in [(op.name(), &boot, 128), ("HMULT", &hmult, 16)] {
        for variant in [Variant::Butterfly, Variant::FourStep, Variant::TensorCore] {
            let stats = Engine::new(EngineConfig::a100(variant)).run_schedule(tag, events, batch);
            words.extend([
                stats.time_us.to_bits(),
                stats.energy_j.to_bits(),
                stats.launches as u64,
                stats.occupancy.to_bits(),
            ]);
            table_words(
                &mut words,
                stats.by_kernel.iter().map(|(name, us)| (&**name, *us)),
            );
        }
    }

    for spec in schedules::all() {
        let r = run_workload(&spec, Variant::TensorCore);
        name_words(&mut words, &r.name);
        words.extend([
            r.time_s.to_bits(),
            r.energy_j.to_bits(),
            r.energy_per_iter_j.to_bits(),
            r.occupancy.to_bits(),
        ]);
        table_words(&mut words, r.per_op_us.iter().map(|(n, us)| (&**n, *us)));
        table_words(
            &mut words,
            r.per_kernel_us.iter().map(|(n, us)| (&**n, *us)),
        );
    }

    let got = fnv64(words);
    assert_eq!(
        got, GOLDEN,
        "paper costings moved: digest {got:#018x}, golden {GOLDEN:#018x}"
    );
}
