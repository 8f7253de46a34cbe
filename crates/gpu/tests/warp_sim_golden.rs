//! Every bit of the warp-scheduler simulator, pinned by one golden digest.
//!
//! One FNV-1a digest folds `simulate_scheduler`'s cycles, instructions and
//! full stall breakdown (issued cycles and all six stall buckets) over a
//! grid of scheduler problems:
//!
//! * every kernel class that has an instruction template — butterfly NTT,
//!   CUDA-core GEMM, element-wise at one to four ops per element (the
//!   template keeps at most four), permutation, scalar basis conversion,
//!   FFT and DWT — each in the coalesced and the strided layout;
//! * resident warps {1, 2, 7, 16, 48}, so single-warp chains, partial and
//!   ragged blocks and more warps than the engine ever keeps resident;
//! * simulated iterations {1, 3, 48} (48 is the engine's iteration cap);
//! * warps per block {1, 4, 8}, barrier groups from one warp to wider
//!   than some warp counts.
//!
//! The grid runs on the A100 (every paper costing's device) and the
//! GTX 1080 Ti (the Fig. 4 stall analysis), whose memory latencies
//! differ. A rewrite of the simulator's loop that moves any cycle, any
//! issued instruction or the attribution of any stall cycle moves the
//! digest.

use tensorfhe_gpu::warp_sim::simulate_scheduler;
use tensorfhe_gpu::{DeviceConfig, KernelClass, KernelDesc};

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

/// One launch of every class with a warp-simulator template (the template
/// reads only the class and the layout, not the sizes).
fn classes() -> Vec<KernelClass> {
    let mut classes = vec![
        KernelClass::ButterflyNtt {
            n: 1 << 12,
            batch: 8,
        },
        KernelClass::GemmCuda {
            m: 64,
            k: 64,
            cols: 64,
            batch: 8,
        },
    ];
    classes.extend((1..=4).map(|ops_per_elem| KernelClass::Elementwise {
        elems: 1 << 20,
        ops_per_elem,
        bytes_per_elem: 12,
    }));
    classes.extend([
        KernelClass::Permute { elems: 1 << 20 },
        KernelClass::BasisConv {
            elems: 1 << 20,
            l_src: 3,
        },
        KernelClass::FftButterfly {
            n: 1 << 12,
            batch: 8,
        },
        KernelClass::DwtLifting {
            n: 1 << 12,
            batch: 8,
        },
    ]);
    classes
}

/// The grid's results, recorded on the simulator that classified every
/// warp on every cycle; every later simulator must keep it.
const GOLDEN: u64 = 0x5497_3c9d_8b1a_c95f;

#[test]
fn warp_simulator_matches_its_golden_digest() {
    let mut words = Vec::new();
    let mut problems = 0u64;
    for device in [DeviceConfig::a100(), DeviceConfig::gtx1080ti()] {
        for class in classes() {
            let coalesced = KernelDesc::new(class, "golden");
            for desc in [coalesced.clone(), coalesced.with_strided_layout()] {
                let template = desc.template().expect("a CUDA-core class");
                for warps in [1usize, 2, 7, 16, 48] {
                    for iters in [1u64, 3, 48] {
                        for warps_per_block in [1usize, 4, 8] {
                            let r = simulate_scheduler(
                                &device,
                                &template,
                                warps,
                                iters,
                                warps_per_block,
                            );
                            assert_eq!(r.breakdown.total_cycles(), r.cycles);
                            words.extend([r.cycles, r.instructions, r.breakdown.issued_cycles]);
                            words.extend(r.breakdown.stalls);
                            problems += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(problems, 2 * 10 * 2 * 5 * 3 * 3);
    let digest = fnv64(words);
    assert_eq!(
        digest, GOLDEN,
        "warp-simulator digest moved: {digest:#018x}"
    );
}
