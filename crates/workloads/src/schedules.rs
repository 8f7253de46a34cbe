//! Operation-schedule builders for the four evaluation workloads (§V).

use crate::spec::{Step, WorkloadSpec};
use tensorfhe_boot::BootConfig;
use tensorfhe_ckks::CkksParams;
use tensorfhe_core::api::FheOp;

/// A workload bootstrap: the bootstrapper's default sine (Taylor degree 7
/// per §IV-A, six double angles).
fn boot() -> FheOp {
    let sine = BootConfig::default().sine;
    FheOp::Bootstrap {
        taylor_degree: sine.taylor_degree,
        double_angles: sine.double_angles,
    }
}

/// Tracks the level budget of a straight-line program, inserting bootstrap
/// steps whenever the budget runs out.
struct LevelBudget {
    level: usize,
    top: usize,
    steps: Vec<Step>,
    bootstraps: usize,
}

impl LevelBudget {
    fn new(params: &CkksParams) -> Self {
        let top = params.max_level();
        assert!(
            top > BootConfig::default().depth(),
            "parameters too shallow to bootstrap"
        );
        Self {
            level: top,
            top,
            steps: Vec::new(),
            bootstraps: 0,
        }
    }

    /// Emits `count` repetitions of `op` at the current level.
    fn push(&mut self, op: FheOp, count: usize) {
        if count > 0 {
            self.steps.push(Step {
                op,
                level: self.level,
                count,
            });
        }
    }

    /// Consumes `depth` levels (emitting the rescales), bootstrapping first
    /// if the budget is insufficient.
    fn spend(&mut self, depth: usize) {
        if self.level < depth + 1 {
            self.bootstrap();
        }
        for _ in 0..depth {
            self.steps.push(Step {
                op: FheOp::Rescale,
                level: self.level,
                count: 1,
            });
            self.level -= 1;
        }
    }

    fn bootstrap(&mut self) {
        self.steps.push(Step {
            op: boot(),
            level: self.top,
            count: 1,
        });
        // Levels a bootstrap consumes: the two transforms and the sine.
        self.level = self.top - BootConfig::default().depth();
        self.bootstraps += 1;
    }
}

/// HELR logistic regression (Han et al. 2019): 14 training iterations on
/// 16384 samples, 128 samples batch-encoded per polynomial (Table V).
///
/// Per iteration: the gradient needs one ciphertext product `z = X·w`
/// (HMULT + a rotate-accumulate tree over the 256-feature dimension), a
/// degree-3 sigmoid approximation (2 HMULT + 2 CMULT), and the weight
/// update (CMULT + rotations for the transposed accumulation + HADD).
/// Three bootstraps arise naturally from the level budget — matching the
/// paper's "three bootstrapping operations are required".
#[must_use]
pub fn logistic_regression() -> WorkloadSpec {
    let params = CkksParams::table_v_lr();
    let mut b = LevelBudget::new(&params);
    let feature_log = 8; // 256-padded feature dimension → 8 rotate-adds.
    for _ in 0..14 {
        // z = X·w inner product (margin m = y·z consumes another level).
        b.push(FheOp::HMult, 2);
        b.push(FheOp::HRotate, feature_log);
        b.push(FheOp::HAdd, feature_log);
        b.spend(2);
        // Degree-3 sigmoid: σ(m) ≈ a0 + a1 m + a3 m³ (square, cube, scale).
        b.push(FheOp::HMult, 2);
        b.push(FheOp::CMult, 2);
        b.push(FheOp::HAdd, 2);
        b.spend(3);
        // Gradient aggregation over the sample dimension + learning-rate
        // scaled weight update.
        b.push(FheOp::HMult, 1);
        b.push(FheOp::HRotate, feature_log);
        b.push(FheOp::HAdd, feature_log);
        b.push(FheOp::CMult, 1);
        b.push(FheOp::HAdd, 1);
        b.spend(1);
    }
    assert_eq!(
        b.bootstraps, 3,
        "HELR schedule should need exactly 3 bootstraps"
    );
    WorkloadSpec {
        name: "Logistic Regression".into(),
        params,
        steps: b.steps,
        batch: 64,
        iterations: 14,
    }
}

/// ResNet-20 inference (Lee et al. 2022) on 64 packed CIFAR images.
///
/// Channel-multiplexed packing: each 3×3 convolution is 9 kernel-position
/// rotations + 9 CMULTs + adds, plus `log2(C_in)` rotate-adds for the
/// channel reduction; the activation is the paper-cited polynomial ReLU
/// (a composition evaluated with 4 HMULT + 4 CMULT); one bootstrap per
/// activation keeps the budget alive (the Lee et al. structure).
#[must_use]
pub fn resnet20() -> WorkloadSpec {
    let params = CkksParams::table_v_resnet20();
    let mut b = LevelBudget::new(&params);
    // (layers, C_in) per stage of ResNet-20: conv1 + 3 stages × 6 convs.
    let stages: [(usize, usize); 4] = [(1, 3), (6, 16), (6, 32), (6, 64)];
    for (layers, c_in) in stages {
        for _ in 0..layers {
            let ch_log = (c_in as f64).log2().ceil() as usize;
            // 3×3 convolution.
            b.push(FheOp::HRotate, 9);
            b.push(FheOp::CMult, 9);
            b.push(FheOp::HAdd, 8);
            b.push(FheOp::HRotate, ch_log);
            b.push(FheOp::HAdd, ch_log);
            b.spend(1);
            // Polynomial ReLU (composite minimax approximation).
            b.push(FheOp::HMult, 4);
            b.push(FheOp::CMult, 4);
            b.push(FheOp::HAdd, 4);
            b.spend(4);
            // One bootstrap per activation layer.
            b.bootstrap();
        }
    }
    // Average pool + fully connected head.
    b.push(FheOp::HRotate, 6);
    b.push(FheOp::HAdd, 6);
    b.push(FheOp::CMult, 10);
    b.push(FheOp::HAdd, 10);
    b.spend(1);
    WorkloadSpec {
        name: "ResNet-20".into(),
        params,
        steps: b.steps,
        batch: 64,
        iterations: 64, // 64 images per batch.
    }
}

/// LSTM NLP model (Podschwadt–Takabi 2020): 128 cells, embedding dimension
/// 128, 32 sentences packed (Table V).
///
/// Per timestep: four gate transforms (each a 128×128 matrix–vector BSGS:
/// ≈ 2√128 rotations + diagonal CMULTs folded into one dense transform
/// here approximated by 23 rotations + 1 wide CMULT), sigmoid/tanh
/// polynomials (2 HMULT each for the degree-3 approximations), and the
/// element-wise state updates.
#[must_use]
pub fn lstm() -> WorkloadSpec {
    let params = CkksParams::table_v_lstm();
    let mut b = LevelBudget::new(&params);
    let timesteps = 128;
    let bsgs_rot = 23; // ⌈√128⌉ babies + giants.
    for _ in 0..timesteps {
        for _gate in 0..4 {
            b.push(FheOp::HRotate, bsgs_rot);
            b.push(FheOp::CMult, 1);
            b.push(FheOp::HAdd, bsgs_rot);
            b.spend(1);
        }
        // Activations: σ ×3, tanh ×2 (degree-3 each).
        b.push(FheOp::HMult, 10);
        b.push(FheOp::CMult, 5);
        b.push(FheOp::HAdd, 5);
        b.spend(2);
        // c = f⊙c + i⊙g ; h = o⊙tanh(c).
        b.push(FheOp::HMult, 3);
        b.push(FheOp::HAdd, 1);
        b.spend(1);
    }
    WorkloadSpec {
        name: "LSTM".into(),
        params,
        steps: b.steps,
        batch: 32,
        iterations: timesteps,
    }
}

/// Packed bootstrapping (§V): 32 ciphertexts at N = 2^16 restored to L = 57
/// in parallel — the CraterLake comparison workload.
#[must_use]
pub fn packed_bootstrapping() -> WorkloadSpec {
    let params = CkksParams::table_v_packed_boot();
    WorkloadSpec {
        name: "Packed Bootstrapping".into(),
        params: params.clone(),
        steps: vec![Step {
            op: boot(),
            level: params.max_level(),
            count: 1,
        }],
        batch: 32,
        iterations: 32,
    }
}

/// All four workloads in Table X order.
#[must_use]
pub fn all() -> Vec<WorkloadSpec> {
    vec![
        resnet20(),
        logistic_regression(),
        lstm(),
        packed_bootstrapping(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lr_has_three_bootstraps() {
        let lr = logistic_regression();
        assert_eq!(lr.count_of("BOOTSTRAP"), 3);
        assert_eq!(lr.iterations, 14);
        assert!(lr.count_of("HMULT") >= 14 * 3);
    }

    #[test]
    fn resnet_is_rotation_heavy() {
        let r = resnet20();
        // 19 conv layers × (9 + channel) rotations plus the head.
        assert!(r.count_of("HROTATE") > 150, "got {}", r.count_of("HROTATE"));
        assert_eq!(r.count_of("BOOTSTRAP"), 19, "one bootstrap per activation");
    }

    #[test]
    fn lstm_step_structure() {
        let l = lstm();
        // 4 gates × 23 rotations × 128 timesteps.
        assert!(l.count_of("HROTATE") >= 4 * 23 * 128);
        assert!(
            l.count_of("BOOTSTRAP") > 0,
            "deep recurrence must bootstrap"
        );
    }

    #[test]
    fn packed_boot_is_single_batched_op() {
        let p = packed_bootstrapping();
        assert_eq!(p.op_count(), 1);
        assert_eq!(p.batch, 32);
    }

    #[test]
    fn levels_never_underflow() {
        for spec in all() {
            for s in &spec.steps {
                assert!(s.level <= spec.params.max_level(), "{}", spec.name);
            }
        }
    }
}
