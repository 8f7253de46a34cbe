//! The five `TENSORFHE_*` environment variables, read in one place.
//!
//! Every knob resolves *builder → environment → default*: a variable only
//! supplies what the builder left unset, so it is parsed — and rejected
//! when malformed — only then. A malformed value is a hard
//! [`CoreError::InvalidConfig`], never a silent fallback that would let
//! the CI matrix pass vacuously; zero workers or depth fail later, where
//! the builder's zeros do. The values pick configuration only: results
//! stay bit-identical across the whole matrix.
//!
//! | variable | knob | default |
//! |---|---|---|
//! | `TENSORFHE_WORKERS` | host worker threads | 1 |
//! | `TENSORFHE_PIPELINE` | in-flight window depth | 1 |
//! | `TENSORFHE_ADMISSION` | `inorder` / `ooo` | in-order |
//! | `TENSORFHE_BACKEND` | `sim` / `host-parallel` | `sim` |
//! | `TENSORFHE_ROWS_CAP` | real rows per event shard, `0` = uncapped | 0 |

use crate::error::{CoreError, CoreResult};
use crate::exec::{host::DEFAULT_ROWS_CAP, ExecBackend};
use crate::sched::AdmissionMode;

/// Variable name → value.
type Lookup = dyn Fn(&str) -> Option<String>;

/// The variables behind a lookup, parsed on demand.
pub(crate) struct EnvConfig {
    lookup: Box<Lookup>,
}

impl EnvConfig {
    /// Variables served by `lookup` (tests inject a table).
    pub(crate) fn new(lookup: impl Fn(&str) -> Option<String> + 'static) -> Self {
        Self {
            lookup: Box::new(lookup),
        }
    }

    /// The process environment.
    pub(crate) fn process() -> Self {
        Self::new(|name| std::env::var(name).ok())
    }

    /// `set` if the builder set it, else the parsed variable, else `None`.
    fn resolve<T>(
        &self,
        set: Option<T>,
        var: &str,
        expect: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> CoreResult<Option<T>> {
        if set.is_some() {
            return Ok(set);
        }
        let Some(raw) = (self.lookup)(var) else {
            return Ok(None);
        };
        parse(raw.trim())
            .map(Some)
            .ok_or_else(|| CoreError::InvalidConfig(format!("{var} must be {expect}, got {raw:?}")))
    }

    pub(crate) fn workers(&self, set: Option<usize>) -> CoreResult<usize> {
        let parse = |s: &str| s.parse().ok();
        Ok(self
            .resolve(set, "TENSORFHE_WORKERS", "a worker count", parse)?
            .unwrap_or(1))
    }

    pub(crate) fn pipeline(&self, set: Option<usize>) -> CoreResult<usize> {
        let parse = |s: &str| s.parse().ok();
        Ok(self
            .resolve(set, "TENSORFHE_PIPELINE", "a window depth", parse)?
            .unwrap_or(1))
    }

    pub(crate) fn admission(&self, set: Option<AdmissionMode>) -> CoreResult<AdmissionMode> {
        let parse = |s: &str| match s {
            "inorder" => Some(AdmissionMode::InOrder),
            "ooo" => Some(AdmissionMode::OutOfOrder),
            _ => None,
        };
        let expect = "\"inorder\" or \"ooo\"";
        Ok(self
            .resolve(set, "TENSORFHE_ADMISSION", expect, parse)?
            .unwrap_or_default())
    }

    pub(crate) fn backend(&self, set: Option<ExecBackend>) -> CoreResult<ExecBackend> {
        let expect = "\"sim\" or \"host-parallel\"";
        Ok(self
            .resolve(set, "TENSORFHE_BACKEND", expect, ExecBackend::parse)?
            .unwrap_or_default())
    }

    pub(crate) fn rows_cap(&self, set: Option<usize>) -> CoreResult<usize> {
        let (parse, expect) = (|s: &str| s.parse().ok(), "a row count (0 = uncapped)");
        Ok(self
            .resolve(set, "TENSORFHE_ROWS_CAP", expect, parse)?
            .unwrap_or(DEFAULT_ROWS_CAP))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{FheOp, TensorFheBuilder};
    use crate::engine::{EngineConfig, Variant};
    use crate::exec::HostWorkStats;
    use crate::sched::SchedPolicy;
    use crate::service::{FheRequest, FheService};
    use crate::session::KEY_CACHE_VRAM_FRACTION;
    use std::collections::BTreeMap;
    use tensorfhe_ckks::CkksParams;

    /// What a service took from its configuration: every knob, plus the
    /// real work of one small drain (which shows the row cap).
    type Fingerprint = (
        usize,
        usize,
        AdmissionMode,
        &'static str,
        u64,
        Option<HostWorkStats>,
    );

    /// A service from `builder` and the variables `env`.
    fn fingerprint(
        builder: impl FnOnce(TensorFheBuilder) -> TensorFheBuilder,
        env: &[(&'static str, &'static str)],
    ) -> CoreResult<Fingerprint> {
        let vars: BTreeMap<&str, &str> = env.iter().copied().collect();
        let env = EnvConfig::new(move |name| vars.get(name).map(|v| (*v).to_string()));
        let params = CkksParams::test_small();
        let mut svc = FheService::from_builder(builder(TensorFheBuilder::new(&params)), &env)?;
        svc.submit(FheRequest::new(FheOp::HMult, params.max_level(), 2, "a"))?;
        svc.drain();
        Ok((
            svc.workers(),
            svc.pipeline_depth(),
            svc.admission(),
            svc.stats().backend,
            svc.key_cache().capacity_bytes(),
            svc.host_work(),
        ))
    }

    /// The builder call that sets `var`'s knob to the `v`-th value.
    fn set(var: &str, v: usize) -> impl FnOnce(TensorFheBuilder) -> TensorFheBuilder + '_ {
        move |b| match var {
            "TENSORFHE_WORKERS" => b.sched(SchedPolicy::new().workers(v)),
            "TENSORFHE_PIPELINE" => b.sched(SchedPolicy::new().pipeline_depth(v)),
            "TENSORFHE_ADMISSION" => b.sched(
                SchedPolicy::new()
                    .admission([AdmissionMode::InOrder, AdmissionMode::OutOfOrder][v]),
            ),
            "TENSORFHE_BACKEND" => b.backend([ExecBackend::Sim, ExecBackend::HostParallel][v]),
            _ => b.rows_cap(v),
        }
    }

    /// Every variable × {valid, malformed, zero}, each against the
    /// builder call it stands for, plus "builder wins" per variable and
    /// the all-unset defaults. The host backend is in the base
    /// environment so the row cap shows in the drained work. The
    /// backend's malformed value is a name that no longer parses, so a
    /// stale setting fails loudly instead of falling back.
    #[test]
    fn every_variable_resolves_builder_then_env_then_default() {
        let base = [("TENSORFHE_BACKEND", "host-parallel")];
        // (variable, valid value, its `set` index, another `set` index,
        //  malformed value, whether "0" is legal)
        let table = [
            ("TENSORFHE_WORKERS", "3", 3, 2, "three", false),
            ("TENSORFHE_PIPELINE", "4", 4, 2, "deep", false),
            ("TENSORFHE_ADMISSION", "ooo", 1, 0, "fifo", false),
            ("TENSORFHE_BACKEND", "sim", 0, 1, "host-scalar", false),
            ("TENSORFHE_ROWS_CAP", "2", 2, 1, "all", true),
        ];
        for (var, valid, as_set, other, malformed, zero_ok) in table {
            // The row's variable overrides the base's (later entries win).
            let with = |v: &'static str| [base[0], (var, v)];
            let via_builder = |v| fingerprint(set(var, v), &base);
            assert_eq!(
                fingerprint(|b| b, &with(valid)),
                via_builder(as_set),
                "{var}"
            );
            let wins = fingerprint(set(var, other), &with(valid));
            assert_eq!(wins, via_builder(other), "{var}: builder wins");
            let err = fingerprint(|b| b, &with(malformed)).expect_err("malformed");
            assert!(
                matches!(&err, CoreError::InvalidConfig(m) if m.contains(var)),
                "{err}"
            );
            let zero = fingerprint(|b| b, &with("0"));
            match zero_ok {
                true => assert_eq!(zero, via_builder(0), "{var}=0"),
                false => assert!(matches!(zero, Err(CoreError::InvalidConfig(_))), "{var}=0"),
            }
        }
        let vram = EngineConfig::a100(Variant::TensorCore).device.vram_bytes();
        let cache = (vram as f64 * KEY_CACHE_VRAM_FRACTION) as u64;
        let defaults = (1, 1, AdmissionMode::InOrder, "sim", cache, None);
        assert_eq!(fingerprint(|b| b, &[]), Ok(defaults), "all unset");
    }
}
