//! Output formats: the driver's one-line JSON result, and the plain
//! `metric` / `digest` lines the suite modes read back from child runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The driver's result object, on one line. Floats print with Rust's
/// shortest round-trip decimal form, so every measured digit survives.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Value]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("string write");
    }
    s.push_str("}}");
    s
}

/// `metric <name> <value> <unit>` — one per reported value.
#[must_use]
pub fn metric_line(m: &Value) -> String {
    format!("metric {} {} {}", m.name, m.value, m.unit)
}

/// `digest <name> <hex>` — values that must repeat bit for bit.
#[must_use]
pub fn digest_line(name: &str, digest: u64) -> String {
    format!("digest {name} {digest:#018x}")
}

/// What a suite mode keeps of one child run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct ChildReport {
    /// Metric name to (value, unit), as printed.
    pub metrics: BTreeMap<String, (f64, String)>,
    /// Digest name to value.
    pub digests: BTreeMap<String, u64>,
}

/// Reads the `metric` and `digest` lines back out of a child's stdout.
#[must_use]
pub fn parse_child(stdout: &str) -> ChildReport {
    let mut out = ChildReport::default();
    for line in stdout.lines() {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next(), f.next()) {
            (Some("metric"), Some(name), Some(value), Some(unit)) => {
                if let Ok(v) = value.parse::<f64>() {
                    out.metrics.insert(name.to_string(), (v, unit.to_string()));
                }
            }
            (Some("digest"), Some(name), Some(hex), None) => {
                if let Ok(d) = u64::from_str_radix(hex.trim_start_matches("0x"), 16) {
                    out.digests.insert(name.to_string(), d);
                }
            }
            _ => {}
        }
    }
    out
}

/// FNV-1a over 64-bit words: the digest behind `sim_digest` / `ct_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }

    /// Folds the bits of a float in.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Folds a string in, length first.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_json_has_the_contract_shape_and_every_digit() {
        let m = [
            Value {
                name: "round_ms_p50".into(),
                value: 22.980_000_000_000_004,
                unit: "ms".into(),
            },
            Value {
                name: "setup_s".into(),
                value: 0.8127,
                unit: "s".into(),
            },
        ];
        assert_eq!(
            result_json(true, 1000, 0, &m),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
             \"round_ms_p50\": {\"value\": 22.980000000000004, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert_eq!(
            result_json(false, 1, 1, &[]),
            "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}"
        );
    }

    #[test]
    fn child_lines_round_trip_bit_for_bit() {
        let v = Value {
            name: "sim_util".into(),
            value: 0.950_326_021_567_662_9,
            unit: "ratio".into(),
        };
        let text = format!(
            "workload svc_sim\n{}\n{}\nnot a metric line\n",
            metric_line(&v),
            digest_line("sim_digest", 0x00ab_cdef_0123_4567)
        );
        let got = parse_child(&text);
        assert_eq!(got.metrics["sim_util"].0.to_bits(), v.value.to_bits());
        assert_eq!(got.metrics["sim_util"].1, "ratio");
        assert_eq!(got.digests["sim_digest"], 0x00ab_cdef_0123_4567);
        assert_eq!(got.metrics.len() + got.digests.len(), 2);
    }

    #[test]
    fn fnv_separates_order_and_sign() {
        let digest = |xs: &[f64]| {
            let mut h = Fnv::default();
            xs.iter().for_each(|&x| h.float(x));
            h.0
        };
        assert_ne!(digest(&[1.0, 2.0]), digest(&[2.0, 1.0]));
        assert_ne!(digest(&[0.0]), digest(&[-0.0]));
        assert_eq!(digest(&[1.5]), digest(&[1.5]));
    }
}
