//! Sample summaries and the result line.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Quantile `q` of `values` by linear interpolation between closest ranks
/// (the usual "type 7" definition). `None` for an empty set.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn ms_between(from: Instant, to: Instant) -> f64 {
    ms(to.saturating_duration_since(from))
}

/// Run `f` `times` times and return the median wall time in seconds. Every
/// run but the last is handed to `discard` (torn down); the last result is
/// kept for the timed phase.
pub fn median_setup<T>(
    times: usize,
    mut f: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut kept = None;
    for i in 0..times.max(1) {
        let t = Instant::now();
        let value = f()?;
        secs.push(t.elapsed().as_secs_f64());
        if i + 1 < times.max(1) {
            discard(value);
        } else {
            kept = Some(value);
        }
    }
    Ok((kept.expect("at least one set-up"), median(&secs)))
}

/// One named metric with its unit, plus the within-run samples it was
/// summarised from (for the provenance line).
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

/// Everything a run reports: the contract's result line plus provenance.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Checks of outputs that did not hold (journals, matrices, counts).
    pub wrong: u64,
    metrics: Vec<Metric>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// A metric whose value is one number (a count, a ratio, a set-up time).
    pub fn value(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value, samples: Vec::new() });
    }

    /// A per-layer metric (its unit comes from the layer table).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.value(name, crate::layer_unit(name), value);
    }

    /// A metric summarised as the median of its within-run samples.
    pub fn median_of(&mut self, name: &'static str, unit: &'static str, samples: &[f64]) {
        self.metrics.push(Metric { name, unit, value: median(samples), samples: samples.to_vec() });
    }

    /// A metric summarised as quantile `q` of its within-run samples.
    pub fn quantile_of(&mut self, name: &'static str, unit: &'static str, samples: &[f64], q: f64) {
        self.metrics.push(Metric {
            name,
            unit,
            value: quantile(samples, q).unwrap_or(0.0),
            samples: samples.to_vec(),
        });
    }

    /// A provenance note (printed before the result line).
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Keep only the named metrics, in that order. Every name must be
    /// present: a missing metric is a bug in the workload.
    pub fn select(&mut self, names: &[&str]) -> Result<(), String> {
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let pos = self
                .metrics
                .iter()
                .position(|m| m.name == *name)
                .ok_or_else(|| format!("workload did not produce metric {name}"))?;
            out.push(self.metrics.swap_remove(pos));
        }
        self.metrics = out;
        Ok(())
    }

    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.attempted > 0
    }

    /// The provenance line: run facts plus, per metric, the sample count,
    /// quartiles and median it was summarised from.
    pub fn provenance_json(&self) -> String {
        let mut out = String::from("{\"provenance\":{");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{}\":\"{}\"", escape(k), escape(v));
        }
        out.push_str("},\"samples\":{");
        let mut first = true;
        for m in self.metrics.iter().filter(|m| !m.samples.is_empty()) {
            let q = |p| quantile(&m.samples, p).unwrap_or(0.0);
            let sep = if first { "" } else { "," };
            first = false;
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"n\":{},\"p25\":{},\"p50\":{},\"p75\":{},\"unit\":\"{}\"}}",
                m.name,
                m.samples.len(),
                num(q(0.25)),
                num(q(0.5)),
                num(q(0.75)),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// The contract's result line (must be the last line of stdout).
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut r = Report { attempted: 3, ..Report::default() };
        r.median_of("latency_ms", "ms", &[1.0, 2.0, 3.0]);
        r.value("setup_s", "s", 0.5);
        r.select(&["setup_s", "latency_ms"]).unwrap();
        assert_eq!(
            r.result_json(),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\
             \"latency_ms\":{\"value\":2.0,\"unit\":\"ms\"}}}"
        );
        assert!(r.select(&["missing"]).is_err());
    }
}
