//! What a workload hands back, and the two ways it is printed: a
//! human-readable table naming every metric with its unit and sample
//! basis, and the one-line JSON result the benchmark ends with.

use std::fmt::Write as _;

/// One measured figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The figure's own name, e.g. `chaos.seeds_per_s`.
    pub name: String,
    /// The `BENCHMARK.json` end-to-end key it is reported under in the
    /// JSON result, when it is one of the shared end-to-end metrics.
    pub key: Option<&'static str>,
    /// The value, as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Sample count and how the value was formed.
    pub basis: String,
}

impl Metric {
    /// A figure reported only under its own name.
    pub fn new(
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        basis: impl Into<String>,
    ) -> Metric {
        Metric {
            name: name.into(),
            key: None,
            value,
            unit,
            basis: basis.into(),
        }
    }

    /// Also report this figure under the shared end-to-end `key`.
    pub fn as_key(mut self, key: &'static str) -> Metric {
        self.key = Some(key);
        self
    }
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (seeds, cell runs or searches).
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Correctness failures that are not tied to one operation
    /// (determinism re-runs, traced-run mismatches, unsupported
    /// percentiles).
    pub problems: Vec<String>,
    /// Every figure measured.
    pub metrics: Vec<Metric>,
    /// Exact values that are not numbers (digests), shown in the table
    /// only.
    pub notes: Vec<String>,
}

impl Outcome {
    /// True when every operation and every cross-check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Fold another outcome (another workload of the same run) in.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }

    /// Add a metric.
    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    /// Record a correctness failure.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }
}

/// The human-readable table: one line per metric, then any problems.
pub fn render(title: &str, out: &Outcome) -> String {
    let mut s = format!("== {title}\n");
    for m in &out.metrics {
        let name = match m.key {
            Some(key) => format!("{} [{key}]", m.name),
            None => m.name.clone(),
        };
        let _ = writeln!(
            s,
            "  {name:<50} {:>16} {:<6} {}",
            fmt_value(m.value),
            m.unit,
            m.basis
        );
    }
    for n in &out.notes {
        let _ = writeln!(s, "  {n}");
    }
    let _ = writeln!(
        s,
        "  attempted {} failed {} -> {}",
        out.attempted,
        out.failed,
        if out.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for p in &out.problems {
        let _ = writeln!(s, "  problem: {p}");
    }
    s
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// The result line. With `keyed`, only metrics carrying a shared
/// end-to-end key are included, under that key; otherwise every metric
/// under its own name. A non-finite value is a correctness failure (the
/// JSON cannot carry it), so it flips `correct` rather than being
/// printed.
pub fn json_line(out: &Outcome, keyed: bool) -> String {
    let mut correct = out.correct();
    let mut fields = Vec::new();
    for m in &out.metrics {
        let name = if keyed {
            match m.key {
                Some(k) => k,
                None => continue,
            }
        } else {
            m.name.as_str()
        };
        if !m.value.is_finite() {
            correct = false;
            continue;
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            m.value,
            quote(m.unit)
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    )
}

fn quote(s: &str) -> String {
    let mut q = String::with_capacity(s.len() + 2);
    q.push('"');
    for c in s.chars() {
        match c {
            '"' => q.push_str("\\\""),
            '\\' => q.push_str("\\\\"),
            c => q.push(c),
        }
    }
    q.push('"');
    q
}

/// Peak resident memory of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_keys_shared_metrics_and_flags_non_finite_values() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.push(Metric::new("chaos.seeds_per_s", 12.5, "1/s", "n=3").as_key("throughput_per_s"));
        out.push(Metric::new("chaos.only_here", 1.0, "count", "n=3"));
        assert_eq!(
            json_line(&out, true),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"throughput_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
        assert!(json_line(&out, false).contains("\"chaos.only_here\""));
        out.push(Metric::new("bad", f64::NAN, "s", "n=0"));
        assert!(json_line(&out, false).starts_with("{\"correct\": false"));
    }
}
