//! The benchmark's own arithmetic: medians, quartiles, ratios and the
//! split of a run's wall time into set-up and per-iteration time. Kept
//! free of I/O so `tests/arith.rs` can pin every formula.

/// Median of `values` (mean of the two middle values for an even
/// count), as Python's `statistics.median` computes it. 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First, second and third quartile with Python's default
/// `statistics.quantiles(values, n=4)` ("exclusive" method). A single
/// value is its own quartiles; 0s when empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let ld = v.len() as i64;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        *slot = (v[j as usize - 1] * (4.0 - delta) + v[j as usize] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the spread the
/// benchmark's bounds are checked against. 0 when the median is 0.
pub fn iqr_share(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    ratio(q3 - q1, median(values))
}

/// `num / den`, defined as 0 when the base is 0 (nothing happened, so
/// nothing went wrong): e.g. a fallback ratio with no frames sent.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0
/// when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Milliseconds per coupled iteration: the run's wall time minus its
/// set-up, spread over the iterations.
pub fn iter_ms(wall_s: f64, setup_s: f64, iterations: u64) -> f64 {
    ratio((wall_s - setup_s).max(0.0) * 1e3, iterations as f64)
}

/// Relative change of `traced` over `base`, in percent (0 with no
/// base).
pub fn overhead_pct(traced: f64, base: f64) -> f64 {
    ratio(traced - base, base) * 100.0
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `iter_ms`.
    pub name: String,
    /// The measured value, all digits kept.
    pub value: f64,
    /// Unit, e.g. `ms`.
    pub unit: &'static str,
}

/// The result line the benchmark prints last.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (consumer gets + subscriber takes).
    pub attempted: u64,
    /// Operations that failed (a failed run fails all its operations).
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Append a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Render as one JSON object:
    /// `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}`.
    /// Non-finite values (which JSON cannot carry) render as 0.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&m.name),
                    json_num(v),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number: shortest round-trip digits, always with a fraction
/// or exponent so integral values still read as numbers.
fn json_num(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
