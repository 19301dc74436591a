//! The result line and summary statistics.

use crate::host::peak_rss_mb;
use std::fmt::Write as _;

/// Named metrics with units, in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        assert!(
            self.0.iter().all(|(n, ..)| *n != name),
            "metric {name} reported twice"
        );
        self.0.push((name, value, unit));
    }

    /// Human-readable lines, one per metric.
    pub fn print(&self) {
        for (name, value, unit) in &self.0 {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
    }

    /// The one-line JSON result. Values print with every digit Rust's
    /// shortest round-trip formatting gives.
    pub fn result_line(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut s = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        s.push_str("}}");
        s
    }
}

/// The end-to-end figures every workload reports, whatever its shape.
pub struct EndToEnd {
    /// Seconds per set-up (generate, import, warm up), one per set-up.
    pub setup_s: Vec<f64>,
    /// Host milliseconds per user operation.
    pub query_ms: Vec<f64>,
    /// Operations completed per host CPU second of the timed phase.
    pub host_qps: f64,
    /// Simulated seconds per operation, over the deterministic prefix.
    pub sim_s: Vec<f64>,
    pub sim_max_rate_qps: f64,
    pub ingest_mb_s: f64,
    /// Operations completed without an error or an admission rejection,
    /// as a share of those attempted.
    pub ok_frac: f64,
    pub bytes_per_user_byte: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        m.put("setup_s", median(&self.setup_s), "s");
        m.put("query_p50_ms", percentile(&self.query_ms, 50.0), "ms");
        m.put("query_p99_ms", percentile(&self.query_ms, 99.0), "ms");
        m.put("host_qps", self.host_qps, "1/s");
        m.put("sim_p50_s", percentile(&self.sim_s, 50.0), "s");
        m.put("sim_p99_s", percentile(&self.sim_s, 99.0), "s");
        m.put("sim_max_rate_qps", self.sim_max_rate_qps, "1/s");
        m.put("ingest_mb_s", self.ingest_mb_s, "MB/s");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        m.put("ok_frac", self.ok_frac, "ratio");
        m.put("bytes_per_user_byte", self.bytes_per_user_byte, "ratio");
        m
    }
}

/// Median of a sample (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100), the rule the service
/// report uses for its tenant percentiles.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 990.0);
        assert_eq!(percentile(&xs, 50.0), 500.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        m.put("latency_ms", 1.25, "ms");
        assert_eq!(
            m.result_line(true, 3, 0),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
