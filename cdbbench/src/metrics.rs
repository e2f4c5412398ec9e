//! Statistics, host measurements and the result line.

use std::fmt::Write as _;
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, matching `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit (`ms`, `s`, `count`, ...).
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        }
    }
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// 0-based index of the nearest-rank `q`-quantile in a sorted sample of
/// `n` values.
pub fn rank_index(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank quantile (`values` need not be sorted); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank_index(v.len(), q)]
}

/// Nearest-rank median; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over the sorted tuple renderings of a relation, so the hash
/// does not depend on tuple order.
pub fn relation_hash(rel: &cqa::core::HRelation) -> u64 {
    let mut rows: Vec<String> = rel
        .tuples()
        .iter()
        .map(|t| t.display(rel.schema()).to_string())
        .collect();
    rows.sort_unstable();
    let mut text = rel.schema().to_string();
    for row in rows {
        text.push('\n');
        text.push_str(&row);
    }
    cqa::obs::fnv1a(text.as_bytes())
}

/// Milliseconds a fixed loop of integer mixing and sorting takes; the
/// median of five runs. It measures the host, not the program, and tells
/// a slow phase of the host from a slower program.
pub fn calib_ms() -> f64 {
    let mut times = Vec::with_capacity(5);
    for round in 0..5u64 {
        let t = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ round;
        let mut v: Vec<u64> = (0..400_000u64)
            .map(|i| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
                x ^ (x >> 29)
            })
            .collect();
        v.sort_unstable();
        std::hint::black_box(&v);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// Resets the process's peak-RSS mark to its current RSS (Linux).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size in MiB since the last reset (Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
        assert!(m.value.is_finite(), "metric {} is not finite", m.name);
        let sep = if i == 0 { "" } else { ", " };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(median(&[]), 0.0);
        // 100 samples leave exactly 10 beyond p90.
        assert_eq!(100 - 1 - rank_index(100, 0.9), 10);
    }

    #[test]
    fn names_are_checked() {
        assert!(valid_name("op.join.self_ms"));
        assert!(valid_name("class.x_only.p50_ms"));
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("setup_s", 0.25, "s")]);
        let parsed = cqa::obs::json::parse(&line).expect("valid JSON");
        let cqa::obs::json::Json::Obj(fields) = parsed else {
            panic!("an object")
        };
        let keys: Vec<_> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    }
}
