//! Order statistics and the controller's counters as read over its
//! `StatsJsonQuery` RPC.

use std::collections::HashMap;

/// Nearest-rank quantile of `v` (sorted in place); 0 for no samples.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Counter values from one JSONL snapshot: `{"metric":"…","type":"counter","value":N}`
/// per line (gauges and histograms are skipped).
pub fn counters(snapshot: &str) -> HashMap<String, f64> {
    snapshot
        .lines()
        .filter(|l| l.contains("\"type\":\"counter\""))
        .filter_map(|l| Some((string_field(l, "metric")?, number_field(l, "value")?)))
        .collect()
}

fn string_field(line: &str, key: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_string())
}

fn number_field(line: &str, key: &str) -> Option<f64> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let len = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..len].trim().parse().ok()
}

/// Counter growth, summed over pairs of snapshots.
#[derive(Default)]
pub struct Delta(HashMap<String, f64>);

impl Delta {
    /// Add the growth from snapshot `before` to snapshot `after`.
    pub fn add(&mut self, before: &str, after: &str) {
        let before = counters(before);
        for (name, v) in counters(after) {
            let grew = v - before.get(&name).copied().unwrap_or(0.0);
            *self.0.entry(name).or_default() += grew;
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let mut v = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.2), 1.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    #[test]
    fn counter_lines_parse() {
        let a = "{\"metric\":\"x_total\",\"type\":\"counter\",\"value\":3}\n\
                 {\"metric\":\"h\",\"type\":\"histogram\",\"count\":2,\"sum\":1}\n";
        let b = "{\"metric\":\"x_total\",\"type\":\"counter\",\"value\":10}\n";
        let mut d = Delta::default();
        d.add(a, b);
        assert_eq!(d.get("x_total"), 7.0);
        assert_eq!(d.get("h"), 0.0);
        d.add(a, b);
        assert_eq!(d.get("x_total"), 14.0);
    }
}
