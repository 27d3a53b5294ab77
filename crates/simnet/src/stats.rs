//! Measurement series and table formatting shared by the benchmark
//! harnesses.
//!
//! The paper reports latency in microseconds and bandwidth in MB/s with
//! 1 MB = 1024 × 1024 bytes (§4.1); [`PingPoint::bandwidth_mbps`] follows
//! that convention.

use crate::nic::MB;
use crate::time::SimDuration;

/// One point of a ping-pong sweep: message size and one-way time.
#[derive(Clone, Copy, Debug)]
pub struct PingPoint {
    pub bytes: usize,
    /// Half round-trip time (the usual "latency" definition).
    pub one_way: SimDuration,
}

impl PingPoint {
    /// Latency in microseconds.
    pub fn latency_us(&self) -> f64 {
        self.one_way.as_micros_f64()
    }

    /// Bandwidth in the paper's MB/s (MB = 2^20 bytes).
    pub fn bandwidth_mbps(&self) -> f64 {
        if self.one_way.as_nanos() == 0 {
            return 0.0;
        }
        (self.bytes as f64 / MB as f64) / self.one_way.as_secs_f64()
    }
}

/// A named series of ping-pong points (one curve on a figure).
#[derive(Clone, Debug, Default)]
pub struct PingSeries {
    pub label: String,
    pub points: Vec<PingPoint>,
}

impl PingSeries {
    pub fn new(label: impl Into<String>) -> PingSeries {
        PingSeries {
            label: label.into(),
            points: Vec::new(),
        }
    }

    pub fn push(&mut self, bytes: usize, one_way: SimDuration) {
        self.points.push(PingPoint { bytes, one_way });
    }

    /// Latency at a given size, if that size was measured.
    pub fn latency_at(&self, bytes: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.bytes == bytes)
            .map(|p| p.latency_us())
    }

    /// Bandwidth at a given size, if measured.
    pub fn bandwidth_at(&self, bytes: usize) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.bytes == bytes)
            .map(|p| p.bandwidth_mbps())
    }

    /// Peak bandwidth over the sweep.
    pub fn peak_bandwidth(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.bandwidth_mbps())
            .fold(0.0, f64::max)
    }
}

/// Render several series as a latency table (rows = sizes, columns =
/// series), matching the paper's figure layout.
pub fn latency_table(series: &[PingSeries]) -> String {
    table(series, "Latency (usec)", |p| {
        format!("{:.3}", p.latency_us())
    })
}

/// Render several series as a bandwidth table.
pub fn bandwidth_table(series: &[PingSeries]) -> String {
    table(series, "Bandwidth (MBps)", |p| {
        format!("{:.1}", p.bandwidth_mbps())
    })
}

fn table(series: &[PingSeries], caption: &str, cell: impl Fn(&PingPoint) -> String) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {caption}\n"));
    out.push_str(&format!("{:>12}", "size(B)"));
    for s in series {
        out.push_str(&format!("  {:>28}", s.label));
    }
    out.push('\n');
    let sizes: Vec<usize> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.bytes).collect())
        .unwrap_or_default();
    for (i, size) in sizes.iter().enumerate() {
        out.push_str(&format!("{size:>12}"));
        for s in series {
            match s.points.get(i) {
                Some(p) if p.bytes == *size => out.push_str(&format!("  {:>28}", cell(p))),
                _ => out.push_str(&format!("  {:>28}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// Format a byte count the way the paper's axes do (1K, 4M, …).
pub fn human_bytes(bytes: usize) -> String {
    if bytes >= MB && bytes.is_multiple_of(MB) {
        format!("{}M", bytes / MB)
    } else if bytes >= 1024 && bytes.is_multiple_of(1024) {
        format!("{}K", bytes / 1024)
    } else {
        format!("{bytes}")
    }
}

/// Summary statistics over f64 samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::default();
        }
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        Summary { n, mean, min, max }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_uses_paper_mb() {
        // 1 MB in 1 ms -> 1000 MB/s with MB = 2^20.
        let p = PingPoint {
            bytes: MB,
            one_way: SimDuration::millis(1),
        };
        assert!((p.bandwidth_mbps() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn series_lookup() {
        let mut s = PingSeries::new("x");
        s.push(8, SimDuration::micros(2));
        s.push(MB, SimDuration::millis(1));
        assert_eq!(s.latency_at(8), Some(2.0));
        assert!(s.latency_at(9).is_none());
        assert!((s.bandwidth_at(MB).unwrap() - 1000.0).abs() < 1e-9);
        assert!((s.peak_bandwidth() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn tables_render_all_series() {
        let mut a = PingSeries::new("A");
        a.push(1, SimDuration::micros(1));
        let mut b = PingSeries::new("B");
        b.push(1, SimDuration::micros(2));
        let t = latency_table(&[a, b]);
        assert!(t.contains("A"));
        assert!(t.contains("B"));
        assert!(t.contains("1.000"));
        assert!(t.contains("2.000"));
    }

    #[test]
    fn human_bytes_formatting() {
        assert_eq!(human_bytes(512), "512");
        assert_eq!(human_bytes(4096), "4K");
        assert_eq!(human_bytes(4 * MB), "4M");
        assert_eq!(human_bytes(MB + 1), format!("{}", MB + 1));
    }

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        assert_eq!(s.n, 3);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn zero_time_bandwidth_is_zero() {
        let p = PingPoint {
            bytes: 1,
            one_way: SimDuration::ZERO,
        };
        assert_eq!(p.bandwidth_mbps(), 0.0);
    }
}
