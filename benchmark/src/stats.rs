//! Summary statistics shared by every phase: nearest-rank percentiles
//! (the definition E10 and E11 each carry a private copy of), the
//! "at least ten samples beyond" rule for tail percentiles, geometric
//! mean, and the process's peak resident set.

/// Sort a sample ascending. Latencies are finite by construction.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    v
}

/// Nearest-rank percentile of an ascending sample; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Median of an unsorted sample: the middle value, or the mean of the
/// two middle values. Unlike the nearest-rank p50 it does not lean to the
/// upper value on the small samples the probe phases produce.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A tail percentile is supported when at least ten samples lie beyond
/// it: p90 needs 100 samples, p95 needs 200, p99 needs 1000.
pub fn tail_supported(samples: usize, q: f64) -> bool {
    samples as f64 * (1.0 - q) >= 10.0 - 1e-9
}

/// Geometric mean; 0 for an empty sample or one holding a non-positive
/// value (a geomean over such a sample has no meaning).
pub fn geomean(v: &[f64]) -> f64 {
    if v.is_empty() || v.iter().any(|&x| x <= 0.0) {
        return 0.0;
    }
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

/// `part / whole`, and 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Parse the `VmHWM` line of a `/proc/<pid>/status` document into MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn vm_hwm_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = sorted(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.9), 5.0);
        assert_eq!(percentile(&s, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[9.0, 7.0, 8.0]), 8.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(99, 0.90));
        assert!(tail_supported(100, 0.90));
        assert!(tail_supported(1000, 0.99));
    }

    #[test]
    fn geomean_of_shape_medians() {
        assert!((geomean(&[100.0, 400.0]) - 200.0).abs() < 1e-9);
        assert!((geomean(&[2.0, 2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn vm_hwm_reads_the_status_line() {
        let status = "Name:\tbenchmark\nVmPeak:\t  999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(200.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert!(
            vm_hwm_mb().is_some_and(|mb| mb > 0.0),
            "this process has a peak RSS"
        );
    }
}
