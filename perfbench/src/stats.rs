//! Order statistics used by every reported timing.

/// The tail quantile of the bounded latency metric `cold_p90_ms`. On a
/// shared 2-vCPU guest the p99 of 4–15 ms jobs is set by how long the
/// hypervisor and co-tenants hold a virtual CPU: over sixteen
/// `serve_small` seeds its IQR/median was 0.30 (max/min 1.53), beyond a
/// 0.25 bound, against 0.11 (max/min 1.23) for p90. p99 stays in the
/// provenance line as context.
pub const TAIL_Q: f64 = 0.9;

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail quantile actually reported for a requested `target` (e.g.
/// 0.99): the highest quantile with at least ten samples beyond it,
/// `1 − 10/n`, capped at `target` and floored at the median (fewer than
/// twenty samples support no tail at all).
pub fn tail_quantile(n: usize, target: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).min(target).max(0.5)
}

/// A latency distribution summary: median, the tail quantile the
/// sample count supports, and the count itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which quantile `tail` is (see [`tail_quantile`]).
    pub tail_q: f64,
    /// Value at `tail_q`.
    pub tail: f64,
}

impl Summary {
    /// Summarizes `values` with the tail quantile capped at `target`.
    pub fn of(values: &[f64], target: f64) -> Summary {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_q = tail_quantile(sorted.len(), target);
        Summary {
            n: sorted.len(),
            p50: quantile_sorted(&sorted, 0.5),
            tail_q,
            tail: quantile_sorted(&sorted, tail_q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // Enough samples: the requested percentile itself.
        assert_eq!(tail_quantile(1000, 0.99), 0.99);
        assert_eq!(tail_quantile(5000, 0.99), 0.99);
        // Fewer: the highest quantile with ten samples beyond it.
        assert!((tail_quantile(200, 0.99) - 0.95).abs() < 1e-12);
        assert!((tail_quantile(40, 0.99) - 0.75).abs() < 1e-12);
        // Too few for any tail: the median.
        assert_eq!(tail_quantile(15, 0.99), 0.5);
        assert_eq!(tail_quantile(0, 0.99), 0.5);
        for n in [20usize, 37, 100, 999, 1000, 12345] {
            let q = tail_quantile(n, 0.99);
            assert!((1.0 - q) * n as f64 >= 10.0 - 1e-9, "n = {n}, q = {q}");
        }
    }

    #[test]
    fn summary_reports_count_and_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&values, 0.99);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        assert!((s.tail_q - 0.9).abs() < 1e-12);
        assert!((s.tail - 90.1).abs() < 1e-9);
    }
}
