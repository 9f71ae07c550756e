//! Percentiles over samples that may contain misses, and the closed-loop
//! window.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// A sample that never arrived: sorts after every real latency.
pub const INF: u64 = u64::MAX;

/// Nearest-rank percentile `q` (0..=100) of `sorted` (ascending). Misses
/// are [`INF`] samples and stay infinite; `None` when empty.
pub fn percentile(sorted: &[u64], q: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of signed samples (spans that may cross clocks of two threads);
/// `None` when empty.
pub fn median_i64(values: &mut [i64]) -> Option<i64> {
    if values.is_empty() {
        return None;
    }
    values.sort_unstable();
    Some(values[(values.len() - 1) / 2])
}

/// Median of a few floats (set-up repeats, replay batches).
pub fn median_f64(values: &mut [f64]) -> f64 {
    quantile_f64(values, 0.5)
}

/// Quantile `p` (0..=1) of `values`, interpolating linearly between the
/// two nearest ranks; infinite values sort last and stay infinite.
pub fn quantile_f64(values: &mut [f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    values.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    if frac == 0.0 {
        values[lo]
    } else {
        values[lo] + (values[lo + 1] - values[lo]) * frac
    }
}

/// Splits `samples` (`(slot, value)` with `slot` in `0..span`) into
/// `slices` equal slot ranges and returns each slice's values, sorted.
pub fn slice(
    samples: impl IntoIterator<Item = (u64, u64)>,
    span: u64,
    slices: usize,
) -> Vec<Vec<u64>> {
    let mut out = vec![Vec::new(); slices];
    for (slot, value) in samples {
        let i = (slot as u128 * slices as u128 / span.max(1) as u128) as usize;
        out[i.min(slices - 1)].push(value);
    }
    for values in &mut out {
        values.sort_unstable();
    }
    out
}

/// Quantile `across` (0..=1), over the non-empty slices, of each slice's
/// percentile `q`. A stall that hits fewer slices than `across` leaves
/// below it moves the figure little; a change that slows every slice
/// moves it fully.
pub fn slice_quantile(slices: &[Vec<u64>], q: f64, across: f64) -> Option<f64> {
    let mut per_slice: Vec<f64> = slices
        .iter()
        .filter_map(|s| percentile(s, q))
        .map(|v| if v == INF { f64::INFINITY } else { v as f64 })
        .collect();
    (!per_slice.is_empty()).then(|| quantile_f64(&mut per_slice, across))
}

/// Nanoseconds to microseconds, keeping infinity infinite.
pub fn ns_to_us(ns: u64) -> f64 {
    if ns == INF {
        f64::INFINITY
    } else {
        ns as f64 / 1e3
    }
}

/// The closed-loop window: tracks, per publish, how many expected
/// deliveries are still outstanding, and how many publishes have been
/// delivered to every subscriber.
pub struct Window {
    remaining: Vec<AtomicU32>,
    completed: AtomicU64,
}

impl Window {
    /// A window over publishes whose expected delivery counts are `expected`.
    pub fn new(expected: impl IntoIterator<Item = u32>) -> Window {
        Window {
            remaining: expected.into_iter().map(AtomicU32::new).collect(),
            completed: AtomicU64::new(0),
        }
    }

    /// Marks a publish as sent, before it is; a publish nobody should
    /// receive completes right away. Returns whether it completed.
    pub fn on_publish(&self, seq: usize) -> bool {
        if self.remaining[seq].load(Ordering::Acquire) == 0 {
            self.completed.fetch_add(1, Ordering::AcqRel);
            return true;
        }
        false
    }

    /// Counts one delivery of `seq`. Returns true when this delivery was
    /// the publish's last outstanding one. Duplicates and deliveries past
    /// zero never complete a publish twice (the oracle reports them).
    pub fn on_delivery(&self, seq: usize) -> bool {
        let Some(cell) = self.remaining.get(seq) else {
            return false;
        };
        let prev = cell.fetch_update(Ordering::AcqRel, Ordering::Acquire, |r| r.checked_sub(1));
        if prev == Ok(1) {
            self.completed.fetch_add(1, Ordering::AcqRel);
            return true;
        }
        false
    }

    /// Publishes delivered to every subscriber so far.
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Acquire)
    }

    /// Publishes sent but not yet delivered everywhere, given `published`
    /// publishes so far.
    pub fn outstanding(&self, published: u64) -> u64 {
        published.saturating_sub(self.completed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50));
        assert_eq!(percentile(&samples, 90.0), Some(90));
        assert_eq!(percentile(&samples, 99.9), Some(100));
        assert_eq!(percentile(&samples, 0.0), Some(1));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 99.0), Some(7));
    }

    #[test]
    fn misses_push_the_tail_to_infinity() {
        let mut samples: Vec<u64> = (1..=9).collect();
        samples.push(INF);
        samples.sort_unstable();
        assert_eq!(percentile(&samples, 50.0), Some(5));
        assert_eq!(percentile(&samples, 90.0), Some(9));
        assert_eq!(percentile(&samples, 99.0), Some(INF));
        assert!(ns_to_us(INF).is_infinite());
        assert_eq!(ns_to_us(1500), 1.5);
    }

    #[test]
    fn slices_and_their_quantiles() {
        // Ten slots per slice; slice 2 stalls.
        let samples = (0..40u64).map(|slot| {
            (
                slot,
                if slot / 10 == 2 {
                    1000 + slot
                } else {
                    slot % 10
                },
            )
        });
        let slices = slice(samples, 40, 4);
        assert_eq!(slices.iter().map(Vec::len).collect::<Vec<_>>(), vec![10; 4]);
        assert_eq!(slices[1], (0..10).collect::<Vec<_>>());
        assert_eq!(
            slice_quantile(&slices, 50.0, 0.5),
            Some(4.0),
            "the stalled slice barely moves the median"
        );
        assert_eq!(
            slice_quantile(&slices, 50.0, 0.25),
            Some(4.0),
            "nor the lower quartile"
        );
        assert_eq!(slice_quantile(&slices, 50.0, 1.0), Some(1024.0));
        assert_eq!(
            slice_quantile(&[vec![1, INF], vec![2, INF], vec![3]], 90.0, 0.5),
            Some(f64::INFINITY)
        );
        assert_eq!(slice_quantile(&[vec![], vec![]], 50.0, 0.5), None);
        assert_eq!(
            slice([(99, 1)], 10, 2)[1],
            vec![1],
            "slots past the span land in the last slice"
        );
    }

    #[test]
    fn medians() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile_f64(&mut [4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile_f64(&mut [1.0, 2.0], 0.75), 1.75);
        assert_eq!(quantile_f64(&mut [1.0, 2.0, f64::INFINITY], 0.5), 2.0);
        assert!(quantile_f64(&mut [1.0, 2.0, f64::INFINITY], 0.75).is_infinite());
        assert_eq!(median_i64(&mut [5, -1, 3]), Some(3));
        assert_eq!(median_i64(&mut []), None);
    }

    #[test]
    fn window_completes_each_publish_once() {
        let window = Window::new([2, 0, 1]);
        assert!(!window.on_publish(0));
        assert!(
            window.on_publish(1),
            "a publish nobody should receive completes at once"
        );
        assert!(!window.on_publish(2));
        assert_eq!(window.outstanding(3), 2);
        assert!(!window.on_delivery(0));
        assert!(window.on_delivery(0));
        assert!(!window.on_delivery(0), "a duplicate never completes twice");
        assert!(window.on_delivery(2));
        assert!(
            !window.on_delivery(1),
            "an unexpected delivery completes nothing"
        );
        assert!(
            !window.on_delivery(99),
            "out-of-range sequence numbers are ignored"
        );
        assert_eq!(window.completed(), 3);
        assert_eq!(window.outstanding(3), 0);
    }
}
