//! The delivery oracle: which subscription must receive which publish,
//! and how the cluster's deliveries compare.
//!
//! The reference is the naive one: every subscription's
//! `RemoteFilter::matches` evaluated against every generated obvent. The
//! cluster must deliver each (publish, subscription) pair in that set
//! exactly once and nothing else.

use crate::stats::INF;
use crate::workload::{Input, SubSpec};

/// One handler entry as the benchmark recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Delivery {
    /// Publish sequence number.
    pub seq: u32,
    /// Global subscription index.
    pub sub: u32,
    /// Handler-entry time, ns since the run's clock base.
    pub t_ns: u64,
}

/// Per input, the sorted global indices of the subscriptions that must
/// receive it. The inputs are split across two threads.
pub fn expected(inputs: &[Input], subs: &[SubSpec]) -> Vec<Vec<u32>> {
    let matching = |input: &Input| -> Vec<u32> {
        subs.iter()
            .enumerate()
            .filter(|(_, s)| input.matches(&s.filter))
            .map(|(i, _)| i as u32)
            .collect()
    };
    let (first, second) = inputs.split_at(inputs.len() / 2);
    std::thread::scope(|scope| {
        let head = scope.spawn(|| first.iter().map(matching).collect::<Vec<_>>());
        let tail: Vec<Vec<u32>> = second.iter().map(matching).collect();
        let mut all = head.join().expect("oracle thread");
        all.extend(tail);
        all
    })
}

/// The comparison of recorded deliveries against the expected set.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Expected (publish, subscription) pairs.
    pub expected: u64,
    /// Expected pairs never delivered.
    pub missing: u64,
    /// Extra deliveries of an expected pair.
    pub duplicates: u64,
    /// Deliveries of a pair that was not expected at all.
    pub unexpected: u64,
    /// Per publish, the first arrival time of each expected pair
    /// (aligned with `expected[seq]`), [`INF`] when missing.
    pub arrivals: Vec<Vec<u64>>,
}

impl Verdict {
    /// Missing + duplicate + unexpected deliveries.
    pub fn failures(&self) -> u64 {
        self.missing + self.duplicates + self.unexpected
    }
}

/// Compares `deliveries` against `expected`: per publish, the sorted
/// subscriptions that must receive it (empty for a sequence number never
/// published). Sorts `deliveries` in place.
pub fn check<E: AsRef<[u32]>>(expected: &[E], deliveries: &mut [Delivery]) -> Verdict {
    deliveries.sort_unstable();
    let mut verdict = Verdict {
        expected: expected.iter().map(|e| e.as_ref().len() as u64).sum(),
        arrivals: expected
            .iter()
            .map(|e| vec![INF; e.as_ref().len()])
            .collect(),
        ..Verdict::default()
    };
    let mut i = 0;
    while i < deliveries.len() {
        let Delivery { seq, sub, t_ns } = deliveries[i];
        let mut j = i + 1;
        while j < deliveries.len() && deliveries[j].seq == seq && deliveries[j].sub == sub {
            j += 1;
        }
        let count = (j - i) as u64;
        let slot = expected
            .get(seq as usize)
            .and_then(|subs| subs.as_ref().binary_search(&sub).ok());
        match slot {
            Some(k) => {
                verdict.arrivals[seq as usize][k] = t_ns; // sorted: the first arrival
                verdict.duplicates += count - 1;
            }
            None => verdict.unexpected += count,
        }
        i = j;
    }
    verdict.missing = verdict
        .arrivals
        .iter()
        .flatten()
        .filter(|&&t| t == INF)
        .count() as u64;
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{inputs, subscriptions, Kind};

    fn d(seq: u32, sub: u32, t_ns: u64) -> Delivery {
        Delivery { seq, sub, t_ns }
    }

    #[test]
    fn exact_delivery_passes() {
        let expected = vec![vec![0, 1], vec![], vec![1]];
        let mut got = vec![d(2, 1, 30), d(0, 1, 12), d(0, 0, 10)];
        let verdict = check(&expected, &mut got);
        assert_eq!(verdict.failures(), 0);
        assert_eq!(verdict.expected, 3);
        assert_eq!(verdict.arrivals, vec![vec![10, 12], vec![], vec![30]]);
    }

    #[test]
    fn withheld_duplicate_and_stray_deliveries_are_counted() {
        let expected = vec![vec![0, 1], vec![2]];
        let mut got = vec![d(0, 0, 10), d(0, 0, 5), d(0, 2, 7), d(1, 2, 9), d(5, 0, 1)];
        let verdict = check(&expected, &mut got);
        assert_eq!(verdict.missing, 1, "(0, 1) was withheld");
        assert_eq!(verdict.duplicates, 1);
        assert_eq!(
            verdict.unexpected, 2,
            "(0, 2) was not expected and seq 5 was never published"
        );
        assert_eq!(
            verdict.arrivals[0],
            vec![5, INF],
            "the first arrival counts; the miss is infinite"
        );
        assert_eq!(verdict.failures(), 4);
    }

    #[test]
    fn unpublished_sequence_numbers_expect_nothing() {
        let expected = vec![vec![0], vec![]];
        let mut got = vec![d(0, 0, 1), d(1, 0, 2)];
        let verdict = check(&expected, &mut got);
        assert_eq!(verdict.expected, 1);
        assert_eq!(verdict.unexpected, 1);
    }

    #[test]
    fn expected_set_is_the_naive_match() {
        let subs = subscriptions(Kind::TickerFiltered, 11);
        let quotes = inputs(Kind::TickerFiltered, 11, 2, 20);
        let exp = expected(&quotes, &subs);
        for (quote, want) in quotes.iter().zip(&exp) {
            for (i, sub) in subs.iter().enumerate() {
                assert_eq!(want.contains(&(i as u32)), quote.matches(&sub.filter));
            }
        }
        let ticks = inputs(Kind::TickerReliable, 11, 2, 5);
        let exp = expected(&ticks, &subscriptions(Kind::TickerReliable, 11));
        assert!(
            exp.iter().all(|e| e == &vec![0, 1]),
            "accept-all: both subscriber nodes"
        );
    }
}
