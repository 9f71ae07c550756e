//! The three workloads: their obvent classes, QoS, offered rates and
//! seeded input generators.
//!
//! Every input is a pure function of `(workload, seed)`; the cluster only
//! ever sees the generated obvents and subscriptions.

use psc_filter::{CmpOp, Predicate, PropertySource, RemoteFilter};
use psc_obvent::builtin::{Certified, Reliable};
use pubsub_core::obvent;

obvent! {
    /// A best-effort market quote (no QoS marker: DACE's direct path).
    pub class Quote { seq: u64, symbol: String, price: f64, size: u32 }
}

obvent! {
    /// A small reliable tick: the highest-rate, smallest obvent.
    pub class Tick implements [Reliable] { seq: u64, value: i64 }
}

obvent! {
    /// A certified payment with a memo of about 1 KiB (WAL-bound).
    pub class Payment implements [Certified] { seq: u64, account: u64, amount: i64, memo: String }
}

/// Sequence numbers with this bit set are readiness probes and warm-up
/// publishes: handlers note them and never record them as deliveries.
pub const PROBE_BIT: u64 = 1 << 63;

/// Symbol of the readiness-probe quotes; no workload filter gates on it.
pub const PROBE_SYMBOL: &str = "~probe";

/// The node every workload publishes from; the others are subscriber nodes.
pub const PUBLISHER: usize = 0;
/// Cluster size.
pub const NODES: usize = 3;

/// Number of quote symbols in `ticker-filtered`.
const SYMBOLS: u64 = 200;
/// Content filters per subscriber node in `ticker-filtered`.
const FILTERS_PER_NODE: u64 = 2000;
/// Width of each filter's price band, on a price range of `[0, 100)`: ten
/// filters per symbol per node at 15% each give ≈1.5 matches per quote
/// per node.
const BAND: f64 = 15.0;
/// Memo length of a `payments-certified` obvent.
const MEMO_BYTES: usize = 1000;

/// Which workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Best-effort quotes against ≈2000 content filters per node.
    TickerFiltered,
    /// Small reliable ticks, one accept-all subscription per node.
    TickerReliable,
    /// Certified payments with durable subscriptions and a real-disk WAL.
    PaymentsCertified,
}

impl Kind {
    /// Parses a workload name as `--workload` spells it.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "ticker-filtered" => Some(Kind::TickerFiltered),
            "ticker-reliable" => Some(Kind::TickerReliable),
            "payments-certified" => Some(Kind::PaymentsCertified),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TickerFiltered => "ticker-filtered",
            Kind::TickerReliable => "ticker-reliable",
            Kind::PaymentsCertified => "payments-certified",
        }
    }

    /// Open-loop offered rate, publishes per second.
    pub fn open_rate(self) -> f64 {
        match self {
            Kind::TickerFiltered => 150.0,
            Kind::TickerReliable => 2000.0,
            Kind::PaymentsCertified => 300.0,
        }
    }

    /// Closed-loop window: publishes not yet delivered to every subscriber.
    pub fn window(self) -> usize {
        match self {
            Kind::TickerFiltered => 32,
            Kind::TickerReliable => 32,
            Kind::PaymentsCertified => 16,
        }
    }

    /// Upper bound on the closed-loop rate the input pool is sized for
    /// (several times the knee; a run that exhausts the pool just ends
    /// its closed phase early).
    pub fn closed_rate_cap(self) -> f64 {
        match self {
            Kind::TickerFiltered => 5000.0,
            Kind::TickerReliable => 40000.0,
            Kind::PaymentsCertified => 6000.0,
        }
    }

    /// Whether the nodes keep a write-ahead log on disk.
    pub fn durable(self) -> bool {
        self == Kind::PaymentsCertified
    }
}

/// One publish of the generated input stream.
#[derive(Debug, Clone)]
pub enum Input {
    /// A best-effort quote.
    Quote(Quote),
    /// A reliable tick.
    Tick(Tick),
    /// A certified payment.
    Payment(Payment),
}

impl Input {
    /// The same payload re-stamped with sequence number `seq`.
    pub fn with_seq(&self, seq: u64) -> Input {
        match self {
            Input::Quote(q) => Input::Quote(Quote::new(
                seq,
                q.symbol().to_string(),
                *q.price(),
                *q.size(),
            )),
            Input::Tick(t) => Input::Tick(Tick::new(seq, *t.value())),
            Input::Payment(p) => Input::Payment(Payment::new(
                seq,
                *p.account(),
                *p.amount(),
                p.memo().to_string(),
            )),
        }
    }

    /// The obvent's properties, as filters read them.
    pub fn source(&self) -> &dyn PropertySource {
        match self {
            Input::Quote(q) => q,
            Input::Tick(t) => t,
            Input::Payment(p) => p,
        }
    }

    /// The naive reference match: does `filter` accept this obvent?
    pub fn matches(&self, filter: &RemoteFilter) -> bool {
        filter.matches(self.source())
    }

    /// Codec image of the obvent (what `Domain::publish` serializes).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Input::Quote(q) => psc_codec::to_bytes(q),
            Input::Tick(t) => psc_codec::to_bytes(t),
            Input::Payment(p) => psc_codec::to_bytes(p),
        }
        .expect("workload obvents encode")
    }

    /// Decodes a codec image of the same class (replay timing only).
    pub fn decode_same(&self, bytes: &[u8]) -> u64 {
        match self {
            Input::Quote(_) => *psc_codec::from_bytes::<Quote>(bytes).expect("decode").seq(),
            Input::Tick(_) => *psc_codec::from_bytes::<Tick>(bytes).expect("decode").seq(),
            Input::Payment(_) => *psc_codec::from_bytes::<Payment>(bytes)
                .expect("decode")
                .seq(),
        }
    }
}

/// One subscription: the node it lives on and its migratable filter
/// (`RemoteFilter::pass_all` for accept-all subscriptions).
#[derive(Debug, Clone)]
pub struct SubSpec {
    /// Hosting node.
    pub node: usize,
    /// Content filter.
    pub filter: RemoteFilter,
}

/// SplitMix64: a small, fully specified generator, so inputs depend on
/// the seed alone.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn symbol(i: u64) -> String {
    format!("S{i:03}")
}

/// Every subscription of the workload, in global index order. Readiness
/// probes are not part of this list.
pub fn subscriptions(kind: Kind, seed: u64) -> Vec<SubSpec> {
    let subscriber_nodes = (0..NODES).filter(|&n| n != PUBLISHER);
    match kind {
        Kind::TickerFiltered => {
            let mut rng = Rng::new(seed, 1);
            let mut subs = Vec::new();
            for node in subscriber_nodes {
                for i in 0..FILTERS_PER_NODE {
                    let lo = (rng.unit() * (100.0 - BAND) * 100.0).round() / 100.0;
                    let filter = RemoteFilter::conjunction(vec![
                        Predicate::new("symbol", CmpOp::Eq, symbol(i % SYMBOLS)),
                        Predicate::new("price", CmpOp::Ge, lo),
                        Predicate::new("price", CmpOp::Lt, lo + BAND),
                    ]);
                    subs.push(SubSpec { node, filter });
                }
            }
            subs
        }
        Kind::TickerReliable | Kind::PaymentsCertified => subscriber_nodes
            .map(|node| SubSpec {
                node,
                filter: RemoteFilter::pass_all(),
            })
            .collect(),
    }
}

/// The next obvent of a generated stream, with sequence number `seq`.
fn generate_one(kind: Kind, rng: &mut Rng, seq: u64) -> Input {
    match kind {
        Kind::TickerFiltered => Input::Quote(Quote::new(
            seq,
            symbol(rng.below(SYMBOLS)),
            (rng.unit() * 10_000.0).round() / 100.0,
            1 + rng.below(1000) as u32,
        )),
        Kind::TickerReliable => Input::Tick(Tick::new(seq, rng.next_u64() as i64 >> 16)),
        Kind::PaymentsCertified => {
            let memo: String = (0..MEMO_BYTES)
                .map(|_| (b'a' + rng.below(26) as u8) as char)
                .collect();
            Input::Payment(Payment::new(
                seq,
                rng.below(10_000),
                rng.below(1_000_000) as i64,
                memo,
            ))
        }
    }
}

/// `count` publishes with sequence numbers `0..count`.
pub fn inputs(kind: Kind, seed: u64, stream: u64, count: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, stream);
    (0..count as u64)
        .map(|seq| generate_one(kind, &mut rng, seq))
        .collect()
}

/// The distinct obvent contents a run draws its publishes from. Publishes
/// repeat contents (re-stamped with their own sequence number), which
/// keeps the naive oracle's cost and the input memory independent of the
/// run's length; nothing in the stack caches by content.
pub fn universe(kind: Kind, seed: u64) -> Vec<Input> {
    let size = match kind {
        Kind::TickerFiltered => 2048,
        Kind::TickerReliable | Kind::PaymentsCertified => 1024,
    };
    inputs(kind, seed, 2, size)
}

/// For each of `len` publishes, the index of its content in a universe
/// of `universe_len` entries.
pub fn stream(seed: u64, stream: u64, len: usize, universe_len: usize) -> Vec<u32> {
    let mut rng = Rng::new(seed, stream);
    (0..len)
        .map(|_| rng.below(universe_len as u64) as u32)
        .collect()
}

/// A readiness-probe obvent: reaches each subscriber node through the
/// workload's own channel, but no workload subscription records it.
pub fn probe(kind: Kind, n: u64) -> Input {
    let seq = PROBE_BIT | n;
    match kind {
        Kind::TickerFiltered => Input::Quote(Quote::new(seq, PROBE_SYMBOL.to_string(), 0.0, 0)),
        Kind::TickerReliable => Input::Tick(Tick::new(seq, 0)),
        Kind::PaymentsCertified => Input::Payment(Payment::new(seq, 0, 0, String::new())),
    }
}

/// The filter of the per-node probe subscription, for workloads whose
/// subscriptions would not accept a probe.
pub fn probe_filter(kind: Kind) -> Option<RemoteFilter> {
    match kind {
        Kind::TickerFiltered => Some(RemoteFilter::conjunction(vec![Predicate::new(
            "symbol",
            CmpOp::Eq,
            PROBE_SYMBOL,
        )])),
        Kind::TickerReliable | Kind::PaymentsCertified => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_depend_on_the_seed_alone() {
        let a = inputs(Kind::TickerFiltered, 7, 2, 50);
        let b = inputs(Kind::TickerFiltered, 7, 2, 50);
        let c = inputs(Kind::TickerFiltered, 8, 2, 50);
        assert_eq!(
            a.iter().map(Input::encode).collect::<Vec<_>>(),
            b.iter().map(Input::encode).collect::<Vec<_>>()
        );
        assert_ne!(
            a.iter().map(Input::encode).collect::<Vec<_>>(),
            c.iter().map(Input::encode).collect::<Vec<_>>()
        );
    }

    #[test]
    fn filtered_quotes_match_one_or_two_filters_per_node_on_average() {
        let subs = subscriptions(Kind::TickerFiltered, 3);
        let quotes = inputs(Kind::TickerFiltered, 3, 2, 400);
        let matches: usize = quotes
            .iter()
            .map(|q| {
                subs.iter()
                    .filter(|s| s.node == 1 && q.matches(&s.filter))
                    .count()
            })
            .sum();
        let per_quote = matches as f64 / quotes.len() as f64;
        assert!(
            (1.0..2.0).contains(&per_quote),
            "{per_quote} matches per quote per node"
        );
    }

    #[test]
    fn probes_match_no_workload_filter() {
        let subs = subscriptions(Kind::TickerFiltered, 3);
        let probe = probe(Kind::TickerFiltered, 0);
        assert!(subs.iter().all(|s| !probe.matches(&s.filter)));
        assert!(probe.matches(&probe_filter(Kind::TickerFiltered).unwrap()));
    }
}
