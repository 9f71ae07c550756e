//! Real-wire pub/sub load benchmark.
//!
//! Drives one workload through 3-node DACE clusters — three
//! `psc_net::DaceEndpoint`s in this process, meshed over loopback TCP —
//! from a single generator thread publishing on node 0. A run is twenty
//! rounds, each on a fresh cluster:
//!
//! 1. set-up: endpoints, mesh, subscriptions, and a readiness probe that
//!    must reach every subscriber node;
//! 2. an open loop at the workload's fixed rate, latency timed from each
//!    publish's due time to handler entry;
//! 3. a closed loop with a fixed window of publishes not yet delivered to
//!    every subscriber, for capacity.
//!
//! Before each round's set-up the host's thread hand-off round trip is
//! timed; the gated latency and throughput are expressed in that unit, so
//! most of the host's speed drift between runs cancels out of them.
//!
//! Every delivery is checked against the naive-match oracle. With
//! `--trace 1` the run also turns on global telemetry and the benchmark's
//! own spans and prints the per-layer metrics instead of the end-to-end
//! ones.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--withhold <n>]`. `--withhold n` drops the n-th recorded delivery, to
//! show the oracle failing the run.

mod cluster;
mod host;
mod oracle;
mod replay;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cluster::{publish, Cluster, Recorder};
use oracle::{Delivery, Verdict};
use stats::{
    median_f64, median_i64, ns_to_us, percentile, quantile_f64, slice, slice_quantile, INF,
};
use workload::{Input, Kind, SubSpec, NODES, PROBE_BIT};

/// Rounds per run. Each round sets up its own cluster (`setup_s` is the
/// median set-up) and measures a share of both phases on it, so no single
/// cluster's thread placement sets a figure: closed-loop throughput of
/// single clusters spreads ±20% within a run.
const ROUNDS: usize = 20;
/// Warm-up before the measured phases (probe-marked publishes).
const WARMUP: Duration = Duration::from_millis(200);
/// How long to wait for a phase's last deliveries.
const DRAIN: Duration = Duration::from_secs(5);
/// A drain also ends when no publish has completed for this long: a lost
/// delivery then costs each of the run's forty drains this, not `DRAIN`.
const QUIET: Duration = Duration::from_millis(500);
/// Extra wait after the last phase, for late duplicates.
const SETTLE: Duration = Duration::from_millis(100);
/// Inputs replayed through single layers in the traced run.
const REPLAY_INPUTS: usize = 256;
/// Length of one slice of a phase; latency and throughput are quantiles
/// over slices. DACE's default 200 ms re-announcement period, so every
/// slice holds one announce storm.
const SLICE: Duration = Duration::from_millis(200);
/// Which quantile over slices `lat_p50_us` reports: the lower quartile of
/// the slices' p50. On a shared host, contention episodes of seconds to
/// minutes slow a varying share of a run, often more than half of it; a
/// change that slows every publish still moves this figure fully.
const LAT_ACROSS: f64 = 0.25;
/// Which quantile over slices `tput_dps` reports: the upper quartile of
/// the slices' closed-loop rates, for the same reason.
const TPUT_ACROSS: f64 = 0.75;
/// Round trips per measurement of the host's thread hand-off time.
const HANDOFF_TRIPS: u32 = 1000;
/// Longest run accepted; the input stream is sized from `--seconds`.
const MAX_SECONDS: u64 = 600;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
    withhold: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut withhold = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.clamp(1, MAX_SECONDS)),
            "--trace" => trace = Some(number()? != 0),
            "--withhold" => withhold = number()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        withhold,
    })
}

/// Sleeps until `t`, finishing with short yields so the wake-up is close.
/// A sleep overshoots by up to the kernel's 50 µs timer slack, so it ends
/// 100 µs early and the yields cover the rest.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::thread::yield_now();
        }
    }
}

/// The benchmark's own spans around one publish, ns since the clock base:
/// `with_domain` call, closure start, `Domain::publish` return,
/// `with_domain` return.
type Span = [u64; 4];

/// The generator: publishes the generated stream through node 0.
struct Generator<'a> {
    recorder: &'a Arc<Recorder>,
    universe: &'a [Input],
    /// Per sequence number, the index of its content in `universe`.
    stream: &'a [u32],
    /// Due time per sequence number (open loop: schedule; closed: send).
    due_ns: Vec<u64>,
    /// Which sequence numbers were published.
    sent: Vec<bool>,
    spans: Vec<Span>,
    tracing: bool,
    published: u64,
    errors: u64,
}

impl Generator<'_> {
    fn input(&self, seq: usize) -> Input {
        self.universe[self.stream[seq] as usize].with_seq(seq as u64)
    }

    fn publish_one(&mut self, cluster: &Cluster, seq: usize, input: Input) {
        self.recorder.window().on_publish(seq);
        self.sent[seq] = true;
        self.published += 1;
        let publisher = cluster.publisher();
        let t_call = self.recorder.now_ns();
        let ok = if self.tracing {
            let rec = Arc::clone(self.recorder);
            let (ok, t_start, t_published) = publisher.with_domain(move |domain| {
                let t_start = rec.now_ns();
                let ok = publish(domain, input).is_ok();
                (ok, t_start, rec.now_ns())
            });
            self.spans[seq] = [t_call, t_start, t_published, self.recorder.now_ns()];
            ok
        } else {
            publisher.with_domain(move |domain| publish(domain, input).is_ok())
        };
        if !ok {
            self.errors += 1;
        }
    }

    /// Publishes `seqs` at `rate` per second; returns each publish's
    /// lateness (call time − due time) in ns.
    fn open_loop(&mut self, cluster: &Cluster, seqs: Range<usize>, rate: f64) -> Vec<u64> {
        let mut lateness = Vec::with_capacity(seqs.len());
        let start = self.recorder.now_ns() + 1_000_000;
        for (i, seq) in seqs.enumerate() {
            let input = self.input(seq);
            let due = start + (i as f64 * 1e9 / rate) as u64;
            wait_until(self.recorder.instant(due));
            self.due_ns[seq] = due;
            lateness.push(self.recorder.now_ns().saturating_sub(due));
            self.publish_one(cluster, seq, input);
        }
        lateness
    }

    /// Publishes `seqs` in order, keeping at most `window` publishes
    /// undelivered, for `length`; returns the measured interval in ns and
    /// the sequence numbers published.
    fn closed_loop(
        &mut self,
        cluster: &Cluster,
        seqs: Range<usize>,
        window: usize,
        length: Duration,
    ) -> (Range<u64>, Range<usize>) {
        let begin = self.recorder.now_ns();
        let deadline = self.recorder.instant(begin) + length;
        let mut seq = seqs.start;
        while seq < seqs.end {
            let input = self.input(seq);
            if !self
                .recorder
                .wait_for_room(self.published, window, deadline)
                || Instant::now() >= deadline
            {
                break;
            }
            self.due_ns[seq] = self.recorder.now_ns();
            self.publish_one(cluster, seq, input);
            seq += 1;
        }
        (begin..self.recorder.now_ns(), seqs.start..seq)
    }

    /// Waits until every publish so far is delivered everywhere, for at
    /// most `DRAIN`, and at most `QUIET` without progress.
    fn drain(&self) {
        let deadline = Instant::now() + DRAIN;
        let (mut done, mut progress_at) = (self.recorder.window().completed(), Instant::now());
        while done < self.published && Instant::now() < deadline && progress_at.elapsed() < QUIET {
            std::thread::sleep(Duration::from_millis(1));
            let now_done = self.recorder.window().completed();
            if now_done != done {
                (done, progress_at) = (now_done, Instant::now());
            }
        }
    }

    /// Probe-marked copies of real inputs at the open rate: warms every
    /// layer without being recorded.
    fn warm_up(&self, cluster: &Cluster, length: Duration, rate: f64) {
        let start = Instant::now();
        let count = (rate * length.as_secs_f64()) as usize;
        for i in 0..count {
            let input =
                self.universe[i % self.universe.len()].with_seq(PROBE_BIT | (1 << 40) | i as u64);
            wait_until(start + Duration::from_secs_f64(i as f64 / rate));
            cluster
                .publisher()
                .with_domain(move |domain| publish(domain, input))
                .expect("warm-up publish");
        }
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// Every counter of every endpoint's registry plus the global registry.
fn counters(cluster: &Cluster) -> BTreeMap<String, u64> {
    let mut all = BTreeMap::new();
    let snapshots = cluster.endpoints().iter().map(|e| e.metrics());
    for snapshot in snapshots.chain([psc_telemetry::global().snapshot()]) {
        for (name, value) in snapshot.counters {
            *all.entry(name).or_insert(0) += value;
        }
    }
    all
}

/// Counter deltas, summed over the traced phases of every round.
#[derive(Default)]
struct Deltas(BTreeMap<String, u64>);

impl Deltas {
    /// Adds the growth between two [`counters`] readings.
    fn add(&mut self, before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>) {
        for (name, &v) in after {
            *self.0.entry(name.clone()).or_insert(0) += v - before.get(name).copied().unwrap_or(0);
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    /// Sum over `group.<protocol>.<suffix>` for every protocol.
    fn group(&self, suffix: &str) -> u64 {
        self.0
            .iter()
            .filter(|(name, _)| name.starts_with("group.") && name.ends_with(suffix))
            .map(|(_, &v)| v)
            .sum()
    }
}

/// Latency samples (ns, [`INF`] for misses) of the expected pairs of the
/// publishes in `phases`, sorted, and the same samples cut into `slices`
/// slices per phase by due order.
fn latencies(
    verdict: &Verdict,
    due_ns: &[u64],
    phases: &[Range<usize>],
    slices: usize,
) -> (Vec<u64>, Vec<Vec<u64>>) {
    let mut all = Vec::new();
    let mut sliced = Vec::new();
    for seqs in phases {
        let samples: Vec<(u64, u64)> = seqs
            .clone()
            .flat_map(|seq| {
                let slot = (seq - seqs.start) as u64;
                verdict.arrivals[seq].iter().map(move |&t| {
                    (
                        slot,
                        if t == INF {
                            INF
                        } else {
                            t.saturating_sub(due_ns[seq])
                        },
                    )
                })
            })
            .collect();
        all.extend(samples.iter().map(|&(_, v)| v));
        sliced.extend(slice(samples, seqs.len() as u64, slices));
    }
    all.sort_unstable();
    (all, sliced)
}

/// A named metric of the result line.
pub(crate) struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

pub(crate) fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

fn ratio(numerator: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        numerator as f64 / base as f64
    }
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

fn percentile_us(sorted: &[u64], q: f64) -> f64 {
    percentile(sorted, q).map_or(f64::NAN, ns_to_us)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            std::process::exit(2);
        }
    };
    std::process::exit(run(&args));
}

/// The sequence numbers and measured interval of each round's phases.
#[derive(Default)]
struct Phases {
    open: Vec<Range<usize>>,
    traced_open: Vec<Range<usize>>,
    closed: Vec<(Range<u64>, Range<usize>)>,
}

fn run(args: &Args) -> i32 {
    let kind = args.kind;
    let phase = Duration::from_secs_f64(args.seconds as f64 / 2.0 / ROUNDS as f64);
    let open_count = (kind.open_rate() * phase.as_secs_f64()).round() as usize;
    let open_phases = if args.trace { 2 } else { 1 };
    let closed_cap = (kind.closed_rate_cap() * phase.as_secs_f64()).round() as usize;
    let block = open_count * open_phases + closed_cap;

    // Inputs, the oracle's expected deliveries, and every sample buffer
    // are made before the first endpoint starts.
    let subs: Vec<SubSpec> = workload::subscriptions(kind, args.seed);
    let universe = workload::universe(kind, args.seed);
    let stream = workload::stream(args.seed, 3, block * ROUNDS, universe.len());
    let by_content = oracle::expected(&universe, &subs);
    let expected: Vec<&[u32]> = stream
        .iter()
        .map(|&u| by_content[u as usize].as_slice())
        .collect();
    let mut capacity = vec![1024; NODES];
    for sub in expected.iter().copied().flatten() {
        capacity[subs[*sub as usize].node] += 1;
    }
    let recorder = Arc::new(Recorder::new(
        expected.iter().map(|e| e.len() as u32),
        &capacity,
        args.withhold,
    ));
    let mut generator = Generator {
        recorder: &recorder,
        universe: &universe,
        stream: &stream,
        due_ns: vec![0; stream.len()],
        sent: vec![false; stream.len()],
        spans: vec![[0; 4]; if args.trace { stream.len() } else { 0 }],
        tracing: false,
        published: 0,
        errors: 0,
    };
    let tmp_root = PathBuf::from(".perfbench_tmp").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp_root).expect("create the run's temp directory");
    let fingerprint = host::fingerprint(&tmp_root);

    let mut setup_s = Vec::with_capacity(ROUNDS);
    let mut phases = Phases::default();
    let mut lateness = Vec::new();
    let mut deltas = Deltas::default();
    let mut peak_rss_mb = None;
    // CPU time of the cluster's threads over the untraced open loops.
    let mut open_cpu_ns = 0;
    let mut open_wall = Duration::ZERO;
    let steal_before = host::steal_ticks();
    let mut handoff_us = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        // The host's speed, measured with no cluster running.
        handoff_us.push(host::handoff_round_trip_us(HANDOFF_TRIPS));
        let wal_root = kind
            .durable()
            .then(|| tmp_root.join(format!("wal-{round}")));
        let start = Instant::now();
        let cluster = Cluster::start(kind, &subs, &recorder, wal_root.as_deref());
        setup_s.push(start.elapsed().as_secs_f64());
        let base = round * block;
        generator.warm_up(&cluster, WARMUP, kind.open_rate());

        // Untraced open loop (the end-to-end latency), then, in a traced
        // run, the same open loop again with telemetry and spans on.
        let open = base..base + open_count;
        let (cpu_before, wall_before) = (host::cluster_cpu_ns(), Instant::now());
        lateness.extend(generator.open_loop(&cluster, open.clone(), kind.open_rate()));
        generator.drain();
        open_cpu_ns += host::cluster_cpu_ns().saturating_sub(cpu_before);
        open_wall += wall_before.elapsed();
        // Memory after one cluster and a fixed traffic volume: the closed
        // loop's volume depends on the throughput reached.
        peak_rss_mb.get_or_insert_with(host::peak_rss_mb);
        phases.open.push(open);
        let before = args.trace.then(|| counters(&cluster));
        if args.trace {
            psc_telemetry::set_global_enabled(true);
            generator.tracing = true;
            let traced = base + open_count..base + 2 * open_count;
            generator.open_loop(&cluster, traced.clone(), kind.open_rate());
            generator.drain();
            phases.traced_open.push(traced);
        }
        let closed = base + open_count * open_phases..base + block;
        phases
            .closed
            .push(generator.closed_loop(&cluster, closed, kind.window(), phase));
        generator.drain();
        std::thread::sleep(SETTLE);
        if let Some(before) = before {
            deltas.add(&before, &counters(&cluster));
            psc_telemetry::set_global_enabled(false);
            generator.tracing = false;
        }
        cluster.shutdown();
    }
    let steal_after = host::steal_ticks();
    let Generator {
        due_ns,
        sent,
        spans,
        errors,
        ..
    } = generator;

    // The oracle, over the publishes actually made.
    let made: Vec<&[u32]> = expected
        .iter()
        .zip(&sent)
        .map(|(&e, &s)| if s { e } else { &[] })
        .collect();
    let mut deliveries: Vec<Delivery> = recorder.take_deliveries();
    let verdict = oracle::check(&made, &mut deliveries);
    let failed = verdict.failures() + errors;
    let correct = failed == 0;
    let attempted = verdict.expected.max(1);

    let slices = ((phase.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(2);
    let (open_lat, open_slices) = latencies(&verdict, &due_ns, &phases.open, slices);
    let slices_us = |q: f64, across: f64| {
        slice_quantile(&open_slices, q, across).map_or(f64::NAN, |ns| ns / 1e3)
    };
    let lat_p50_us = slices_us(50.0, LAT_ACROSS);
    // Closed-loop deliveries per slice of each round's measured interval.
    let mut slice_rates = Vec::new();
    let mut round_rates = Vec::new();
    let (mut closed_deliveries, mut closed_ns, mut closed_pubs) = (0, 0, 0);
    for (interval, seqs) in &phases.closed {
        let length = interval.end - interval.start;
        let in_closed: Vec<(u64, u64)> = deliveries
            .iter()
            .filter(|d| seqs.contains(&(d.seq as usize)) && interval.contains(&d.t_ns))
            .map(|d| (d.t_ns - interval.start, 1))
            .collect();
        closed_deliveries += in_closed.len();
        closed_ns += length;
        closed_pubs += seqs.len();
        round_rates.push((in_closed.len() as f64 / (length as f64 / 1e9)).round());
        let seconds = length as f64 / 1e9 / slices as f64;
        slice_rates.extend(
            slice(in_closed, length, slices)
                .iter()
                .map(|s| s.len() as f64 / seconds),
        );
    }
    let tput_dps = quantile_f64(&mut slice_rates.clone(), TPUT_ACROSS);
    let open_pubs = phases.open.iter().map(Range::len).sum::<usize>();
    let cpu_us_per_pub = open_cpu_ns as f64 / 1e3 / open_pubs.max(1) as f64;
    let mut late = lateness;
    late.sort_unstable();
    let setup_median = median_f64(&mut setup_s.clone());
    let handoff = median_f64(&mut handoff_us.clone());
    let peak_rss_mb = peak_rss_mb.expect("at least one round");

    println!(
        "# workload {} seed {} seconds {} trace {}",
        kind.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    println!("# host {fingerprint}");
    println!(
        "# setup_s samples {:?} median {setup_median:.4}",
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<_>>()
    );
    println!(
        "# open loop: {ROUNDS} rounds x {open_count} publishes at {}/s; lat_us over all p50 {:.1} p90 {:.1} p99 {:.1} \
         p999 {:.1} (n={}); over {} slices: lower quartile of p50 {lat_p50_us:.1}, median of p50 {:.1}, \
         median of p90 {:.1}",
        kind.open_rate(),
        percentile_us(&open_lat, 50.0),
        percentile_us(&open_lat, 90.0),
        percentile_us(&open_lat, 99.0),
        percentile_us(&open_lat, 99.9),
        open_lat.len(),
        open_slices.len(),
        slices_us(50.0, 0.5),
        slices_us(90.0, 0.5)
    );
    let per_slice = |q: f64| -> Vec<f64> {
        open_slices
            .iter()
            .map(|s| (percentile_us(s, q) * 10.0).round() / 10.0)
            .collect()
    };
    println!(
        "# open-loop slices lat_us p50 {:?} p90 {:?}",
        per_slice(50.0),
        per_slice(90.0)
    );
    println!(
        "# generator lateness_us p99 {:.1} max {:.1} (n={})",
        percentile_us(&late, 99.0),
        percentile_us(&late, 100.0),
        late.len()
    );
    println!(
        "# closed loop: window {}, {closed_pubs} publishes, {closed_deliveries} deliveries in {:.3}s = {:.1}/s overall; \
         over {} slices: upper quartile {tput_dps:.1}/s, median {:.1}/s",
        kind.window(),
        closed_ns as f64 / 1e9,
        closed_deliveries as f64 / (closed_ns as f64 / 1e9),
        slice_rates.len(),
        median_f64(&mut slice_rates.clone())
    );
    println!("# closed-loop deliveries/s per round {round_rates:?}");
    println!(
        "# closed-loop slices deliveries/s {:?}",
        slice_rates.iter().map(|r| r.round()).collect::<Vec<_>>()
    );
    let (steal, total) = (
        steal_after.0 - steal_before.0,
        steal_after.1 - steal_before.1,
    );
    println!(
        "# cpu: cluster threads {:.3}s over {:.3}s of open loop = {:.3} cores, {cpu_us_per_pub:.1} us per publish \
         (n={open_pubs}); host steal {:.1}% of CPU time during the run",
        open_cpu_ns as f64 / 1e9,
        open_wall.as_secs_f64(),
        open_cpu_ns as f64 / 1e9 / open_wall.as_secs_f64(),
        100.0 * ratio(steal, total)
    );
    println!(
        "# host hand-off round trip: median {handoff:.3} us over {ROUNDS} rounds, min {:.3} max {:.3}; \
         lat_p50_us {lat_p50_us:.3} = {:.4} hand-offs; tput_dps {tput_dps:.1} = {:.5} per hand-off",
        quantile_f64(&mut handoff_us.clone(), 0.0),
        quantile_f64(&mut handoff_us.clone(), 1.0),
        lat_p50_us / handoff,
        tput_dps * handoff / 1e6
    );
    println!(
        "# oracle: expected {} missing {} duplicate {} unexpected {} publish_errors {} failed_ratio {}",
        verdict.expected,
        verdict.missing,
        verdict.duplicates,
        verdict.unexpected,
        errors,
        ratio(failed, verdict.expected)
    );

    let metrics = if args.trace {
        let (traced_lat, _) = latencies(&verdict, &due_ns, &phases.traced_open, slices);
        let overhead_us = percentile_us(&traced_lat, 50.0) - percentile_us(&open_lat, 50.0);
        println!(
            "# tracing overhead: lat_p50_us traced {:.1} - untraced {:.1} = {overhead_us:.1}",
            percentile_us(&traced_lat, 50.0),
            percentile_us(&open_lat, 50.0)
        );
        let layers = Layers {
            kind,
            subs: &subs,
            universe: &universe,
            verdict: &verdict,
            deliveries: &deliveries,
        };
        layers.metrics(&tmp_root, &spans, &deltas, &phases, overhead_us)
    } else {
        vec![
            metric("lat_p50_handoffs", "handoffs", lat_p50_us / handoff),
            metric("tput_per_handoff", "1/handoff", tput_dps * handoff / 1e6),
            metric("peak_rss_mb", "MiB", peak_rss_mb),
            metric("setup_s", "s", setup_median),
        ]
    };
    let _ = std::fs::remove_dir_all(&tmp_root);
    let _ = std::fs::remove_dir(tmp_root.parent().unwrap_or(Path::new(".")));

    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        0
    } else {
        eprintln!("perfbench: delivery oracle failed ({failed} of {attempted})");
        1
    }
}

/// What the traced run's per-layer metrics are computed from.
struct Layers<'a> {
    kind: Kind,
    subs: &'a [SubSpec],
    universe: &'a [Input],
    verdict: &'a Verdict,
    deliveries: &'a [Delivery],
}

impl Layers<'_> {
    /// Span medians over the traced open loop, counter deltas over the
    /// traced phases, and replay timings.
    fn metrics(
        &self,
        tmp_root: &Path,
        spans: &[Span],
        deltas: &Deltas,
        phases: &Phases,
        overhead_us: f64,
    ) -> Vec<Metric> {
        let traced_open = || phases.traced_open.iter().flat_map(Range::clone);
        let us = |ns: Option<i64>| ns.map_or(f64::NAN, |ns| ns as f64 / 1e3);
        let span_p50 = |from: usize, to: usize| {
            us(median_i64(
                &mut traced_open()
                    .map(|s| spans[s][to] as i64 - spans[s][from] as i64)
                    .collect::<Vec<_>>(),
            ))
        };
        let mut downstream: Vec<i64> = traced_open()
            .flat_map(|seq| {
                let t_return = spans[seq][3] as i64;
                self.verdict.arrivals[seq]
                    .iter()
                    .filter(|&&t| t != INF)
                    .map(move |&t| t as i64 - t_return)
            })
            .collect();

        // Subscriptions the subscriber domains evaluated: every active
        // subscription of a node (its probe subscription included) per
        // obvent that reached the node.
        let traced = |seq: u32| {
            let seq = seq as usize;
            phases
                .traced_open
                .iter()
                .chain(phases.closed.iter().map(|(_, seqs)| seqs))
                .any(|r| r.contains(&seq))
        };
        let mut reached: Vec<(u32, usize)> = self
            .deliveries
            .iter()
            .filter(|d| traced(d.seq))
            // A probe subscription's stray delivery has no index here; the
            // oracle already counts it as unexpected.
            .filter_map(|d| Some((d.seq, self.subs.get(d.sub as usize)?.node)))
            .collect();
        reached.sort_unstable();
        reached.dedup();
        let probe_subs = u64::from(workload::probe_filter(self.kind).is_some());
        let evaluated: u64 = reached
            .iter()
            .map(|&(_, node)| {
                self.subs.iter().filter(|s| s.node == node).count() as u64 + probe_subs
            })
            .sum();

        let pubs = (traced_open().count()
            + phases
                .closed
                .iter()
                .map(|(_, seqs)| seqs.len())
                .sum::<usize>()) as u64;
        let per_pub = |name: &str| ratio(deltas.get(name), pubs);
        let hits = deltas.get("codec.pool.hits");
        let mut metrics = vec![
            metric("base.publishes", "count", pubs as f64),
            metric("trace.overhead_p50_us", "us", overhead_us),
            metric("net.act_wait_us", "us", span_p50(0, 1)),
            metric("core.publish_us", "us", span_p50(1, 2)),
            metric("dace.flush_us", "us", span_p50(2, 3)),
            metric("path.downstream_us", "us", us(median_i64(&mut downstream))),
            metric("net.msgs_per_pub", "count", per_pub("net.msgs_sent")),
            metric("net.bytes_per_pub", "B", per_pub("net.bytes_sent")),
            metric(
                "net.backpressure_waits",
                "count",
                deltas.get("net.backpressure_waits") as f64,
            ),
            metric(
                "net.queue_dropped",
                "count",
                deltas.get("net.queue.dropped") as f64,
            ),
            metric("codec.encodes_per_pub", "count", per_pub("codec.encodes")),
            metric("codec.bytes_per_pub", "B", per_pub("codec.encode_bytes")),
            metric(
                "codec.pool_hit_ratio",
                "ratio",
                ratio(hits, hits + deltas.get("codec.pool.misses")),
            ),
            metric(
                "filter.probes_per_pub",
                "count",
                per_pub("filter.index.probes"),
            ),
            metric(
                "filter.candidates_per_pub",
                "count",
                per_pub("filter.index.candidates"),
            ),
            metric("core.subs_evaluated", "count", evaluated as f64),
            metric(
                "core.scan_ratio",
                "ratio",
                ratio(deltas.get("core.matched"), evaluated),
            ),
            metric("dace.direct_per_pub", "count", per_pub("dace.direct_sent")),
            metric(
                "dace.control_msgs",
                "count",
                deltas.get("dace.control_sent") as f64,
            ),
            metric(
                "group.relays_per_pub",
                "count",
                ratio(deltas.group(".relays"), pubs),
            ),
            metric(
                "group.acks_per_pub",
                "count",
                ratio(deltas.group(".acks_sent"), pubs),
            ),
            metric(
                "group.retransmits_per_pub",
                "count",
                ratio(deltas.group(".retransmits"), pubs),
            ),
            metric(
                "group.duplicates_per_pub",
                "count",
                ratio(deltas.group(".duplicates"), pubs),
            ),
            metric("wal.appends_per_pub", "count", per_pub("wal.appends")),
            metric("wal.syncs_per_pub", "count", per_pub("wal.syncs")),
            metric("wal.bytes_per_pub", "B", per_pub("wal.bytes")),
        ];
        let replay_inputs = &self.universe[..REPLAY_INPUTS.min(self.universe.len())];
        let node = Cluster::subscriber_nodes()[0];
        let node_subs: Vec<SubSpec> = self
            .subs
            .iter()
            .filter(|s| s.node == node)
            .cloned()
            .collect();
        metrics.extend(replay::run(
            replay_inputs,
            &node_subs,
            &tmp_root.join("replay-wal"),
        ));
        for m in &metrics {
            println!("# {} = {} {}", m.name, m.value, m.unit);
        }
        metrics
    }
}
