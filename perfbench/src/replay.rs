//! Replay timings: public functions of single layers, timed on the
//! workload's own inputs outside the cluster.

use std::path::Path;
use std::time::Instant;

use psc_codec::frame::{encode_crc, FrameReassembler};
use psc_filter::FilterIndex;
use psc_net::FileWal;
use psc_simnet::WalOp;
use psc_telemetry::Registry;

use crate::stats::median_f64;
use crate::workload::{Input, SubSpec};
use crate::{metric, Metric};

/// Timing batches per function; the median batch is reported.
const BATCHES: usize = 9;

/// Median per-call time in ns of `op` over `calls` calls per batch.
fn time_ns(calls: usize, mut op: impl FnMut(usize)) -> f64 {
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                op(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median_f64(&mut batches)
}

/// Times the codec, framing, matching, WAL and telemetry functions on
/// `inputs` and one subscriber node's subscriptions `subs`; WAL files go
/// under `wal_dir`, which is removed afterwards.
pub fn run(inputs: &[Input], subs: &[SubSpec], wal_dir: &Path) -> Vec<Metric> {
    let encoded: Vec<Vec<u8>> = inputs.iter().map(Input::encode).collect();
    let n = inputs.len();
    let mut sink = 0u64;

    let encode_ns = time_ns(n, |i| sink += inputs[i].encode().len() as u64);
    let decode_ns = time_ns(n, |i| sink += inputs[i].decode_same(&encoded[i]));
    let mut framed = Vec::new();
    let frame_ns = time_ns(n, |i| {
        framed.clear();
        encode_crc(&encoded[i], &mut framed);
        let mut reassembler = FrameReassembler::new();
        reassembler.extend(&framed);
        sink += reassembler
            .next_frame()
            .expect("valid frame")
            .expect("whole frame")
            .len() as u64;
    });

    let mut index = FilterIndex::new();
    for sub in subs {
        index.insert(sub.filter.clone());
    }
    let index_match_ns = time_ns(n, |i| {
        sink += index.matching(inputs[i].source()).len() as u64
    });
    let scan_match_ns = time_ns(n, |i| {
        sink += subs.iter().filter(|s| inputs[i].matches(&s.filter)).count() as u64;
    });

    let (_, mut wal) = FileWal::open(wal_dir).expect("open replay WAL");
    let log = "ch/replay".to_string();
    let wal_calls = 16.min(n);
    let append_sync_ns = time_ns(wal_calls, |i| {
        let mut bytes = Vec::new();
        encode_crc(&encoded[i], &mut bytes);
        let ops = [
            WalOp::Append {
                log: log.clone(),
                bytes,
            },
            WalOp::Sync { log: log.clone() },
        ];
        wal.apply(&ops).expect("WAL append + sync");
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(wal_dir);

    let registry = Registry::new();
    let bump_ns = time_ns(4096, |_| registry.bump("perfbench.replay.bump", 1));
    sink += registry.snapshot().counter("perfbench.replay.bump");
    std::hint::black_box(sink);

    vec![
        metric("codec.encode_ns", "ns", encode_ns),
        metric("codec.decode_ns", "ns", decode_ns),
        metric("codec.frame_ns", "ns", frame_ns),
        metric("filter.index_match_ns", "ns", index_match_ns),
        metric("filter.scan_match_ns", "ns", scan_match_ns),
        metric("wal.append_sync_us", "us", append_sync_ns / 1e3),
        metric("telemetry.bump_ns", "ns", bump_ns),
    ]
}
