//! The 3-node loopback cluster, the recorder its handlers write into, and
//! the readiness probe that ends set-up.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

use psc_dace::DaceConfig;
use psc_filter::RemoteFilter;
use psc_net::{DaceEndpoint, NetConfig};
use psc_obvent::Obvent;
use psc_simnet::NodeId;
use pubsub_core::{Domain, FilterSpec, PublishError};

use crate::oracle::Delivery;
use crate::stats::Window;
use crate::workload::{
    self, Input, Kind, Payment, Quote, SubSpec, Tick, NODES, PROBE_BIT, PUBLISHER,
};

/// Durable ids of `payments-certified` subscriptions start here.
const DURABLE_BASE: u64 = 1000;
/// Poll interval of the set-up waits.
const POLL: Duration = Duration::from_micros(100);
/// Readiness probes are re-published this often until one lands everywhere.
const PROBE_EVERY: Duration = Duration::from_millis(1);

/// Where the subscription handlers record, and what the generator waits on.
/// Every buffer is allocated before the first endpoint starts.
pub struct Recorder {
    base: Instant,
    logs: Vec<Mutex<Vec<Delivery>>>,
    probe_seen: Vec<AtomicBool>,
    window: Window,
    waiting: AtomicBool,
    generator: Mutex<Option<Thread>>,
    /// Drop the n-th recorded delivery (0: never) — proves the oracle fires.
    withhold: u64,
    recorded: AtomicU64,
}

impl Recorder {
    /// A recorder for publishes expecting `expected` deliveries each, with
    /// room for `capacity[node]` deliveries per node.
    pub fn new(
        expected: impl IntoIterator<Item = u32>,
        capacity: &[usize],
        withhold: u64,
    ) -> Recorder {
        Recorder {
            base: Instant::now(),
            logs: capacity
                .iter()
                .map(|&c| Mutex::new(Vec::with_capacity(c)))
                .collect(),
            probe_seen: (0..NODES).map(|_| AtomicBool::new(false)).collect(),
            window: Window::new(expected),
            waiting: AtomicBool::new(false),
            generator: Mutex::new(None),
            withhold,
            recorded: AtomicU64::new(0),
        }
    }

    /// Nanoseconds since the recorder was made.
    pub fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// The instant `ns` nanoseconds after the clock base.
    pub fn instant(&self, ns: u64) -> Instant {
        self.base + Duration::from_nanos(ns)
    }

    /// The closed-loop window.
    pub fn window(&self) -> &Window {
        &self.window
    }

    fn on_delivery(&self, node: usize, sub: u32, seq: u64) {
        if seq & PROBE_BIT != 0 {
            self.probe_seen[node].store(true, Ordering::Release);
            return;
        }
        let n = self.recorded.fetch_add(1, Ordering::Relaxed) + 1;
        if n == self.withhold {
            return;
        }
        let t_ns = self.now_ns();
        self.logs[node]
            .lock()
            .expect("log poisoned")
            .push(Delivery {
                seq: seq as u32,
                sub,
                t_ns,
            });
        if self.window.on_delivery(seq as usize) && self.waiting.load(Ordering::Acquire) {
            if let Some(thread) = self.generator.lock().expect("generator poisoned").as_ref() {
                thread.unpark();
            }
        }
    }

    /// Blocks the generator until the window has room for another publish
    /// (`published` so far), or until `deadline`. Returns false on timeout.
    pub fn wait_for_room(&self, published: u64, window: usize, deadline: Instant) -> bool {
        *self.generator.lock().expect("generator poisoned") = Some(std::thread::current());
        loop {
            if self.window.outstanding(published) < window as u64 {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.waiting.store(true, Ordering::Release);
            if self.window.outstanding(published) >= window as u64 {
                std::thread::park_timeout((deadline - now).min(Duration::from_millis(2)));
            }
            self.waiting.store(false, Ordering::Release);
        }
    }

    /// Moves every recorded delivery out.
    pub fn take_deliveries(&self) -> Vec<Delivery> {
        let mut all = Vec::new();
        for log in &self.logs {
            all.append(&mut log.lock().expect("log poisoned"));
        }
        all
    }

    fn probes_reached(&self, nodes: &[usize]) -> bool {
        nodes
            .iter()
            .all(|&n| self.probe_seen[n].load(Ordering::Acquire))
    }

    fn reset_probes(&self) {
        for seen in &self.probe_seen {
            seen.store(false, Ordering::Release);
        }
    }
}

/// The workload classes' sequence numbers, for the shared handler.
trait Sequenced: Obvent {
    fn sequence(&self) -> u64;
}

impl Sequenced for Quote {
    fn sequence(&self) -> u64 {
        *self.seq()
    }
}

impl Sequenced for Tick {
    fn sequence(&self) -> u64 {
        *self.seq()
    }
}

impl Sequenced for Payment {
    fn sequence(&self) -> u64 {
        *self.seq()
    }
}

/// Publishes one generated obvent through the domain.
pub fn publish(domain: &Domain, input: Input) -> Result<(), PublishError> {
    match input {
        Input::Quote(q) => domain.publish(q),
        Input::Tick(t) => domain.publish(t),
        Input::Payment(p) => domain.publish(p),
    }
}

/// Subscribes one node's share of the workload, then its probe
/// subscription (last, so a probe that arrives proves the earlier
/// subscriptions' control floods landed first).
fn subscribe_node<O: Sequenced>(
    domain: &Domain,
    recorder: &Arc<Recorder>,
    node: usize,
    subs: Vec<(u32, RemoteFilter)>,
    durable: bool,
    probe: Option<RemoteFilter>,
) {
    for (idx, filter) in subs {
        let rec = Arc::clone(recorder);
        let spec = if filter.is_pass_all() {
            FilterSpec::accept_all()
        } else {
            FilterSpec::remote(filter)
        };
        let sub = domain.subscribe(spec, move |o: O| rec.on_delivery(node, idx, o.sequence()));
        if durable {
            sub.activate_with_id(DURABLE_BASE + idx as u64)
        } else {
            sub.activate()
        }
        .expect("activate subscription");
        sub.detach();
    }
    if let Some(filter) = probe {
        let rec = Arc::clone(recorder);
        let sub = domain.subscribe(FilterSpec::remote(filter), move |o: O| {
            rec.on_delivery(node, u32::MAX, o.sequence())
        });
        sub.activate().expect("activate probe subscription");
        sub.detach();
    }
}

/// A running cluster: three endpoints meshed over loopback TCP.
pub struct Cluster {
    endpoints: Vec<DaceEndpoint>,
    wal_root: Option<PathBuf>,
}

impl Cluster {
    /// Starts the endpoints (each with a fresh WAL directory under
    /// `wal_root` when the workload is durable), meshes them, installs the
    /// subscriptions and returns once a readiness probe has reached every
    /// subscriber node.
    pub fn start(
        kind: Kind,
        subs: &[SubSpec],
        recorder: &Arc<Recorder>,
        wal_root: Option<&Path>,
    ) -> Cluster {
        recorder.reset_probes();
        let ids: Vec<NodeId> = (0..NODES as u64).map(NodeId).collect();
        let endpoints: Vec<DaceEndpoint> = ids
            .iter()
            .map(|&id| {
                let mut net = NetConfig::new(id, "127.0.0.1:0");
                net.seed = id.0;
                net.data_dir = wal_root.map(|root| root.join(format!("n{}", id.0)));
                DaceEndpoint::start(net, ids.clone(), DaceConfig::default()).expect("bind endpoint")
            })
            .collect();
        let cluster = Cluster {
            endpoints,
            wal_root: wal_root.map(Path::to_path_buf),
        };
        let addrs: Vec<String> = cluster
            .endpoints
            .iter()
            .map(|e| e.local_addr().to_string())
            .collect();
        for endpoint in &cluster.endpoints {
            for (&id, addr) in ids.iter().zip(&addrs) {
                if id != endpoint.id() {
                    endpoint.transport().add_peer(id, addr);
                }
            }
        }
        // Poll the mesh finely: set-up takes tens of milliseconds, so a
        // coarse poll would quantize `setup_s`.
        let deadline = Instant::now() + Duration::from_secs(20);
        for endpoint in &cluster.endpoints {
            while !ids
                .iter()
                .all(|&id| id == endpoint.id() || endpoint.transport().peer_connected(id))
            {
                assert!(Instant::now() < deadline, "cluster failed to mesh");
                std::thread::sleep(POLL);
            }
        }

        let subscriber_nodes = Cluster::subscriber_nodes();
        for &node in &subscriber_nodes {
            let mine: Vec<(u32, RemoteFilter)> = subs
                .iter()
                .enumerate()
                .filter(|(_, s)| s.node == node)
                .map(|(i, s)| (i as u32, s.filter.clone()))
                .collect();
            let rec = Arc::clone(recorder);
            let durable = kind.durable();
            let probe = workload::probe_filter(kind);
            cluster.endpoints[node].with_domain(move |domain| match kind {
                Kind::TickerFiltered => {
                    subscribe_node::<Quote>(domain, &rec, node, mine, durable, probe)
                }
                Kind::TickerReliable => {
                    subscribe_node::<Tick>(domain, &rec, node, mine, durable, probe)
                }
                Kind::PaymentsCertified => {
                    subscribe_node::<Payment>(domain, &rec, node, mine, durable, probe)
                }
            });
        }

        // Readiness: re-publish a probe every millisecond until one has
        // reached every subscriber node.
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut n = 0;
        while !recorder.probes_reached(&subscriber_nodes) {
            assert!(
                Instant::now() < deadline,
                "readiness probe never reached every subscriber"
            );
            let probe = workload::probe(kind, n);
            cluster
                .publisher()
                .with_domain(move |domain| publish(domain, probe))
                .expect("probe publish");
            n += 1;
            let resend = Instant::now() + PROBE_EVERY;
            while Instant::now() < resend && !recorder.probes_reached(&subscriber_nodes) {
                std::thread::sleep(POLL);
            }
        }
        cluster
    }

    /// Nodes that hold subscriptions.
    pub fn subscriber_nodes() -> Vec<usize> {
        (0..NODES).filter(|&n| n != PUBLISHER).collect()
    }

    /// The endpoint the generator publishes through.
    pub fn publisher(&self) -> &DaceEndpoint {
        &self.endpoints[PUBLISHER]
    }

    /// All endpoints, by node id.
    pub fn endpoints(&self) -> &[DaceEndpoint] {
        &self.endpoints
    }

    /// Stops every endpoint, joins their threads and removes the WAL
    /// directory.
    pub fn shutdown(self) {
        for endpoint in &self.endpoints {
            endpoint.shutdown();
        }
        if let Some(root) = &self.wal_root {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}
