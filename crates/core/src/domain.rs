//! The [`Domain`]: one address space's publish/subscribe endpoint.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use psc_filter::{FilterId, FilterIndex, RemoteFilter};
use psc_obvent::{KindId, Obvent, ObventKind, ObventView, WireObvent};
use psc_telemetry::{Counter, Registry};

use crate::error::{PublishError, SubscribeError, UnsubscribeError};
use crate::executor::{ExecMode, Executor, ThreadPolicy};
use crate::spec::FilterSpec;
use crate::subscription::Subscription;

/// Identifier of a subscription within its domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubId(pub u64);

/// What the dissemination fabric needs to know about an activated
/// subscription: its id, subscribed kind, the migratable filter part, and a
/// durable id for certified re-attachment (paper §3.4.1's
/// `activate(long id)`).
#[derive(Debug, Clone)]
pub struct SubscriptionRecord {
    /// Domain-local subscription id.
    pub id: SubId,
    /// Subscribed obvent kind (instances of subtypes match).
    pub kind: KindId,
    /// The migratable filter part, if any (may be factored/migrated by the
    /// fabric); the local closure part always runs subscriber-side.
    pub remote_filter: Option<RemoteFilter>,
    /// Durable identity for subscriptions outliving the process.
    pub durable_id: Option<u64>,
}

/// A pluggable distribution fabric behind a [`Domain`].
///
/// `pubsub-core` ships [`Loopback`]; `psc-dace` provides the networked
/// class-based dissemination. Implementations receive the domain's
/// [`DeliverySink`] at construction time and call
/// [`DeliverySink::deliver`] for every obvent that reaches this address
/// space.
pub trait Dissemination: Send + Sync {
    /// Disseminates a published obvent.
    ///
    /// # Errors
    ///
    /// Fabric-specific failures, surfaced as `CannotPublish`.
    fn publish(&self, wire: WireObvent) -> Result<(), PublishError>;

    /// Registers an activated subscription.
    ///
    /// # Errors
    ///
    /// Fabric-specific failures, surfaced as `CannotSubscribe`.
    fn subscribe(&self, record: SubscriptionRecord) -> Result<(), SubscribeError>;

    /// Withdraws a subscription.
    ///
    /// # Errors
    ///
    /// Fabric-specific failures, surfaced as `CannotUnsubscribe`.
    fn unsubscribe(&self, id: SubId) -> Result<(), UnsubscribeError>;
}

/// Erased decode + local-filter + handler pipeline.
type Dispatch = Arc<dyn Fn(&WireObvent) + Send + Sync>;

struct SubEntry {
    kind: KindId,
    slot: Slot,
    dispatch: Dispatch,
    durable_id: Option<u64>,
}

/// Where a subscription's remote filter lives, which doubles as its
/// activation state.
enum Slot {
    /// Inactive: the entry holds its remote filter, if it has one.
    Inactive(Option<RemoteFilter>),
    /// Active without a remote filter: listed in its kind's `unfiltered`.
    Unfiltered,
    /// Active: the remote filter was moved into its kind's index.
    Indexed(FilterId),
}

/// The active subscriptions declared on one kind. Every host indexes its
/// local filters exactly once, here: the paper's compound filter (§2.3.2)
/// on the subscriber side.
#[derive(Default)]
struct KindSubs {
    unfiltered: BTreeSet<SubId>,
    index: FilterIndex,
    owner: HashMap<FilterId, SubId>,
}

impl KindSubs {
    fn insert(&mut self, id: SubId, filter: Option<RemoteFilter>) -> Slot {
        match filter {
            Some(filter) => {
                let fid = self.index.insert(filter);
                self.owner.insert(fid, id);
                Slot::Indexed(fid)
            }
            None => {
                self.unfiltered.insert(id);
                Slot::Unfiltered
            }
        }
    }

    /// Takes an active `slot` out; returns the filter the index held.
    fn remove(&mut self, id: SubId, slot: &Slot) -> Option<RemoteFilter> {
        match *slot {
            Slot::Indexed(fid) => {
                self.owner.remove(&fid);
                self.index.remove(fid)
            }
            Slot::Unfiltered => {
                self.unfiltered.remove(&id);
                None
            }
            Slot::Inactive(_) => unreachable!("only active slots are indexed"),
        }
    }

    fn is_empty(&self) -> bool {
        self.unfiltered.is_empty() && self.index.is_empty()
    }
}

/// A domain's subscriptions plus the per-kind dispatch index over the
/// active ones.
#[derive(Default)]
struct SubTable {
    entries: HashMap<SubId, SubEntry>,
    by_kind: HashMap<KindId, KindSubs>,
}

impl SubTable {
    /// Moves an active entry's filter out of its kind's index and marks
    /// it inactive. No-op on an inactive or unknown entry.
    fn deactivate(&mut self, id: SubId) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        if !entry.is_active() {
            return;
        }
        let group = self
            .by_kind
            .get_mut(&entry.kind)
            .expect("active subscriptions are indexed");
        entry.slot = Slot::Inactive(group.remove(id, &entry.slot));
        if group.is_empty() {
            self.by_kind.remove(&entry.kind);
        }
    }
}

impl SubEntry {
    fn is_active(&self) -> bool {
        !matches!(self.slot, Slot::Inactive(_))
    }
}

/// Telemetry handles of one domain; noop until
/// [`Domain::attach_telemetry`] swaps in live handles.
struct CoreMetrics {
    published: Counter,
    delivered: Counter,
    matched: Counter,
    subs_activated: Counter,
    subs_deactivated: Counter,
    subs_dropped: Counter,
}

impl Default for CoreMetrics {
    fn default() -> Self {
        CoreMetrics {
            published: Counter::noop(),
            delivered: Counter::noop(),
            matched: Counter::noop(),
            subs_activated: Counter::noop(),
            subs_deactivated: Counter::noop(),
            subs_dropped: Counter::noop(),
        }
    }
}

pub(crate) struct DomainInner {
    /// A mutex, not a read-write lock: `FilterIndex::matching` keeps its
    /// scratch state in a `RefCell`.
    subs: Mutex<SubTable>,
    next_id: AtomicU64,
    backend: RwLock<Option<Box<dyn Dissemination>>>,
    executor: Executor,
    delivered_count: AtomicU64,
    metrics: RwLock<CoreMetrics>,
}

/// One address space's pub/sub endpoint: create with
/// [`Domain::in_process`] (loopback fabric) or [`Domain::with_backend`]
/// (custom fabric, e.g. DACE). Cloning is cheap and shares the endpoint.
#[derive(Clone)]
pub struct Domain {
    inner: Arc<DomainInner>,
}

/// Handle the fabric uses to deliver obvents into a domain; holds the
/// domain weakly so fabrics don't keep dead domains alive.
#[derive(Clone)]
pub struct DeliverySink {
    inner: Weak<DomainInner>,
}

impl DeliverySink {
    /// Delivers an obvent to every matching active subscription of the
    /// domain. Returns the number of subscriptions that accepted it (0 when
    /// the domain is gone).
    pub fn deliver(&self, wire: &WireObvent) -> usize {
        match self.inner.upgrade() {
            Some(inner) => inner.deliver(wire),
            None => 0,
        }
    }

    /// True while the domain behind this sink is alive.
    pub fn is_alive(&self) -> bool {
        self.inner.strong_count() > 0
    }
}

impl std::fmt::Debug for DeliverySink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeliverySink")
            .field("alive", &self.is_alive())
            .finish()
    }
}

/// The in-process fabric: publishing delivers straight back into the same
/// domain. This is the degenerate single-address-space deployment the paper
/// uses to introduce the primitives before distribution enters the picture.
pub struct Loopback {
    sink: DeliverySink,
}

impl Dissemination for Loopback {
    fn publish(&self, wire: WireObvent) -> Result<(), PublishError> {
        self.sink.deliver(&wire);
        Ok(())
    }

    fn subscribe(&self, _record: SubscriptionRecord) -> Result<(), SubscribeError> {
        Ok(())
    }

    fn unsubscribe(&self, _id: SubId) -> Result<(), UnsubscribeError> {
        Ok(())
    }
}

impl Domain {
    /// Creates a domain over the in-process [`Loopback`] fabric with inline
    /// handler execution.
    pub fn in_process() -> Domain {
        Domain::with_backend(ExecMode::Inline, |sink| Box::new(Loopback { sink }))
    }

    /// Creates a domain over the in-process [`Loopback`] fabric with a
    /// worker pool of `threads` (for thread-policy semantics).
    pub fn in_process_pooled(threads: usize) -> Domain {
        Domain::with_backend(ExecMode::Pool { threads }, |sink| {
            Box::new(Loopback { sink })
        })
    }

    /// Creates a domain whose fabric is built by `make_backend`, which
    /// receives the domain's [`DeliverySink`].
    pub fn with_backend(
        mode: ExecMode,
        make_backend: impl FnOnce(DeliverySink) -> Box<dyn Dissemination>,
    ) -> Domain {
        let inner = Arc::new(DomainInner {
            subs: Mutex::new(SubTable::default()),
            next_id: AtomicU64::new(1),
            backend: RwLock::new(None),
            executor: Executor::new(mode),
            delivered_count: AtomicU64::new(0),
            metrics: RwLock::new(CoreMetrics::default()),
        });
        let sink = DeliverySink {
            inner: Arc::downgrade(&inner),
        };
        let backend = make_backend(sink);
        *inner.backend.write() = Some(backend);
        Domain { inner }
    }

    /// Connects the domain to a telemetry registry. Publish, delivery and
    /// subscription-lifecycle counters (`core.*`) plus the executor's
    /// thread-policy queue gauges (`core.exec.*`) record into `registry`
    /// from then on; without this call all instrumentation stays noop.
    pub fn attach_telemetry(&self, registry: &Registry) {
        *self.inner.metrics.write() = CoreMetrics {
            published: registry.counter("core.published"),
            delivered: registry.counter("core.delivered"),
            matched: registry.counter("core.matched"),
            subs_activated: registry.counter("core.subs.activated"),
            subs_deactivated: registry.counter("core.subs.deactivated"),
            subs_dropped: registry.counter("core.subs.dropped"),
        };
        self.inner.executor.attach_telemetry(registry);
    }

    /// A sink for delivering obvents into this domain (used by fabrics and
    /// tests).
    pub fn sink(&self) -> DeliverySink {
        DeliverySink {
            inner: Arc::downgrade(&self.inner),
        }
    }

    /// Publishes an obvent — the `publish o;` primitive (§3.2). The obvent
    /// is serialized once; every matching subscriber (local and, with a
    /// networked fabric, remote) receives a fresh clone.
    ///
    /// # Errors
    ///
    /// [`PublishError`] when encoding fails or the fabric rejects the
    /// obvent.
    pub fn publish<O: Obvent>(&self, obvent: O) -> Result<(), PublishError> {
        // Ensure the kind (and its decoder) is registered before the wire
        // obvent circulates.
        let _ = O::kind();
        let wire = WireObvent::encode(&obvent)?;
        self.publish_wire(wire)
    }

    /// Publishes an already-encoded obvent (relay paths).
    ///
    /// # Errors
    ///
    /// [`PublishError`] when the fabric rejects the obvent.
    pub fn publish_wire(&self, wire: WireObvent) -> Result<(), PublishError> {
        self.inner.metrics.read().published.inc();
        let backend = self.inner.backend.read();
        match backend.as_ref() {
            Some(backend) => backend.publish(wire),
            None => Err(PublishError::DomainClosed),
        }
    }

    /// Creates a subscription to obvent class `O` — the
    /// `subscribe (T t) {filter} {handler}` primitive (§3.3). The returned
    /// handle is **inactive**; call [`Subscription::activate`].
    ///
    /// The handler receives an owned, fresh clone per delivery (§2.1.2).
    pub fn subscribe<O: Obvent>(
        &self,
        filter: FilterSpec<O>,
        handler: impl Fn(O) + Send + Sync + 'static,
    ) -> Subscription {
        let kind = O::kind();
        let local = filter.local.clone();
        let dispatch: Dispatch = Arc::new(move |wire| {
            if let Ok(obvent) = wire.decode_as::<O>() {
                if local.as_ref().is_none_or(|f| f.eval(&obvent)) {
                    handler(obvent);
                }
            }
        });
        self.subscribe_erased(kind, filter.remote, dispatch)
    }

    /// Creates a subscription to an obvent **kind** (typically an
    /// interface, including the QoS markers), delivering dynamic
    /// [`ObventView`]s — the §5.5.1 reflection-style variant.
    pub fn subscribe_view(
        &self,
        kind: &'static ObventKind,
        filter: FilterSpec<ObventView>,
        handler: impl Fn(ObventView) + Send + Sync + 'static,
    ) -> Subscription {
        let local = filter.local.clone();
        let dispatch: Dispatch = Arc::new(move |wire| {
            if let Ok(view) = wire.view() {
                if local.as_ref().is_none_or(|f| f.eval(&view)) {
                    handler(view);
                }
            }
        });
        self.subscribe_erased(kind, filter.remote, dispatch)
    }

    fn subscribe_erased(
        &self,
        kind: &'static ObventKind,
        remote_filter: Option<RemoteFilter>,
        dispatch: Dispatch,
    ) -> Subscription {
        let id = SubId(self.inner.next_id.fetch_add(1, Ordering::SeqCst));
        let entry = SubEntry {
            kind: kind.id(),
            slot: Slot::Inactive(remote_filter),
            dispatch,
            durable_id: None,
        };
        self.inner.subs.lock().entries.insert(id, entry);
        Subscription::new(Arc::downgrade(&self.inner), id)
    }

    /// Blocks until all in-flight handler executions finish (pool mode);
    /// immediate with inline execution. Deterministic tests call this after
    /// publishing.
    pub fn drain(&self) {
        self.inner.executor.drain();
    }

    /// Total obvents delivered to handlers of this domain.
    pub fn delivered_count(&self) -> u64 {
        self.inner.delivered_count.load(Ordering::SeqCst)
    }

    /// Number of currently active subscriptions.
    pub fn active_subscriptions(&self) -> usize {
        self.inner
            .subs
            .lock()
            .entries
            .values()
            .filter(|e| e.is_active())
            .count()
    }

    /// Shuts the domain down: deactivates everything and detaches the
    /// fabric. Publishing afterwards fails with
    /// [`PublishError::DomainClosed`].
    pub fn close(&self) {
        // Drop the old table outside the lock: a handler closure may own
        // a `Subscription` whose drop calls back into the domain.
        let old = std::mem::take(&mut *self.inner.subs.lock());
        drop(old);
        *self.inner.backend.write() = None;
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("subscriptions", &self.inner.subs.lock().entries.len())
            .field("delivered", &self.delivered_count())
            .finish()
    }
}

impl DomainInner {
    /// Core dispatch: kind conformance → remote filter → handler (which
    /// applies the local filter after decoding). The published kind's
    /// ancestry selects the candidate kinds (so supertype and interface
    /// subscriptions match); each contributes its unfiltered subscriptions
    /// plus its index's matches. Handlers are submitted in ascending
    /// [`SubId`] order. Returns how many subscriptions matched.
    fn deliver(&self, wire: &WireObvent) -> usize {
        let Some(kind) = psc_obvent::registry::lookup(wire.kind_id()) else {
            return 0;
        };
        // Lazily computed dynamic view shared by all indexes.
        let mut view: Option<Option<ObventView>> = None;
        let jobs: Vec<(SubId, Dispatch)> = {
            let subs = self.subs.lock();
            let mut ids: Vec<SubId> = Vec::new();
            for ancestor in kind.ancestry() {
                let Some(group) = subs.by_kind.get(ancestor) else {
                    continue;
                };
                ids.extend(&group.unfiltered);
                if group.index.is_empty() {
                    continue;
                }
                // No decoder for this kind here: the content filters
                // cannot be evaluated, so the conservative choice is to
                // deliver to none of the filtered subscriptions.
                if let Some(view) = view.get_or_insert_with(|| wire.view().ok()) {
                    let matches = group.index.matching(view);
                    ids.extend(matches.iter().map(|fid| group.owner[fid]));
                }
            }
            ids.sort_unstable();
            ids.into_iter()
                .map(|id| (id, Arc::clone(&subs.entries[&id].dispatch)))
                .collect()
        };
        let matched = jobs.len();
        {
            let metrics = self.metrics.read();
            metrics.matched.add(matched as u64);
            metrics.delivered.add(matched as u64);
        }
        for (id, dispatch) in jobs {
            self.delivered_count.fetch_add(1, Ordering::SeqCst);
            let wire = wire.clone();
            self.executor.submit(id, move || dispatch(&wire));
        }
        matched
    }

    // ---- subscription handle operations ----

    pub(crate) fn activate(
        &self,
        id: SubId,
        durable_id: Option<u64>,
    ) -> Result<(), SubscribeError> {
        let record = {
            let mut subs = self.subs.lock();
            let SubTable { entries, by_kind } = &mut *subs;
            if let Some(durable) = durable_id {
                let clash = entries.iter().any(|(&other, e)| {
                    other != id && e.is_active() && e.durable_id == Some(durable)
                });
                if clash {
                    return Err(SubscribeError::DurableIdInUse(durable));
                }
            }
            let entry = entries.get_mut(&id).ok_or(SubscribeError::DomainClosed)?;
            let Slot::Inactive(filter) = &mut entry.slot else {
                return Err(SubscribeError::AlreadyActive);
            };
            let filter = filter.take();
            entry.durable_id = durable_id;
            let record = SubscriptionRecord {
                id,
                kind: entry.kind,
                remote_filter: filter.clone(),
                durable_id,
            };
            entry.slot = by_kind.entry(entry.kind).or_default().insert(id, filter);
            record
        };
        let result = match self.backend.read().as_ref() {
            Some(backend) => backend.subscribe(record),
            None => Err(SubscribeError::DomainClosed),
        };
        match result {
            Ok(()) => {
                self.metrics.read().subs_activated.inc();
                Ok(())
            }
            Err(err) => {
                // Roll back the activation.
                self.subs.lock().deactivate(id);
                Err(err)
            }
        }
    }

    pub(crate) fn deactivate(&self, id: SubId) -> Result<(), UnsubscribeError> {
        {
            let mut subs = self.subs.lock();
            let entry = subs
                .entries
                .get(&id)
                .ok_or(UnsubscribeError::DomainClosed)?;
            if !entry.is_active() {
                return Err(UnsubscribeError::NotActive);
            }
            subs.deactivate(id);
        }
        let backend = self.backend.read();
        let backend = backend.as_ref().ok_or(UnsubscribeError::DomainClosed)?;
        backend.unsubscribe(id)?;
        self.metrics.read().subs_deactivated.inc();
        Ok(())
    }

    pub(crate) fn is_active(&self, id: SubId) -> bool {
        self.subs
            .lock()
            .entries
            .get(&id)
            .is_some_and(SubEntry::is_active)
    }

    pub(crate) fn set_policy(&self, id: SubId, policy: ThreadPolicy) {
        self.executor.set_policy(id, policy);
    }

    pub(crate) fn drop_subscription(&self, id: SubId) {
        let removed = {
            let mut subs = self.subs.lock();
            subs.deactivate(id);
            subs.entries.remove(&id)
        };
        if removed.is_some() {
            self.metrics.read().subs_dropped.inc();
        }
        self.executor.remove_sub(id);
    }
}
