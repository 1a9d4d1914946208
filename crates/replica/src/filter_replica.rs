//! The filter-based replication model (the paper's contribution), with a
//! read/write-split concurrency design: query answering is `&self` and
//! lock-minimal, mutation publishes immutable per-epoch content snapshots.
//!
//! # Indexed evaluation
//!
//! Replica-local answering is index-backed. Every entry DN is interned to
//! a dense `u32` id once; stored-filter contents are sorted id posting
//! lists; the entry store is an id-addressed vector of shared entries; and
//! each published epoch carries a [`SnapshotIndex`] with
//! equality/prefix/range posting lists, maintained *incrementally* by the
//! writer (never rebuilt from the entry store). A query is answered by
//! compiling its filter into an index plan, intersecting (galloping) with
//! the winning stored filter's list, and verifying residual predicates
//! only on the candidates. Repeated queries skip the containment check
//! entirely through a per-epoch decision cache.

use crate::index::SnapshotIndex;
use crate::posting;
use crate::stats::{AtomicReplicaStats, ReplicaStats};
use crossbeam::channel::{Receiver, TryRecvError};
use fbdr_containment::{ContainmentEngine, EngineStats, PreparedQuery};
use fbdr_ldap::{Entry, SearchRequest};
use fbdr_obs::{event, Counter, Histogram, Obs};
use fbdr_resync::reconcile::entry_item_hash;
use fbdr_resync::{
    dn_key, entry_key, sync_shards, Clock, CompositeCookie, Cookie, DnInterner, NotifyBatch,
    ReSyncControl, ReconcileItem, ShardContent, ShardCoordinator, ShardId, ShardMap, ShardOutcome,
    ShardStatus, SyncAction, SyncDriver, SyncError, SyncMaster, SyncTransport, SyncTraffic,
};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a query's content is stored in the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoredQueryKind {
    /// A generalized filter, statically or dynamically selected, kept in
    /// sync with the master via ReSync.
    Generalized,
    /// A recently performed user query, cached for temporal locality and
    /// *not* updated (§7.4) — evicted FIFO from a fixed window.
    Cached,
}

/// One synchronized generalized filter inside a content snapshot.
///
/// Immutable once published, except for the hit counter: that is an
/// `Arc<AtomicU64>` shared across snapshot generations, so hits recorded
/// against an old epoch survive the next publish.
#[derive(Debug, Clone)]
struct StoredFilter {
    prepared: PreparedQuery,
    /// The filter's content as a sorted posting list of interned ids.
    ids: Vec<u32>,
    /// True when the last sync cycle could not reach the master: the
    /// content is served anyway (availability over freshness) but hits
    /// are accounted as stale until a cycle succeeds.
    stale: bool,
    hits: Arc<AtomicU64>,
}

/// The immutable-per-epoch read view: what `try_answer` consults.
///
/// Readers clone the `Arc` (the content lock is held only for that
/// pointer copy) and then work entirely on their private snapshot, so a
/// concurrent writer publishing epoch `n+1` never disturbs a reader still
/// answering from epoch `n`.
///
/// The interner and index are themselves behind `Arc`s: an epoch that
/// does not touch them shares its predecessor's allocation, and a sync
/// cycle that does touch them pays one structural clone plus the delta.
#[derive(Debug)]
struct ContentSnapshot {
    /// Monotonic generation number; bumped by every published mutation.
    epoch: u64,
    filters: Vec<Arc<StoredFilter>>,
    /// Id-addressed entry store: slot `id` holds the entry whose interned
    /// DN is `id`, or `None` when no stored filter references it.
    entries: Vec<Option<Arc<Entry>>>,
    /// Number of occupied slots (the replica-size metric).
    live: usize,
    /// DN-key → id map; ids are append-only and stable across epochs.
    interner: Arc<DnInterner>,
    /// Equality/prefix/range posting lists over the occupied slots.
    index: Arc<SnapshotIndex>,
}

impl ContentSnapshot {
    fn empty() -> Self {
        ContentSnapshot {
            epoch: 0,
            filters: Vec::new(),
            entries: Vec::new(),
            live: 0,
            interner: Arc::new(DnInterner::new()),
            index: Arc::new(SnapshotIndex::default()),
        }
    }

    /// The entry stored under an interned id, if the slot is occupied.
    fn entry(&self, id: u32) -> Option<&Entry> {
        self.entries.get(id as usize)?.as_deref()
    }

    /// True when a normalized DN key is held by some stored filter.
    fn contains_key(&self, key: &str) -> bool {
        self.interner.get(key).is_some_and(|id| self.entry(id).is_some())
    }
}

/// The writer's mutable working copy of a snapshot's content, threaded
/// through every mutator. Cloning from the previous snapshot copies the
/// filter/entry vectors (of `Arc`s — cheap) and *shares* the interner and
/// index until the first mutation touches them (`Arc::make_mut`).
struct Working {
    epoch: u64,
    filters: Vec<Arc<StoredFilter>>,
    entries: Vec<Option<Arc<Entry>>>,
    live: usize,
    interner: Arc<DnInterner>,
    index: Arc<SnapshotIndex>,
}

impl Working {
    fn from_snapshot(snap: &ContentSnapshot) -> Self {
        Working {
            epoch: snap.epoch,
            filters: snap.filters.clone(),
            entries: snap.entries.clone(),
            live: snap.live,
            interner: snap.interner.clone(),
            index: snap.index.clone(),
        }
    }

    fn into_snapshot(self) -> ContentSnapshot {
        ContentSnapshot {
            epoch: self.epoch + 1,
            filters: self.filters,
            entries: self.entries,
            live: self.live,
            interner: self.interner,
            index: self.index,
        }
    }

    /// Interns a DN key (cloning the shared interner only on a genuinely
    /// new DN) and grows the slot vector to fit.
    fn intern(&mut self, key: &str) -> u32 {
        let id = match self.interner.get(key) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.interner).intern(key),
        };
        if self.entries.len() <= id as usize {
            self.entries.resize(id as usize + 1, None);
        }
        id
    }

    /// Upserts an entry into its slot, keeping the index exact: the old
    /// version's values are unindexed before the new ones are inserted.
    fn store(&mut self, id: u32, e: Entry) {
        let ix = Arc::make_mut(&mut self.index);
        if let Some(old) = self.entries[id as usize].take() {
            ix.remove_entry(id, &old);
        } else {
            self.live += 1;
        }
        ix.insert_entry(id, &e);
        self.entries[id as usize] = Some(Arc::new(e));
    }

    /// Clears a slot and unindexes the entry it held.
    fn evict(&mut self, id: u32) {
        if let Some(old) = self.entries[id as usize].take() {
            Arc::make_mut(&mut self.index).remove_entry(id, &old);
            self.live -= 1;
        }
    }
}

/// One stored filter's held content sliced by shard ownership — the
/// [`ShardContent`] view a session step reconciles/reinstalls against.
/// Ownership is decided by the shard map over each held entry's DN, so a
/// shard's slice is exactly what that shard's master serves.
struct WorkingShardContent<'a> {
    work: &'a Working,
    filter: usize,
    map: &'a ShardMap,
}

impl WorkingShardContent<'_> {
    /// The held entry `id`, when it belongs to `shard`.
    fn owned_entry(&self, shard: ShardId, id: u32) -> Option<&Entry> {
        let e = self.work.entries.get(id as usize)?.as_deref()?;
        (self.map.shard_of(e.dn()) == shard).then_some(e)
    }
}

impl ShardContent for WorkingShardContent<'_> {
    fn items(&self, shard: ShardId) -> Vec<ReconcileItem> {
        self.work.filters[self.filter]
            .ids
            .iter()
            .filter_map(|&id| {
                let e = self.owned_entry(shard, id)?;
                Some(ReconcileItem { hash: entry_item_hash(e), id })
            })
            .collect()
    }

    fn resolve(&self, shard: ShardId, key: &str) -> Option<u32> {
        let id = self.work.interner.get(key)?;
        self.work.filters[self.filter].ids.binary_search(&id).ok()?;
        self.owned_entry(shard, id).map(|_| id)
    }

    fn dn_of(&self, shard: ShardId, id: u32) -> Option<fbdr_ldap::Dn> {
        self.owned_entry(shard, id).map(|e| e.dn().clone())
    }

    fn held_dns(&self, shard: ShardId) -> Vec<fbdr_ldap::Dn> {
        self.work.filters[self.filter]
            .ids
            .iter()
            .filter_map(|&id| self.owned_entry(shard, id).map(|e| e.dn().clone()))
            .collect()
    }
}

/// Writer-side per-filter state that readers never touch: the ReSync
/// session — one cookie per shard of the map the filter was installed
/// under, an unsharded install being the one-shard case
/// ([`ShardMap::single`]) — and the optional persist-mode notification
/// channel.
///
/// Invariant: `WriterState::sessions` is index-aligned with the current
/// snapshot's `filters` — every mutator that adds/removes a filter updates
/// both under the writer lock before publishing.
#[derive(Debug)]
struct FilterSession {
    /// The shard map the cookies are keyed by; a sync cycle covers the
    /// filters installed under its own map.
    map: ShardMap,
    cookie: CompositeCookie,
    /// Live notification channel for persist-mode filters.
    notifications: Option<Receiver<NotifyBatch>>,
}

/// The sessions of one filter stepped once: `(transport, request,
/// cookies, held content) → per-shard outcomes`.
type SessionStep<'a> = dyn FnMut(
        &mut dyn SyncTransport,
        &SearchRequest,
        &mut CompositeCookie,
        &dyn ShardContent,
    ) -> Vec<ShardOutcome>
    + 'a;

impl FilterSession {
    /// An unsharded session: the one-shard case.
    fn unsharded(cookie: Option<Cookie>, notifications: Option<Receiver<NotifyBatch>>) -> Self {
        FilterSession {
            map: ShardMap::single(),
            cookie: cookie.map(|c| vec![(ShardId::ZERO, c)].into()).unwrap_or_default(),
            notifications,
        }
    }
}

/// All mutable bookkeeping, serialized behind one writer mutex.
#[derive(Debug, Default)]
struct WriterState {
    sessions: Vec<FilterSession>,
    /// How many filters reference each entry id (cache entries are owned
    /// by their cached query and not counted here).
    refcount: HashMap<u32, usize>,
}

/// A cached recent user query with its frozen result set (cached queries
/// are not synchronized, §7.4, so the result is a snapshot at cache time).
#[derive(Debug)]
struct CachedQuery {
    prepared: PreparedQuery,
    entries: Vec<Entry>,
    keys: HashSet<String>,
    hits: AtomicU64,
}

/// FIFO window of cached queries behind a short-critical-section mutex:
/// the lock is held only to push/evict/copy the `Arc` list — containment
/// checks and result evaluation run outside it.
#[derive(Debug, Default)]
struct QueryCache {
    queries: Mutex<VecDeque<Arc<CachedQuery>>>,
}

impl QueryCache {
    fn view(&self) -> Vec<Arc<CachedQuery>> {
        self.queries.lock().iter().cloned().collect()
    }
}

/// Upper bound on memoized containment decisions; reaching it clears the
/// map (Zipf traffic re-warms the hot keys within a few queries).
const DECISION_CACHE_CAP: usize = 4096;

/// Epoch-invalidated memo of containment decisions: normalized query key
/// → index of the first stored filter that contains it (`Some`) or proof
/// that none does (`None`). Valid only for the epoch it was filled in —
/// any publish changes the filter list or content, so the map is cleared
/// on the first probe against a newer epoch.
#[derive(Debug, Default)]
struct DecisionCache {
    epoch: u64,
    map: HashMap<String, Option<usize>>,
}

/// Point-in-time counters of the containment decision cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecisionCacheStats {
    /// Probes answered from the cache (containment check skipped).
    pub hits: u64,
    /// Probes that fell through to the containment engine.
    pub misses: u64,
    /// Decisions currently memoized for the probing epoch.
    pub entries: usize,
}

/// Pre-resolved metric handles for the answer path; `None` on an
/// unobserved replica, so the fast path pays one branch, no registry
/// lookups.
#[derive(Debug)]
struct AnswerMetrics {
    /// `fbdr_replica_try_answer_ns` — end-to-end local answer latency.
    answer_ns: Arc<Histogram>,
    /// `fbdr_replica_index_build_ns` — incremental index maintenance time
    /// per applied action batch.
    index_build_ns: Arc<Histogram>,
    /// `fbdr_replica_plan_candidates` — candidate-set size the planner
    /// handed to residual verification (plan selectivity).
    plan_candidates: Arc<Histogram>,
    /// `fbdr_replica_plan_indexed_total` — answers served via an index plan.
    plan_indexed: Arc<Counter>,
    /// `fbdr_replica_plan_scan_total` — answers that fell back to scanning
    /// the stored filter's posting list.
    plan_scan: Arc<Counter>,
    /// `fbdr_replica_decision_cache_hit_total`.
    decision_hits: Arc<Counter>,
    /// `fbdr_replica_decision_cache_miss_total`.
    decision_misses: Arc<Counter>,
}

/// A filter-based replica: entries satisfying one or more stored LDAP
/// queries plus the meta information (search specifications) needed to
/// decide answerability by semantic containment.
///
/// Entries are stored once and shared between overlapping stored queries;
/// [`FilterReplica::entry_count`] is the replica-size metric of Figures
/// 4–7, and [`FilterReplica::stored_query_count`] the x-axis of Figures
/// 8–9.
///
/// # Concurrency
///
/// The replica is split read/write:
///
/// * **Readers** ([`try_answer`](FilterReplica::try_answer),
///   [`try_answer_composed`](FilterReplica::try_answer_composed)) take
///   `&self`, clone the current content-snapshot `Arc` (the `RwLock` is
///   held only for that pointer copy) and answer from their private
///   epoch. Statistics are relaxed atomics. Any number of threads may
///   query one replica concurrently without external locking.
/// * **Writers** (install/remove/sync/cache management) also take `&self`
///   but serialize on an internal mutex; they build a new snapshot off to
///   the side and publish it with a single pointer swap, so each sync
///   cycle's updates become visible atomically and readers never observe
///   a half-applied batch.
#[derive(Debug)]
pub struct FilterReplica {
    content: RwLock<Arc<ContentSnapshot>>,
    cache: QueryCache,
    cache_window: usize,
    engine: ContainmentEngine,
    stats: AtomicReplicaStats,
    writer: Mutex<WriterState>,
    decisions: Mutex<DecisionCache>,
    decision_hits: AtomicU64,
    decision_misses: AtomicU64,
    obs: Obs,
    metrics: Option<AnswerMetrics>,
}

impl FilterReplica {
    /// Creates a replica that caches up to `cache_window` recent user
    /// queries (0 disables query caching).
    pub fn new(cache_window: usize) -> Self {
        FilterReplica::with_obs(cache_window, Obs::off())
    }

    /// Creates an observed replica: hit counters become the registry's
    /// `fbdr_replica_*_total` metrics (one counter source — see
    /// [`AtomicReplicaStats::bound`]), every
    /// [`try_answer`](FilterReplica::try_answer) is timed into
    /// `fbdr_replica_try_answer_ns`, index maintenance is timed into
    /// `fbdr_replica_index_build_ns`, plan selectivity and decision-cache
    /// effectiveness are counted, the embedded [`ContainmentEngine`]
    /// records through the same handle, and QC hits/misses plus epoch
    /// publishes emit trace events when a subscriber is installed. With
    /// [`Obs::off`] this is identical to [`FilterReplica::new`].
    pub fn with_obs(cache_window: usize, obs: Obs) -> Self {
        let (stats, metrics) = if obs.is_active() {
            let reg = obs.registry();
            (
                AtomicReplicaStats::bound(reg),
                Some(AnswerMetrics {
                    answer_ns: reg.histogram("fbdr_replica_try_answer_ns"),
                    index_build_ns: reg.histogram("fbdr_replica_index_build_ns"),
                    plan_candidates: reg.histogram("fbdr_replica_plan_candidates"),
                    plan_indexed: reg.counter("fbdr_replica_plan_indexed_total"),
                    plan_scan: reg.counter("fbdr_replica_plan_scan_total"),
                    decision_hits: reg.counter("fbdr_replica_decision_cache_hit_total"),
                    decision_misses: reg.counter("fbdr_replica_decision_cache_miss_total"),
                }),
            )
        } else {
            (AtomicReplicaStats::new(), None)
        };
        FilterReplica {
            content: RwLock::new(Arc::new(ContentSnapshot::empty())),
            cache: QueryCache::default(),
            cache_window,
            engine: ContainmentEngine::with_obs(obs.clone()),
            stats,
            writer: Mutex::new(WriterState::default()),
            decisions: Mutex::new(DecisionCache::default()),
            decision_hits: AtomicU64::new(0),
            decision_misses: AtomicU64::new(0),
            obs,
            metrics,
        }
    }

    /// The observability handle this replica records through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The current content snapshot (lock held only for the `Arc` clone).
    fn snapshot(&self) -> Arc<ContentSnapshot> {
        self.content.read().clone()
    }

    /// Publishes a new snapshot; the write lock is held only for the swap.
    fn publish(&self, snap: ContentSnapshot) {
        event!(
            self.obs,
            "replica",
            "epoch_publish",
            epoch = snap.epoch,
            filters = snap.filters.len(),
            entries = snap.live,
        );
        *self.content.write() = Arc::new(snap);
    }

    /// Number of distinct entries stored (replica size): filter-referenced
    /// entries plus cached-query entries not already covered by a filter.
    pub fn entry_count(&self) -> usize {
        let snap = self.snapshot();
        let mut extra: HashSet<&str> = HashSet::new();
        let cached = self.cache.view();
        for cq in &cached {
            for k in &cq.keys {
                if !snap.contains_key(k) {
                    extra.insert(k);
                }
            }
        }
        snap.live + extra.len()
    }

    /// Number of stored queries (generalized + cached) — the §7.4
    /// processing-overhead driver.
    pub fn stored_query_count(&self) -> usize {
        self.snapshot().filters.len() + self.cached_query_count()
    }

    /// Number of synchronized generalized filters.
    pub fn filter_count(&self) -> usize {
        self.snapshot().filters.len()
    }

    /// Number of cached user queries currently held.
    pub fn cached_query_count(&self) -> usize {
        self.cache.queries.lock().len()
    }

    /// Number of generalized filters currently marked stale (their last
    /// sync cycle could not reach the master).
    pub fn stale_filter_count(&self) -> usize {
        self.snapshot().filters.iter().filter(|s| s.stale).count()
    }

    /// The current content epoch: a monotonic generation number bumped by
    /// every published mutation (install, remove, sync cycle). All entries
    /// returned by one `try_answer` call come from a single epoch.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Hit statistics (a point-in-time snapshot of the atomic counters).
    pub fn stats(&self) -> ReplicaStats {
        self.stats.snapshot()
    }

    /// Resets hit statistics (e.g. after the training day).
    pub fn reset_stats(&self) {
        self.stats.reset();
    }

    /// Containment-engine work counters (for §7.4).
    pub fn engine_stats(&self) -> EngineStats {
        self.engine.stats()
    }

    /// Containment decision-cache counters: probes answered without
    /// running the containment engine (`hits`) versus full checks
    /// (`misses`), plus the number of currently memoized decisions.
    pub fn decision_cache_stats(&self) -> DecisionCacheStats {
        DecisionCacheStats {
            hits: self.decision_hits.load(Ordering::Relaxed),
            misses: self.decision_misses.load(Ordering::Relaxed),
            entries: self.decisions.lock().map.len(),
        }
    }

    /// Drops all memoized containment decisions (the counters keep
    /// accumulating). Invalidation is otherwise automatic on every
    /// published epoch.
    pub fn clear_decision_cache(&self) {
        self.decisions.lock().map.clear();
    }

    /// The stored generalized filters with their accumulated hit counts.
    pub fn filters(&self) -> impl Iterator<Item = (SearchRequest, u64)> {
        self.snapshot()
            .filters
            .iter()
            .map(|s| (s.prepared.request().clone(), s.hits.load(Ordering::Relaxed)))
            .collect::<Vec<_>>()
            .into_iter()
    }

    // ------------------------------------------------------------------
    // Filter management (replica content determination, §6)
    // ------------------------------------------------------------------

    /// Installs a generalized filter: starts a ReSync session at the
    /// master and loads the initial content. Returns the load traffic.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from the master.
    pub fn install_filter(
        &self,
        master: &mut SyncMaster,
        request: SearchRequest,
    ) -> Result<SyncTraffic, SyncError> {
        let mut w = self.writer.lock();
        let resp = master.resync(&request, ReSyncControl::poll(None))?;
        let traffic = resp.traffic();
        let session = FilterSession::unsharded(resp.cookie, None);
        self.install_loaded(&mut w, request, session, &resp.actions);
        Ok(traffic)
    }

    /// Installs a generalized filter in *persist* mode: the master streams
    /// change notifications over an open channel instead of waiting for
    /// polls; [`FilterReplica::drain_notifications`] applies whatever has
    /// arrived. This is the persistent-search-style strong(er) consistency
    /// option of §5.2, at the cost of one open connection per filter.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from the master.
    pub fn install_filter_persistent(
        &self,
        master: &mut SyncMaster,
        request: SearchRequest,
    ) -> Result<SyncTraffic, SyncError> {
        let mut w = self.writer.lock();
        let (resp, rx) = master.resync_persist(&request, None)?;
        let traffic = resp.traffic();
        let session = FilterSession::unsharded(resp.cookie, Some(rx));
        self.install_loaded(&mut w, request, session, &resp.actions);
        Ok(traffic)
    }

    /// Shared install tail: builds the filter, applies the initial load
    /// and publishes the next epoch. Caller holds the writer lock.
    fn install_loaded(
        &self,
        w: &mut WriterState,
        request: SearchRequest,
        session: FilterSession,
        actions: &[SyncAction],
    ) {
        let snap = self.snapshot();
        let mut work = Working::from_snapshot(&snap);
        let mut sf = StoredFilter {
            prepared: PreparedQuery::new(request),
            ids: Vec::new(),
            stale: false,
            hits: Arc::new(AtomicU64::new(0)),
        };
        self.timed_apply(&mut work, &mut w.refcount, &mut sf, actions);
        work.filters.push(Arc::new(sf));
        w.sessions.push(session);
        self.publish(work.into_snapshot());
    }

    /// Applies every pending persist-mode notification across all
    /// persistent filters. Returns the traffic the notifications
    /// represent.
    ///
    /// A filter whose notification channel has disconnected (master
    /// restart, dropped connection) degrades to cookie-based polling: the
    /// channel is discarded, `poll_fallbacks` is incremented, and the
    /// next [`FilterReplica::sync_with`] picks the filter up incrementally
    /// via its cookie.
    pub fn drain_notifications(&self) -> SyncTraffic {
        let mut w = self.writer.lock();
        let WriterState { sessions, refcount } = &mut *w;
        let snap = self.snapshot();
        let mut work = Working::from_snapshot(&snap);
        let mut traffic = SyncTraffic::default();
        let mut changed = false;
        for (i, session) in sessions.iter_mut().enumerate() {
            let Some(rx) = &session.notifications else { continue };
            let mut pending: Vec<SyncAction> = Vec::new();
            let disconnected = loop {
                match rx.try_recv() {
                    Ok(b) => pending.extend(b.actions),
                    Err(TryRecvError::Empty) => break false,
                    Err(TryRecvError::Disconnected) => break true,
                }
            };
            if !pending.is_empty() {
                for a in &pending {
                    traffic.count(a);
                }
                let mut sf = (*work.filters[i]).clone();
                self.timed_apply(&mut work, refcount, &mut sf, &pending);
                work.filters[i] = Arc::new(sf);
                changed = true;
            }
            if disconnected {
                session.notifications = None;
                self.stats.record_poll_fallback();
                event!(self.obs, "replica", "poll_fallback", filter_index = i);
            }
        }
        if changed {
            self.publish(work.into_snapshot());
        }
        traffic
    }

    /// Removes a generalized filter (revolution eviction), ending its sync
    /// session on every shard and garbage-collecting entries no other
    /// stored query needs. Returns true if the filter was present.
    pub fn remove_filter(
        &self,
        transport: &mut dyn SyncTransport,
        request: &SearchRequest,
    ) -> bool {
        let mut w = self.writer.lock();
        let snap = self.snapshot();
        let Some(pos) = snap.filters.iter().position(|s| s.prepared.request() == request) else {
            return false;
        };
        let mut work = Working::from_snapshot(&snap);
        let removed = work.filters.remove(pos);
        let session = w.sessions.remove(pos);
        for (shard, c) in session.cookie.iter() {
            transport.abandon_at(shard, c);
        }
        for &id in &removed.ids {
            unref(&mut work, &mut w.refcount, id);
        }
        self.publish(work.into_snapshot());
        true
    }

    /// Polls the master for every filter installed through the unsharded
    /// paths and applies the updates, through a retrying [`SyncDriver`].
    /// Returns the total resync traffic — component (i) of the filter
    /// replica's update traffic (§7.3).
    ///
    /// Each filter takes one session step ([`SyncDriver::sync_session`]),
    /// the recovery ladder every sync path shares:
    ///
    /// - a transient failure that exhausts the driver's retry/time budget
    ///   marks the filter **stale** and moves on — the content keeps being
    ///   served (availability over freshness; hits are counted in
    ///   [`ReplicaStats::stale_serves`]) and the next cycle retries;
    /// - a lost session (expired at the master by its §5.2 admin time
    ///   limit, or a replay past its window) is **reconciled**: the
    ///   replica digests its held items and receives only what actually
    ///   diverged, re-establishing a live cookie at divergence-proportional
    ///   cost. Only a *known* divergence above the driver's
    ///   [`ReconcileConfig::divergence_budget`](fbdr_resync::ReconcileConfig),
    ///   or a failed exchange, falls back to a full **reinstall**;
    /// - any other error also marks the filter stale, keeps its cookie,
    ///   and the cycle carries on with the other filters.
    ///
    /// The whole cycle publishes as **one** new epoch, so concurrent
    /// readers see either the pre-cycle or the post-cycle content, never
    /// a half-applied batch.
    ///
    /// # Errors
    ///
    /// The first non-transient, non-session [`SyncError`] any filter hit,
    /// after the cycle is published; transport outages never fail the
    /// cycle.
    pub fn sync_with<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        driver: &mut SyncDriver<C>,
    ) -> Result<SyncTraffic, SyncError> {
        self.sync_unsharded(transport, driver, None).map(Option::unwrap_or_default)
    }

    /// Installs a generalized filter against a **sharded** master: the
    /// coordinator splits the filter's base/scope across the shards it
    /// overlaps, establishes one ReSync session per shard, and the merged
    /// per-shard cookies are kept as a [`CompositeCookie`] for
    /// [`FilterReplica::sync_with_sharded`] cycles. Returns the load
    /// traffic.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SyncError`] any shard produced
    /// (all-or-nothing: partial sessions are abandoned).
    pub fn install_filter_sharded<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        coordinator: &mut ShardCoordinator<C>,
        request: SearchRequest,
    ) -> Result<SyncTraffic, SyncError> {
        let mut w = self.writer.lock();
        let (actions, cookie, traffic) = coordinator.install(transport, &request)?;
        let session = FilterSession { map: coordinator.map().clone(), cookie, notifications: None };
        self.install_loaded(&mut w, request, session, &actions);
        Ok(traffic)
    }

    /// One sync cycle against a sharded master over the filters installed
    /// with [`FilterReplica::install_filter_sharded`] under the
    /// coordinator's map: every such filter steps each shard it overlaps
    /// **independently**, on that shard's driver, so a slow or partitioned
    /// shard degrades only its own slice to stale while the other shards'
    /// updates land. A filter with any stale or failed shard is marked
    /// stale as a whole (its answers may miss that shard's updates) but
    /// keeps serving. Otherwise as [`FilterReplica::sync_with`].
    ///
    /// # Errors
    ///
    /// The first hard (non-transient, non-session) [`SyncError`] any
    /// shard produced, after the cycle's partial progress is published.
    pub fn sync_with_sharded<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        coordinator: &mut ShardCoordinator<C>,
    ) -> Result<SyncTraffic, SyncError> {
        let map = coordinator.map().clone();
        self.sync_cycle(transport, &map, None, &mut |t, request, cookie, content| {
            coordinator.sync_filter(t, request, cookie, content)
        })
        .map(Option::unwrap_or_default)
    }

    /// Polls the master for a *single* stored filter, leaving the others
    /// untouched. This is what lets a deployment give different object
    /// types different consistency levels (§3.2): hot, volatile filters
    /// can poll frequently while stable ones poll rarely — something a
    /// subtree replica cannot do, since one subtree mixes object types.
    /// The filter takes the same session step as in
    /// [`FilterReplica::sync_with`], so a lost session recovers.
    ///
    /// Returns `Ok(None)` when `request` is not a filter installed through
    /// the unsharded paths.
    ///
    /// # Errors
    ///
    /// As [`FilterReplica::sync_with`].
    pub fn sync_filter<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        driver: &mut SyncDriver<C>,
        request: &SearchRequest,
    ) -> Result<Option<SyncTraffic>, SyncError> {
        self.sync_unsharded(transport, driver, Some(request))
    }

    /// A [`FilterReplica::sync_cycle`] over the unsharded filters: the
    /// one-shard map, every session stepped on `driver`.
    fn sync_unsharded<C: Clock>(
        &self,
        transport: &mut dyn SyncTransport,
        driver: &mut SyncDriver<C>,
        only: Option<&SearchRequest>,
    ) -> Result<Option<SyncTraffic>, SyncError> {
        let single = ShardMap::single();
        let drivers = std::slice::from_mut(driver);
        self.sync_cycle(transport, &single, only, &mut |t, request, cookie, content| {
            sync_shards(&single, drivers, t, request, cookie, content)
        })
    }

    /// The one sync cycle: every filter installed under `map` (only the
    /// one equal to `only`, when given) runs `step` over its sessions and
    /// applies the outcomes. A filter is fresh when every shard step was;
    /// otherwise it is marked stale and keeps serving. The cycle publishes
    /// one epoch, then returns the first hard error any step hit.
    /// `Ok(None)`: `only` names no such filter, and nothing is published.
    fn sync_cycle(
        &self,
        transport: &mut dyn SyncTransport,
        map: &ShardMap,
        only: Option<&SearchRequest>,
        step: &mut SessionStep<'_>,
    ) -> Result<Option<SyncTraffic>, SyncError> {
        let mut w = self.writer.lock();
        let WriterState { sessions, refcount } = &mut *w;
        let snap = self.snapshot();
        let mut work = Working::from_snapshot(&snap);
        let mut total = SyncTraffic::default();
        let mut failed: Option<SyncError> = None;
        let mut polled = false;
        for (i, session) in sessions.iter_mut().enumerate() {
            let filter = Arc::clone(&work.filters[i]);
            let request = filter.prepared.request();
            if session.map != *map || only.is_some_and(|r| r != request) {
                continue;
            }
            polled = true;
            let outcomes = {
                let content = WorkingShardContent { work: &work, filter: i, map };
                step(transport, request, &mut session.cookie, &content)
            };
            let mut sf = (*filter).clone();
            sf.stale = false;
            let mut actions: Vec<SyncAction> = Vec::new();
            for out in outcomes {
                total.absorb(&out.traffic);
                if !out.is_fresh() {
                    sf.stale = true;
                    event!(
                        self.obs,
                        "replica",
                        "filter_stale",
                        filter_index = i,
                        shard = out.shard.index(),
                        failed = matches!(out.status, ShardStatus::Failed(_)),
                    );
                }
                actions.extend(out.actions);
                if let ShardStatus::Failed(e) = out.status {
                    failed.get_or_insert(e);
                }
            }
            self.timed_apply(&mut work, refcount, &mut sf, &actions);
            work.filters[i] = Arc::new(sf);
        }
        if only.is_some() && !polled {
            return Ok(None);
        }
        self.publish(work.into_snapshot());
        match failed {
            Some(e) => Err(e),
            None => Ok(Some(total)),
        }
    }

    /// Caches a recently performed user query and its result (fetched from
    /// the master after a miss). Evicts the oldest cached query beyond the
    /// window. Cached queries are not synchronized: the result set is
    /// frozen at cache time (§7.4).
    pub fn cache_query(&self, request: SearchRequest, result: &[Entry]) {
        if self.cache_window == 0 {
            return;
        }
        let cq = Arc::new(CachedQuery {
            prepared: PreparedQuery::new(request),
            keys: result.iter().map(entry_key).collect(),
            entries: result.to_vec(),
            hits: AtomicU64::new(0),
        });
        let mut q = self.cache.queries.lock();
        q.push_back(cq);
        while q.len() > self.cache_window {
            q.pop_front();
        }
    }

    /// Drops all cached user queries.
    pub fn clear_query_cache(&self) {
        self.cache.queries.lock().clear();
    }

    /// Applies an action batch to the working content, timing the
    /// incremental index maintenance when the replica is observed.
    fn timed_apply(
        &self,
        work: &mut Working,
        refcount: &mut HashMap<u32, usize>,
        sf: &mut StoredFilter,
        actions: &[SyncAction],
    ) {
        if actions.is_empty() {
            return;
        }
        let start = self.metrics.as_ref().map(|_| Instant::now());
        apply_actions(work, refcount, sf, actions);
        if let (Some(m), Some(t)) = (&self.metrics, start) {
            m.index_build_ns.record_since(t);
        }
    }

    // ------------------------------------------------------------------
    // Query answering
    // ------------------------------------------------------------------

    /// Tries to answer a query locally: the query must be semantically
    /// contained (`QC`) in some stored query. Returns the locally
    /// evaluated entries on a hit, `None` (→ referral) on a miss.
    ///
    /// Takes `&self` and is safe to call from any number of threads
    /// concurrently with each other and with a writer running a sync
    /// cycle: the answer is computed against one consistent content epoch.
    ///
    /// ```
    /// use fbdr_ldap::{Entry, Filter, SearchRequest};
    /// use fbdr_replica::FilterReplica;
    /// use fbdr_resync::SyncMaster;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut master = SyncMaster::new();
    /// master.dit_mut().add_suffix("o=xyz".parse()?);
    /// master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
    /// master.dit_mut().add(
    ///     Entry::new("cn=a,o=xyz".parse()?).with("serialNumber", "045612"),
    /// )?;
    ///
    /// let replica = FilterReplica::new(0);
    /// replica.install_filter(
    ///     &mut master,
    ///     SearchRequest::from_root(Filter::parse("(serialNumber=0456*)")?),
    /// )?;
    ///
    /// // Contained in the stored filter → answered locally.
    /// let hit = SearchRequest::from_root(Filter::parse("(serialNumber=045612)")?);
    /// assert_eq!(replica.try_answer(&hit).unwrap().len(), 1);
    /// // Not contained → miss (the caller would chase a referral).
    /// let miss = SearchRequest::from_root(Filter::parse("(serialNumber=9*)")?);
    /// assert!(replica.try_answer(&miss).is_none());
    /// assert_eq!(replica.stats().hits, 1);
    /// # Ok(())
    /// # }
    /// ```
    pub fn try_answer(&self, query: &SearchRequest) -> Option<Vec<Entry>> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        self.stats.record_query();
        let prepared = PreparedQuery::new(query.clone());
        let snap = self.snapshot();
        let out = self.answer_prepared(query, &prepared, &snap);
        if let (Some(m), Some(t)) = (&self.metrics, start) {
            m.answer_ns.record_since(t);
        }
        out
    }

    /// The answer path proper, against an already-prepared query and an
    /// already-read snapshot (so composed answering reuses both).
    fn answer_prepared(
        &self,
        query: &SearchRequest,
        prepared: &PreparedQuery,
        snap: &ContentSnapshot,
    ) -> Option<Vec<Entry>> {
        // Generalized filters first (they are authoritative and synced).
        // The containment decision is memoized per epoch: a repeat of a
        // recently seen query skips the engine entirely.
        let qkey = query_key(query);
        let decision = match self.cached_decision(snap.epoch, &qkey) {
            Some(d) => d,
            None => {
                let d = snap
                    .filters
                    .iter()
                    .position(|sf| self.engine.query_contained(prepared, &sf.prepared));
                self.remember_decision(snap.epoch, qkey, d);
                d
            }
        };
        if let Some(pos) = decision {
            let sf = &snap.filters[pos];
            sf.hits.fetch_add(1, Ordering::Relaxed);
            self.stats.record_generalized_hit(sf.stale);
            event!(
                self.obs,
                "replica",
                "qc_hit",
                kind = "generalized",
                stale = sf.stale,
                epoch = snap.epoch,
            );
            return Some(self.evaluate_indexed(snap, query, &sf.ids));
        }
        for cq in self.cache.view() {
            if self.engine.query_contained(prepared, &cq.prepared) {
                cq.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.record_cache_hit();
                event!(self.obs, "replica", "qc_hit", kind = "cached", epoch = snap.epoch);
                return Some(evaluate_cached(query, &cq.entries));
            }
        }
        event!(
            self.obs,
            "replica",
            "qc_miss",
            epoch = snap.epoch,
            filters = snap.filters.len(),
        );
        None
    }

    /// Probes the decision cache; a probe against a newer epoch clears the
    /// stale memo first.
    fn cached_decision(&self, epoch: u64, key: &str) -> Option<Option<usize>> {
        let mut dc = self.decisions.lock();
        if dc.epoch != epoch {
            dc.epoch = epoch;
            dc.map.clear();
        }
        let found = dc.map.get(key).copied();
        drop(dc);
        match (&found, &self.metrics) {
            (Some(_), Some(m)) => m.decision_hits.inc(),
            (None, Some(m)) => m.decision_misses.inc(),
            _ => {}
        }
        match found {
            Some(_) => self.decision_hits.fetch_add(1, Ordering::Relaxed),
            None => self.decision_misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Memoizes a containment decision, unless a publish raced in between
    /// (the decision would poison the newer epoch).
    fn remember_decision(&self, epoch: u64, key: String, decision: Option<usize>) {
        let mut dc = self.decisions.lock();
        if dc.epoch != epoch {
            return;
        }
        if dc.map.len() >= DECISION_CACHE_CAP {
            dc.map.clear();
        }
        dc.map.insert(key, decision);
    }

    /// Evaluates a query restricted to one stored filter's posting list,
    /// through the snapshot index: the filter is compiled to a candidate
    /// plan, intersected (galloping) with the filter's list, and only the
    /// surviving candidates are verified against the full query. Falls
    /// back to scanning the posting list when the filter is unplannable.
    fn evaluate_indexed(
        &self,
        snap: &ContentSnapshot,
        query: &SearchRequest,
        ids: &[u32],
    ) -> Vec<Entry> {
        let cands: Cow<'_, [u32]> = match snap.index.plan(query.filter()) {
            Some(plan) => {
                let sel = posting::intersect(&plan, ids);
                if let Some(m) = &self.metrics {
                    m.plan_indexed.inc();
                    m.plan_candidates.record(sel.len() as u64);
                }
                Cow::Owned(sel)
            }
            None => {
                if let Some(m) = &self.metrics {
                    m.plan_scan.inc();
                    m.plan_candidates.record(ids.len() as u64);
                }
                Cow::Borrowed(ids)
            }
        };
        collect_matching(snap, query, &cands)
    }

    /// Answers a query by brute-force scan, bypassing the index plan and
    /// the decision cache — the reference evaluator the indexed path is
    /// benchmarked and property-tested against. Runs the same containment
    /// gate as [`try_answer`](FilterReplica::try_answer) but records no
    /// replica statistics and no hit counts.
    pub fn try_answer_scan(&self, query: &SearchRequest) -> Option<Vec<Entry>> {
        let prepared = PreparedQuery::new(query.clone());
        let snap = self.snapshot();
        for sf in &snap.filters {
            if self.engine.query_contained(&prepared, &sf.prepared) {
                return Some(collect_matching(&snap, query, &sf.ids));
            }
        }
        None
    }

    /// Tries to answer a query from the **union** of stored generalized
    /// filters — an extension beyond the paper, which only checks
    /// containment in a single stored query (§3.4.2). A query like
    /// `(|(serialNumber=0456*)(serialNumber=0457*))` is answerable when
    /// each branch is covered by a different stored filter.
    ///
    /// The check is sound: the query region must lie inside every
    /// contributing filter's region, and the query filter must be
    /// contained (general Prop 1 procedure) in the disjunction of the
    /// contributing filters. Returns `None` on a miss; does not consult
    /// the query cache. Statistics count this as a generalized hit.
    ///
    /// Like [`try_answer`](FilterReplica::try_answer) this takes `&self`;
    /// the query is prepared once and the whole attempt — single-filter
    /// containment and union composition — runs against a single epoch
    /// read.
    pub fn try_answer_composed(&self, query: &SearchRequest) -> Option<Vec<Entry>> {
        let start = self.metrics.as_ref().map(|_| Instant::now());
        self.stats.record_query();
        let prepared = PreparedQuery::new(query.clone());
        let snap = self.snapshot();
        let out = self.answer_composed_prepared(query, &prepared, &snap);
        if let (Some(m), Some(t)) = (&self.metrics, start) {
            m.answer_ns.record_since(t);
        }
        out
    }

    fn answer_composed_prepared(
        &self,
        query: &SearchRequest,
        prepared: &PreparedQuery,
        snap: &ContentSnapshot,
    ) -> Option<Vec<Entry>> {
        if let Some(hit) = self.answer_prepared(query, prepared, snap) {
            return Some(hit);
        }
        // Candidates: stored filters whose region and attribute selection
        // cover the query's (the filter part is checked on the union).
        let candidates: Vec<&Arc<StoredFilter>> = snap
            .filters
            .iter()
            .filter(|sf| {
                let s = sf.prepared.request();
                fbdr_containment::region_contained(
                    query.base(),
                    query.scope(),
                    s.base(),
                    s.scope(),
                ) && query.attrs().is_subset_of(s.attrs())
            })
            .collect();
        if candidates.len() < 2 {
            return None; // single-filter containment already failed above
        }
        let union = fbdr_ldap::Filter::or(
            candidates.iter().map(|sf| sf.prepared.request().filter().clone()).collect(),
        );
        if fbdr_containment::filter_contained(query.filter(), &union)
            != fbdr_containment::Containment::Yes
        {
            return None;
        }
        // The answer_prepared call above already counted this query (as a
        // miss); composition converts it into a hit.
        self.stats.record_generalized_hit(false);
        let mut lists: Vec<&[u32]> = Vec::with_capacity(candidates.len());
        for sf in &candidates {
            sf.hits.fetch_add(1, Ordering::Relaxed);
            lists.push(&sf.ids);
        }
        let ids = posting::union_many(lists);
        Some(self.evaluate_indexed(snap, query, &ids))
    }
}

/// Verifies a candidate id list against the full query, sorts the
/// survivors by DN (deterministic output order) and projects the selected
/// attributes — projection runs only on entries that made the answer.
fn collect_matching(snap: &ContentSnapshot, query: &SearchRequest, ids: &[u32]) -> Vec<Entry> {
    let mut hits: Vec<&Entry> = ids
        .iter()
        .filter_map(|&id| snap.entry(id))
        .filter(|e| query.matches(e))
        .collect();
    hits.sort_by(|a, b| a.dn().cmp(b.dn()));
    hits.into_iter().map(|e| query.attrs().project(e)).collect()
}

/// Evaluates a query over a cached query's frozen result set.
fn evaluate_cached(query: &SearchRequest, entries: &[Entry]) -> Vec<Entry> {
    let mut out: Vec<Entry> = entries
        .iter()
        .filter(|e| query.matches(e))
        .map(|e| query.attrs().project(e))
        .collect();
    out.sort_by(|a, b| a.dn().cmp(b.dn()));
    out
}

/// A collision-free memo key for the decision cache: the query's region,
/// selection and canonical filter text. The filter printer escapes
/// `( ) * \` in values, so distinct queries cannot collide (a collision
/// would unsoundly reuse another query's containment decision).
fn query_key(query: &SearchRequest) -> String {
    format!(
        "{}\u{1f}{:?}\u{1f}{}\u{1f}{:?}",
        dn_key(query.base()),
        query.scope(),
        query.filter(),
        query.attrs(),
    )
}

/// Applies one batch of sync actions to the working content: the filter's
/// posting list, the shared id-addressed entry store, the snapshot index
/// and the refcounts.
fn apply_actions(
    work: &mut Working,
    refcount: &mut HashMap<u32, usize>,
    sf: &mut StoredFilter,
    actions: &[SyncAction],
) {
    for a in actions {
        match a {
            SyncAction::Add(e) | SyncAction::Modify(e) => {
                let id = work.intern(&entry_key(e));
                if posting::insert_sorted(&mut sf.ids, id) {
                    *refcount.entry(id).or_insert(0) += 1;
                }
                work.store(id, e.clone());
            }
            SyncAction::Delete(dn) => {
                if let Some(id) = work.interner.get(&dn_key(dn)) {
                    if posting::remove_sorted(&mut sf.ids, id) {
                        unref(work, refcount, id);
                    }
                }
            }
            SyncAction::Retain(_) => {}
        }
    }
}

/// Drops one filter reference to an entry id, garbage-collecting the
/// entry (slot + index postings) when no filter references remain.
///
/// The id itself is recycled at that point: no filter posting list holds
/// it (refcount is zero), the slot was just emptied and the index
/// unindexed, so the interner slot is released for reuse and the
/// replica's id space — and every id-addressed vector built on it —
/// stops growing with lifetime churn. Earlier epochs are untouched: they
/// share the *previous* interner `Arc`, and the release copies on write.
fn unref(work: &mut Working, refcount: &mut HashMap<u32, usize>, id: u32) {
    if let Some(rc) = refcount.get_mut(&id) {
        *rc -= 1;
        if *rc == 0 {
            refcount.remove(&id);
            work.evict(id);
            Arc::make_mut(&mut work.interner).release(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::{Modification, UpdateOp};
    use fbdr_ldap::{Dn, Filter, Scope};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn person(cn: &str, c: &str, sn: &str, dept: &str) -> Entry {
        Entry::new(dn(&format!("cn={cn},c={c},o=xyz")))
            .with("objectclass", "inetOrgPerson")
            .with("cn", cn)
            .with("serialNumber", sn)
            .with("departmentNumber", dept)
    }

    fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix(dn("o=xyz"));
        m.dit_mut().add(Entry::new(dn("o=xyz"))).unwrap();
        for c in ["us", "in"] {
            m.dit_mut().add(Entry::new(dn(&format!("c={c},o=xyz")))).unwrap();
        }
        for (cn, c, sn, dept) in [
            ("a", "us", "045611", "2406"),
            ("b", "us", "045612", "2406"),
            ("c", "in", "045621", "2407"),
            ("d", "in", "120001", "9900"),
        ] {
            m.dit_mut().add(person(cn, c, sn, dept)).unwrap();
        }
        m
    }

    fn root_query(f: &str) -> SearchRequest {
        SearchRequest::from_root(Filter::parse(f).unwrap())
    }

    fn sub_query(base: &str, f: &str) -> SearchRequest {
        SearchRequest::new(dn(base), Scope::Subtree, Filter::parse(f).unwrap())
    }

    #[test]
    fn install_filter_loads_content() {
        let mut m = master();
        let r = FilterReplica::new(0);
        let t = r
            .install_filter(&mut m, root_query("(serialNumber=0456*)"))
            .unwrap();
        assert_eq!(t.full_entries, 3);
        assert_eq!(r.entry_count(), 3);
        assert_eq!(r.filter_count(), 1);
        assert_eq!(r.epoch(), 1);
    }

    #[test]
    fn answers_contained_queries_spanning_subtrees() {
        // §3.1.2: semantic locality is not spatial — the 0456* filter
        // answers queries for entries in different country subtrees.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();

        let q_us = root_query("(serialNumber=045611)");
        let hit = r.try_answer(&q_us).expect("hit");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].dn(), &dn("cn=a,c=us,o=xyz"));

        let q_in = root_query("(serialNumber=045621)");
        let hit = r.try_answer(&q_in).expect("hit across subtrees");
        assert_eq!(hit[0].dn(), &dn("cn=c,c=in,o=xyz"));

        assert!(r.try_answer(&root_query("(serialNumber=120001)")).is_none());
        assert_eq!(r.stats().queries, 3);
        assert_eq!(r.stats().hits, 2);
        assert_eq!(r.stats().generalized_hits, 2);
    }

    #[test]
    fn null_based_queries_answerable() {
        // §3.1.1: filter replicas can replicate null-based queries.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=240*)")).unwrap();
        assert!(r.try_answer(&root_query("(departmentNumber=2406)")).is_some());
        // Narrower base still contained.
        assert!(r
            .try_answer(&sub_query("c=us,o=xyz", "(departmentNumber=2406)"))
            .is_some());
    }

    #[test]
    fn narrower_base_filters_results_by_scope() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let q = sub_query("c=in,o=xyz", "(serialNumber=0456*)");
        let hit = r.try_answer(&q).expect("hit");
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].dn(), &dn("cn=c,c=in,o=xyz"));
    }

    #[test]
    fn sync_propagates_updates() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        assert_eq!(r.entry_count(), 2);

        // d moves into the content, a moves out.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=d,c=in,o=xyz"),
            mods: vec![Modification::Replace("departmentNumber".into(), vec!["2406".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,c=us,o=xyz"),
            mods: vec![Modification::Replace("departmentNumber".into(), vec!["2409".into()])],
        })
        .unwrap();
        let epoch_before = r.epoch();
        let t = r.sync_with(&mut m, &mut SyncDriver::default()).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(t.dn_only, 1);
        assert_eq!(r.entry_count(), 2);
        assert_eq!(r.epoch(), epoch_before + 1, "one cycle = one epoch");
        let hit = r.try_answer(&root_query("(departmentNumber=2406)")).unwrap();
        let dns: Vec<String> = hit.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(dns, ["cn=b,c=us,o=xyz", "cn=d,c=in,o=xyz"]);
    }

    #[test]
    fn overlapping_filters_share_entries() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        // a and b are in both contents; c only in the serial filter.
        assert_eq!(r.entry_count(), 3);
        // Removing one filter keeps shared entries alive.
        let serial = root_query("(serialNumber=0456*)");
        assert!(r.remove_filter(&mut m, &serial));
        assert_eq!(r.filter_count(), 1);
        assert_eq!(r.entry_count(), 2); // c garbage-collected
        assert!(r.try_answer(&root_query("(serialNumber=045611)")).is_none());
        assert!(r.try_answer(&root_query("(departmentNumber=2406)")).is_some());
    }

    #[test]
    fn query_cache_window_and_eviction() {
        let m = master();
        let r = FilterReplica::new(2);
        // Miss path: caller fetches from master and caches.
        let q1 = root_query("(serialNumber=045611)");
        assert!(r.try_answer(&q1).is_none());
        let res1 = m.dit().search(&q1);
        r.cache_query(q1.clone(), &res1);
        assert_eq!(r.cached_query_count(), 1);
        // Repeat of q1 now hits the cache.
        assert!(r.try_answer(&q1).is_some());
        assert_eq!(r.stats().cache_hits, 1);

        // Two more cached queries evict q1 (window = 2).
        for f in ["(serialNumber=045612)", "(serialNumber=120001)"] {
            let q = root_query(f);
            let res = m.dit().search(&q);
            r.cache_query(q, &res);
        }
        assert_eq!(r.cached_query_count(), 2);
        assert!(r.try_answer(&q1).is_none(), "q1 should be evicted");
    }

    #[test]
    fn clear_query_cache_drops_entries() {
        let m = master();
        let r = FilterReplica::new(4);
        let q = root_query("(serialNumber=045611)");
        let res = m.dit().search(&q);
        r.cache_query(q, &res);
        assert_eq!(r.entry_count(), 1);
        r.clear_query_cache();
        assert_eq!(r.entry_count(), 0);
        assert_eq!(r.cached_query_count(), 0);
    }

    #[test]
    fn composed_answering_covers_unions() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        r.install_filter(&mut m, root_query("(serialNumber=12*)")).unwrap();

        // Neither stored filter alone contains this disjunction, but
        // their union does.
        let q = root_query("(|(serialNumber=045612)(serialNumber=120001))");
        assert!(r.try_answer(&q).is_none(), "single-filter containment must miss");
        let hit = r.try_answer_composed(&q).expect("union containment hits");
        let dns: Vec<String> = hit.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(dns, ["cn=b,c=us,o=xyz", "cn=d,c=in,o=xyz"]);
        assert_eq!(r.stats().generalized_hits, 1);
        // The explicit try_answer above plus the composed call count two
        // query attempts; the composed hit is counted exactly once.
        assert_eq!(r.stats().queries, 2);
        assert_eq!(r.stats().hits, 1);

        // A disjunct outside both filters stays a miss.
        let q = root_query("(|(serialNumber=045612)(serialNumber=999999))");
        assert!(r.try_answer_composed(&q).is_none());
    }

    #[test]
    fn attribute_projection_on_answers() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let q = SearchRequest::with_attrs(
            Dn::root(),
            Scope::Subtree,
            Filter::parse("(serialNumber=045611)").unwrap(),
            fbdr_ldap::AttrSelection::list(["cn"]),
        );
        let hit = r.try_answer(&q).expect("hit");
        assert!(hit[0].has_attr(&"cn".into()));
        assert!(!hit[0].has_attr(&"serialNumber".into()));
    }

    #[test]
    fn sync_recovers_from_expired_session() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        assert_eq!(r.entry_count(), 3);

        // Changes happen, then the master expires all idle sessions.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,c=us,o=xyz"),
            mods: vec![Modification::Replace("serialNumber".into(), vec!["999999".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        assert_eq!(m.expire_idle(0), 1);

        // The poll recovers the session; content converges.
        r.sync_with(&mut m, &mut SyncDriver::default()).unwrap();
        assert_eq!(r.entry_count(), 3);
        let hit = r.try_answer(&root_query("(serialNumber=0456*)")).unwrap();
        let dns: Vec<String> = hit.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(dns, ["cn=b,c=us,o=xyz", "cn=c,c=in,o=xyz", "cn=e,c=us,o=xyz"]);
        // The stale entry (a, now 999999) is gone.
        assert!(r.try_answer(&root_query("(serialNumber=999999)")).is_none());

        // Subsequent polls use the recovered session incrementally.
        m.apply(UpdateOp::Add(person("f", "in", "045660", "2407"))).unwrap();
        let t = r.sync_with(&mut m, &mut SyncDriver::default()).unwrap();
        assert_eq!(t.full_entries, 1);
    }

    #[test]
    fn persistent_filter_streams_updates() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter_persistent(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        assert_eq!(r.entry_count(), 2);

        // An update at the master arrives without any poll.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=d,c=in,o=xyz"),
            mods: vec![Modification::Replace("departmentNumber".into(), vec!["2406".into()])],
        })
        .unwrap();
        let t = r.drain_notifications();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.entry_count(), 3);
        let hit = r.try_answer(&root_query("(departmentNumber=2406)")).unwrap();
        assert_eq!(hit.len(), 3);

        // Draining again is a no-op.
        assert_eq!(r.drain_notifications().pdus(), 0);
    }

    #[test]
    fn per_filter_sync_supports_consistency_levels() {
        let mut m = master();
        let r = FilterReplica::new(0);
        let hot = root_query("(departmentNumber=2406)");
        let cold = root_query("(serialNumber=12*)");
        r.install_filter(&mut m, hot.clone()).unwrap();
        r.install_filter(&mut m, cold.clone()).unwrap();

        // Updates touch both contents.
        m.apply(UpdateOp::Modify {
            dn: dn("cn=a,c=us,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["hot@x".into()])],
        })
        .unwrap();
        m.apply(UpdateOp::Modify {
            dn: dn("cn=d,c=in,o=xyz"),
            mods: vec![Modification::Replace("mail".into(), vec!["cold@x".into()])],
        })
        .unwrap();

        // Only the hot filter polls.
        let mut d = SyncDriver::default();
        let t = r.sync_filter(&mut m, &mut d, &hot).unwrap().expect("hot filter stored");
        assert_eq!(t.full_entries, 1);
        let hot_ans = r.try_answer(&root_query("(mail=hot@x)"));
        assert!(hot_ans.is_none(), "mail query is not contained in dept filter");
        // The hot entry was refreshed...
        let e = r.try_answer(&hot).unwrap();
        assert!(e.iter().any(|e| e.has_value(&"mail".into(), &"hot@x".into())));
        // ...while the cold filter's content is still stale.
        let e = r.try_answer(&cold).unwrap();
        assert!(!e.iter().any(|e| e.has_value(&"mail".into(), &"cold@x".into())));

        // Unknown filters return None.
        assert!(r.sync_filter(&mut m, &mut d, &root_query("(cn=zz)")).unwrap().is_none());

        // An expired session recovers through the same step: the cold
        // filter's session (idle since install) expires, and the next
        // per-filter poll converges on the content it missed.
        assert_eq!(m.expire_idle(0), 1);
        let t = r.sync_filter(&mut m, &mut d, &cold).unwrap().expect("cold filter stored");
        assert_eq!(t.full_entries, 1);
        assert_eq!(d.stats().reconciliations, 1);
        let e = r.try_answer(&cold).unwrap();
        assert!(e.iter().any(|e| e.has_value(&"mail".into(), &"cold@x".into())));
        assert_eq!(r.stale_filter_count(), 0);
    }

    #[test]
    fn engine_stats_exposed() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        r.try_answer(&root_query("(serialNumber=045611)"));
        assert!(r.engine_stats().total() > 0);
    }

    #[test]
    fn concurrent_readers_share_the_replica() {
        // The acceptance shape of the read/write split: plain `&r` shared
        // across threads, no external Mutex, exact atomic accounting.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = &r;
                s.spawn(move || {
                    for _ in 0..100 {
                        let hit = r.try_answer(&root_query("(serialNumber=045611)"));
                        assert_eq!(hit.expect("hit").len(), 1);
                    }
                });
            }
        });
        assert_eq!(r.stats().queries, 400);
        assert_eq!(r.stats().hits, 400);
    }

    // ------------------------------------------------------------------
    // Indexed evaluation
    // ------------------------------------------------------------------

    #[test]
    fn indexed_and_scan_paths_agree() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        let queries = [
            root_query("(serialNumber=045611)"),
            root_query("(serialNumber=04561*)"),
            root_query("(&(serialNumber=0456*)(departmentNumber=2406))"),
            root_query("(|(serialNumber=045611)(serialNumber=045621))"),
            root_query("(serialNumber=*45611)"), // unplannable → scan fallback
            sub_query("c=in,o=xyz", "(serialNumber=0456*)"),
            root_query("(serialNumber=999999)"),
            root_query("(departmentNumber=9900)"), // not contained → miss
        ];
        for q in &queries {
            assert_eq!(r.try_answer(q), r.try_answer_scan(q), "query {q}");
        }
    }

    #[test]
    fn decision_cache_memoizes_and_invalidates() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        let q = root_query("(departmentNumber=2406)");

        r.try_answer(&q);
        let s = r.decision_cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));

        // Repeat: the containment check is skipped, the answer unchanged.
        let before = r.engine_stats().total();
        assert_eq!(r.try_answer(&q).unwrap().len(), 2);
        assert_eq!(r.engine_stats().total(), before, "engine not consulted");
        let s = r.decision_cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));

        // Misses are memoized too.
        let miss = root_query("(serialNumber=120001)");
        assert!(r.try_answer(&miss).is_none());
        assert!(r.try_answer(&miss).is_none());
        let s = r.decision_cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 2, 2));

        // A publish (sync cycle) invalidates: the next probe misses and
        // sees the fresh content.
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        r.sync_with(&mut m, &mut SyncDriver::default()).unwrap();
        assert_eq!(r.try_answer(&q).unwrap().len(), 3);
        let s = r.decision_cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (2, 3, 1));

        // Manual clearing keeps counters but drops memos.
        r.clear_decision_cache();
        assert_eq!(r.decision_cache_stats().entries, 0);
    }

    #[test]
    fn epoch_shares_untouched_index() {
        // A sync cycle with no changes publishes a new epoch that shares
        // the previous epoch's interner and index allocations.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        let before = r.snapshot();
        r.sync_with(&mut m, &mut SyncDriver::default()).unwrap();
        let after = r.snapshot();
        assert_eq!(after.epoch, before.epoch + 1);
        assert!(Arc::ptr_eq(&before.index, &after.index), "index shared");
        assert!(Arc::ptr_eq(&before.interner, &after.interner), "interner shared");
        // A cycle that does apply changes replaces them.
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        r.sync_with(&mut m, &mut SyncDriver::default()).unwrap();
        let touched = r.snapshot();
        assert!(!Arc::ptr_eq(&after.index, &touched.index));
    }

    // ------------------------------------------------------------------
    // Robustness: degradation ladder
    // ------------------------------------------------------------------

    /// Simulated clock: sleeping advances time instantly.
    #[derive(Debug, Clone, Default)]
    struct TestClock {
        now: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl Clock for TestClock {
        fn now_ms(&self) -> u64 {
            self.now.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn sleep_ms(&self, ms: u64) {
            self.now.fetch_add(ms, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// A transport over a real master that fails the next `outage` calls;
    /// `drop_responses` instead lets the master process the request and
    /// loses the answer on the way back (the replay-buffer case).
    struct FlakyMaster {
        master: SyncMaster,
        outage: u32,
        drop_responses: u32,
    }

    impl SyncTransport for FlakyMaster {
        fn resync(
            &mut self,
            request: &SearchRequest,
            ctl: ReSyncControl,
        ) -> Result<fbdr_resync::SyncResponse, SyncError> {
            if self.outage > 0 {
                self.outage -= 1;
                return Err(SyncError::Unavailable("outage".into()));
            }
            if self.drop_responses > 0 {
                self.drop_responses -= 1;
                let _ = self.master.resync(request, ctl);
                return Err(SyncError::Unavailable("response dropped".into()));
            }
            self.master.resync(request, ctl)
        }

        fn take_receiver(&mut self, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
            self.master.take_receiver(cookie)
        }

        fn abandon(&mut self, cookie: Cookie) {
            self.master.abandon(cookie);
        }

        fn reconcile(
            &mut self,
            request: &SearchRequest,
            req: fbdr_resync::reconcile::ReconcileRequest,
        ) -> Result<fbdr_resync::reconcile::ReconcileResponse, SyncError> {
            if self.outage > 0 {
                self.outage -= 1;
                return Err(SyncError::Unavailable("outage".into()));
            }
            self.master.reconcile(request, req)
        }

        fn reconcile_ranges(
            &mut self,
            cookie: Cookie,
            req: &fbdr_resync::reconcile::RangeRequest,
        ) -> Result<fbdr_resync::reconcile::RangeResponse, SyncError> {
            if self.outage > 0 {
                self.outage -= 1;
                return Err(SyncError::Unavailable("outage".into()));
            }
            self.master.reconcile_ranges(cookie, req)
        }
    }

    fn driver() -> SyncDriver<TestClock> {
        SyncDriver::with_clock(
            fbdr_resync::RetryConfig { max_retries: 2, ..Default::default() },
            TestClock::default(),
        )
    }

    #[test]
    fn sync_with_retries_through_transient_outage() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();

        let mut link = FlakyMaster { master: m, outage: 2, drop_responses: 0 };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.stale_filter_count(), 0);
        assert_eq!(d.stats().retries, 2);
        assert_eq!(d.stats().recovered, 1);
    }

    #[test]
    fn exhausted_retries_serve_stale_until_recovery() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();

        // Outage longer than the retry budget (1 try + 2 retries).
        let mut link = FlakyMaster { master: m, outage: 10, drop_responses: 0 };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).expect("cycle must not fail");
        assert_eq!(t.pdus(), 0);
        assert_eq!(r.stale_filter_count(), 1);
        assert_eq!(d.stats().exhausted, 1);

        // Stale content is still served — and accounted as stale.
        let q = root_query("(departmentNumber=2406)");
        assert_eq!(r.try_answer(&q).expect("stale hit").len(), 2);
        assert_eq!(r.stats().stale_serves, 1);

        // The outage ends; the next cycle catches up and clears the mark.
        link.outage = 0;
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.stale_filter_count(), 0);
        r.try_answer(&q).expect("fresh hit");
        assert_eq!(r.stats().stale_serves, 1, "fresh hits are not stale serves");
    }

    #[test]
    fn sync_with_reconciles_after_session_expiry() {
        // The session dies at the master, but only one entry diverged:
        // recovery goes through the reconcile rung and ships exactly that
        // entry, never touching the reinstall counter.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let held_before = r.entry_count();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        assert_eq!(m.expire_idle(0), 1);

        let mut link = FlakyMaster { master: m, outage: 0, drop_responses: 0 };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 1, "only the diverged entry crosses the wire");
        assert_eq!(d.stats().reconciliations, 1);
        assert_eq!(d.stats().reinstalls, 0);
        assert_eq!(r.stale_filter_count(), 0);
        assert_eq!(r.entry_count(), held_before + 1);
        // The re-established cookie polls incrementally.
        link.master.apply(UpdateOp::Add(person("f", "in", "045660", "7"))).unwrap();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(d.stats().reconciliations, 1, "no second reconcile needed");
    }

    #[test]
    fn sync_with_reconcile_applies_detached_deletions() {
        // Deletions that happened while the session was dead must land
        // through reconciliation — the divergence Bloom digests alone
        // cannot see.
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        let held_before = r.entry_count();
        m.apply(UpdateOp::Delete(dn("cn=a,c=us,o=xyz"))).unwrap();
        assert_eq!(m.expire_idle(0), 1);

        let mut link = FlakyMaster { master: m, outage: 0, drop_responses: 0 };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.dn_only, 1, "the deletion travels as one hash, applied locally");
        assert_eq!(d.stats().reconciliations, 1);
        assert_eq!(d.stats().reinstalls, 0);
        assert_eq!(r.entry_count(), held_before - 1);
        let q = root_query("(serialNumber=0456*)");
        assert!(
            r.try_answer(&q).unwrap().iter().all(|e| e.dn() != &dn("cn=a,c=us,o=xyz")),
            "zero lost deletions"
        );
    }

    #[test]
    fn sync_with_falls_back_to_reinstall_when_transport_cannot_reconcile() {
        // A transport without the reconcile legs (the trait defaults)
        // routes recovery to the old full-reload rung.
        struct PlainLink {
            master: SyncMaster,
        }
        impl SyncTransport for PlainLink {
            fn resync(
                &mut self,
                request: &SearchRequest,
                ctl: ReSyncControl,
            ) -> Result<fbdr_resync::SyncResponse, SyncError> {
                self.master.resync(request, ctl)
            }
            fn take_receiver(&mut self, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
                self.master.take_receiver(cookie)
            }
            fn abandon(&mut self, cookie: Cookie) {
                self.master.abandon(cookie);
            }
        }

        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        assert_eq!(m.expire_idle(0), 1);

        let mut link = PlainLink { master: m };
        let mut d = driver();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 4, "full reload");
        assert_eq!(d.stats().reconciliations, 0);
        assert_eq!(d.stats().reinstalls, 1);
        assert_eq!(r.stale_filter_count(), 0);
    }

    #[test]
    fn sync_with_respects_the_divergence_budget() {
        // A replay overrun reports how far behind the replica is; a
        // driver with a zero budget must skip reconciliation and
        // reinstall directly.
        let mut m = master();
        m.set_replay_expiry_ops(0);
        let r = FilterReplica::new(0);
        r.install_filter(&mut m, root_query("(serialNumber=0456*)")).unwrap();
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();

        // The poll's response is lost; with no retries left the filter
        // goes stale while the master's session moves one batch ahead.
        let mut link = FlakyMaster { master: m, outage: 0, drop_responses: 1 };
        let mut d = SyncDriver::with_clock(
            fbdr_resync::RetryConfig { max_retries: 0, ..Default::default() },
            TestClock::default(),
        )
        .with_reconcile(fbdr_resync::ReconcileConfig {
            divergence_budget: 0,
            ..Default::default()
        });
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(t.full_entries, 0);
        assert_eq!(r.stale_filter_count(), 1);

        // More updates land before the next cycle: the pending batch is
        // past its replay window, divergence (1) exceeds the budget (0).
        link.master
            .apply(UpdateOp::Add(person("f", "in", "045660", "7")))
            .unwrap();
        let t = r.sync_with(&mut link, &mut d).unwrap();
        assert_eq!(d.stats().reconciliations, 0, "budget forbids reconciliation");
        assert_eq!(d.stats().reinstalls, 1);
        assert_eq!(t.full_entries, 5, "full reload of the whole content");
        assert_eq!(r.stale_filter_count(), 0);
    }

    // ------------------------------------------------------------------
    // Sharded masters
    // ------------------------------------------------------------------

    /// Two shards: `c=a` on shard 0, `c=b` on shard 1, each master holding
    /// the skeleton plus its own country.
    fn two_shards() -> fbdr_resync::ShardedMaster {
        let map = ShardMap::by_suffixes(vec![dn("c=a,o=xyz"), dn("c=b,o=xyz")]);
        let mut m = fbdr_resync::ShardedMaster::new(map);
        for (i, c) in ["a", "b"].into_iter().enumerate() {
            let dit = m.shard_mut(ShardId::new(i as u16)).dit_mut();
            dit.add_suffix(dn("o=xyz"));
            dit.add(Entry::new(dn("o=xyz"))).unwrap();
            dit.add(Entry::new(dn(&format!("c={c},o=xyz")))).unwrap();
        }
        for (cn, c, sn) in [("e1", "a", "040001"), ("e2", "b", "040002")] {
            m.apply(UpdateOp::Add(person(cn, c, sn, "7"))).unwrap();
        }
        m
    }

    fn held_dns(r: &FilterReplica, q: &SearchRequest) -> Vec<String> {
        let hit = r.try_answer(q).expect("contained query");
        hit.iter().map(|e| e.dn().to_string()).collect()
    }

    #[test]
    fn sharded_install_syncs_each_shard_and_serves() {
        let mut m = two_shards();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let r = FilterReplica::new(0);
        let q = root_query("(serialNumber=04*)");
        let t = r.install_filter_sharded(&mut m, &mut coord, q.clone()).unwrap();
        // Both shards contributed content; hits answer locally.
        assert_eq!(t.full_entries, 2);
        assert_eq!(m.session_count(), 2, "one session per overlapped shard");
        assert_eq!(held_dns(&r, &root_query("(serialNumber=040002)")), ["cn=e2,c=b,o=xyz"]);

        // Updates land on different shards; one cycle picks up both.
        m.apply(UpdateOp::Add(person("n0", "a", "040088", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("n1", "b", "040099", "7"))).unwrap();
        let t = r.sync_with_sharded(&mut m, &mut coord).unwrap();
        assert_eq!(t.full_entries, 2);
        assert_eq!(held_dns(&r, &q).len(), 4);
        assert_eq!(r.stale_filter_count(), 0);
        // Two shard sessions opened at install plus two polled at sync.
        assert_eq!(coord.stats().attempts, 4);
        // An unsharded cycle does not touch the sharded filter's sessions.
        assert_eq!(r.sync_with(&mut m, &mut SyncDriver::default()).unwrap().pdus(), 0);
        assert_eq!(coord.stats().attempts, 4);
    }

    /// A sharded transport that fails the next `failures` polls of one
    /// shard with a hard (non-transient, non-session) error.
    struct ShardFails {
        master: fbdr_resync::ShardedMaster,
        shard: ShardId,
        failures: u32,
    }

    impl SyncTransport for ShardFails {
        fn resync(
            &mut self,
            request: &SearchRequest,
            ctl: ReSyncControl,
        ) -> Result<fbdr_resync::SyncResponse, SyncError> {
            self.master.resync(request, ctl)
        }
        fn take_receiver(&mut self, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
            self.master.take_receiver(cookie)
        }
        fn abandon(&mut self, cookie: Cookie) {
            self.master.abandon(cookie);
        }
        fn shard_count(&self) -> usize {
            self.master.shard_count()
        }
        fn resync_at(
            &mut self,
            shard: ShardId,
            request: &SearchRequest,
            ctl: ReSyncControl,
        ) -> Result<fbdr_resync::SyncResponse, SyncError> {
            if shard == self.shard && self.failures > 0 {
                self.failures -= 1;
                return Err(SyncError::MissingCookie);
            }
            self.master.resync_at(shard, request, ctl)
        }
        fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
            self.master.abandon_at(shard, cookie);
        }
        fn reconcile_at(
            &mut self,
            shard: ShardId,
            request: &SearchRequest,
            req: fbdr_resync::reconcile::ReconcileRequest,
        ) -> Result<fbdr_resync::reconcile::ReconcileResponse, SyncError> {
            self.master.reconcile_at(shard, request, req)
        }
        fn reconcile_ranges_at(
            &mut self,
            shard: ShardId,
            cookie: Cookie,
            req: &fbdr_resync::reconcile::RangeRequest,
        ) -> Result<fbdr_resync::reconcile::RangeResponse, SyncError> {
            self.master.reconcile_ranges_at(shard, cookie, req)
        }
    }

    #[test]
    fn hard_shard_failure_keeps_the_session_and_loses_no_deletion() {
        let mut t = ShardFails { master: two_shards(), shard: ShardId::new(1), failures: 0 };
        let mut coord = ShardCoordinator::new(t.master.map().clone());
        let r = FilterReplica::new(0);
        let q = root_query("(serialNumber=04*)");
        r.install_filter_sharded(&mut t, &mut coord, q.clone()).unwrap();

        // Shard 1 loses e2 and gains e3; its next poll fails hard once.
        t.master.apply(UpdateOp::Delete(dn("cn=e2,c=b,o=xyz"))).unwrap();
        t.master.apply(UpdateOp::Add(person("e3", "b", "040003", "7"))).unwrap();
        t.failures = 1;
        let err = r.sync_with_sharded(&mut t, &mut coord).unwrap_err();
        assert_eq!(err, SyncError::MissingCookie);
        assert_eq!(r.stale_filter_count(), 1, "the failed shard's slice is stale");
        assert_eq!(held_dns(&r, &q), ["cn=e1,c=a,o=xyz", "cn=e2,c=b,o=xyz"]);

        // The next clean cycle resumes the kept session: the deletion
        // lands, and shard 1 still holds exactly one session.
        r.sync_with_sharded(&mut t, &mut coord).unwrap();
        assert_eq!(r.stale_filter_count(), 0);
        assert_eq!(held_dns(&r, &q), ["cn=e1,c=a,o=xyz", "cn=e3,c=b,o=xyz"]);
        assert_eq!(t.master.shard(ShardId::new(1)).session_count(), 1);
        assert_eq!(coord.stats().reinstalls + coord.stats().reconciliations, 0);
    }

    #[test]
    fn remove_filter_abandons_every_shard_session() {
        let mut m = two_shards();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let r = FilterReplica::new(0);
        let q = root_query("(serialNumber=04*)");
        r.install_filter_sharded(&mut m, &mut coord, q.clone()).unwrap();
        assert_eq!(m.session_count(), 2);
        assert!(r.remove_filter(&mut m, &q));
        for shard in m.map().shards() {
            assert_eq!(m.shard(shard).session_count(), 0, "shard {shard} leaked a session");
        }
        assert_eq!(r.entry_count(), 0);
    }

    #[test]
    fn disconnected_persist_channel_degrades_to_polling() {
        let mut m = master();
        let r = FilterReplica::new(0);
        r.install_filter_persistent(&mut m, root_query("(departmentNumber=2406)")).unwrap();
        assert_eq!(r.entry_count(), 2);

        // A notification is queued, then the master drops every persist
        // channel (restart / connection loss).
        m.apply(UpdateOp::Add(person("e", "us", "045650", "2406"))).unwrap();
        assert_eq!(m.drop_persist_channels(), 1);

        // The queued update still lands; the filter falls back to polling.
        let t = r.drain_notifications();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.entry_count(), 3);
        assert_eq!(r.stats().poll_fallbacks, 1);
        // Draining again is a clean no-op (no double-counted fallback).
        assert_eq!(r.drain_notifications().pdus(), 0);
        assert_eq!(r.stats().poll_fallbacks, 1);

        // The session is still pollable via its cookie, and the poll
        // ledger knows what the stream already delivered: the fallback
        // poll sends only "f", not a redelivery of "e".
        m.apply(UpdateOp::Add(person("f", "in", "045660", "2406"))).unwrap();
        let t = r.sync_with(&mut m, &mut SyncDriver::default()).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(r.entry_count(), 4);
    }
}

#[cfg(test)]
mod proptests {
    //! Equivalence property: for arbitrary content and arbitrary filters,
    //! the planned/indexed evaluator and the naive scan oracle return the
    //! same entries in the same order — including across epochs where
    //! entries leave the content.

    use super::*;
    use fbdr_ldap::Filter;
    use proptest::prelude::*;

    /// Spec of one generated entry; the vector index names it. The tag
    /// byte encodes an optional attribute: values ≥ 4 mean "absent".
    type EntrySpec = (u8, u8, bool, u8);

    fn build_entry(i: usize, spec: &EntrySpec) -> Entry {
        let (dept, sn, has_mail, tag) = spec;
        let mut e = Entry::new(format!("cn=e{i},o=x").parse().unwrap())
            .with("objectclass", "person")
            .with("dept", &format!("{}", dept % 5))
            .with("sn", &format!("{}", 100_000 + (*sn as u32 % 40)));
        if *has_mail {
            e = e.with("mail", &format!("u{i}@x.com"));
        }
        if *tag < 4 {
            e = e.with("tag", &format!("t{}", tag % 3));
        }
        e
    }

    /// A replica whose single stored filter holds all generated entries,
    /// built through the real writer path (interner + incremental index).
    fn build_state(specs: &[EntrySpec]) -> (FilterReplica, ContentSnapshot, Vec<u32>) {
        let r = FilterReplica::new(0);
        let actions: Vec<SyncAction> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| SyncAction::Add(build_entry(i, s)))
            .collect();
        let mut work = Working::from_snapshot(&ContentSnapshot::empty());
        let mut refcount = HashMap::new();
        let mut sf = StoredFilter {
            prepared: PreparedQuery::new(SearchRequest::from_root(Filter::match_all())),
            ids: Vec::new(),
            stale: false,
            hits: Arc::new(AtomicU64::new(0)),
        };
        apply_actions(&mut work, &mut refcount, &mut sf, &actions);
        let ids = sf.ids.clone();
        work.filters.push(Arc::new(sf));
        (r, work.into_snapshot(), ids)
    }

    /// One leaf predicate, drawn to collide with generated values often
    /// enough to exercise non-empty plans.
    fn leaf() -> impl Strategy<Value = Filter> {
        let attr = prop_oneof![
            Just("dept".to_owned()),
            Just("sn".to_owned()),
            Just("mail".to_owned()),
            Just("tag".to_owned()),
            Just("ghost".to_owned()),
        ];
        (attr, 0u8..8, 0u8..7).prop_map(|(a, v, kind)| {
            let val = match a.as_str() {
                "dept" => format!("{}", v % 5),
                "sn" => format!("{}", 100_000 + (v as u32 % 40)),
                "mail" => format!("u{v}@x.com"),
                "tag" => format!("t{}", v % 3),
                _ => format!("{v}"),
            };
            let text = match kind {
                0 => format!("({a}={val})"),
                1 => format!("({a}>={val})"),
                2 => format!("({a}<={val})"),
                3 => format!("({a}=*)"),
                4 => {
                    // Prefix: plannable substring.
                    let cut = val.len().min(3);
                    format!("({a}={}*)", &val[..cut])
                }
                5 => {
                    // Middle substring: unplannable → scan fallback.
                    let cut = val.len().min(2);
                    format!("({a}=*{}*)", &val[val.len() - cut..])
                }
                _ => format!("(!({a}={val}))"),
            };
            Filter::parse(&text).expect("generated filter parses")
        })
    }

    /// Compose 1–3 leaves with a random connective.
    fn filter() -> impl Strategy<Value = Filter> {
        (prop::collection::vec(leaf(), 1..4), 0u8..3).prop_map(|(leaves, comb)| match comb {
            0 => Filter::and(leaves),
            1 => Filter::or(leaves),
            _ => leaves.into_iter().next().expect("non-empty"),
        })
    }

    /// Scan oracle: same verification/order/projection tail, no plan.
    fn oracle(snap: &ContentSnapshot, query: &SearchRequest, ids: &[u32]) -> Vec<Entry> {
        collect_matching(snap, query, ids)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        #[test]
        fn indexed_evaluation_matches_scan_oracle(
            specs in prop::collection::vec((0u8..8, 0u8..8, any::<bool>(), 0u8..8), 0..40),
            filters in prop::collection::vec(filter(), 1..6),
            doomed in prop::collection::vec(any::<bool>(), 0..40),
        ) {
            let (r, snap, ids) = build_state(&specs);
            for f in &filters {
                let q = SearchRequest::from_root(f.clone());
                let indexed = r.evaluate_indexed(&snap, &q, &ids);
                let scanned = oracle(&snap, &q, &ids);
                prop_assert_eq!(&indexed, &scanned, "epoch 1, filter {}", f);
            }

            // Entries leave between epochs: delete a subset through the
            // writer path and re-check equivalence on the new epoch.
            let deletes: Vec<SyncAction> = specs
                .iter()
                .enumerate()
                .filter(|(i, _)| doomed.get(*i).copied().unwrap_or(false))
                .map(|(i, s)| SyncAction::Delete(build_entry(i, s).dn().clone()))
                .collect();
            let mut work = Working::from_snapshot(&snap);
            let mut refcount: HashMap<u32, usize> =
                ids.iter().map(|&id| (id, 1usize)).collect();
            let mut sf = (*work.filters[0]).clone();
            apply_actions(&mut work, &mut refcount, &mut sf, &deletes);
            let ids2 = sf.ids.clone();
            work.filters[0] = Arc::new(sf);
            let snap2 = work.into_snapshot();
            for f in &filters {
                let q = SearchRequest::from_root(f.clone());
                let indexed = r.evaluate_indexed(&snap2, &q, &ids2);
                let scanned = oracle(&snap2, &q, &ids2);
                prop_assert_eq!(&indexed, &scanned, "epoch 2, filter {}", f);
            }
        }
    }
}
