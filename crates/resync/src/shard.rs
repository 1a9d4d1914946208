//! Sharded masters: the directory partitioned across several
//! [`SyncMaster`]s by naming context, behind one facade.
//!
//! A [`ShardedMaster`] owns one `SyncMaster` per shard of a
//! [`ShardMap`]; updates route to the shard owning the target DN, so
//! each shard maintains its own `RoutingIndex`, replay buffers and
//! reconcile stash over just its slice of the DIT. Because the shard
//! map partitions by subtree suffix and each shard's store holds only
//! its own slice, a search region that spans shards is answered by
//! evaluating per-shard sub-requests and concatenating — the union is
//! exactly the unsharded answer.
//!
//! On the replica side a [`ShardCoordinator`] drives one ReSync session
//! per shard a filter overlaps: it splits the filter's base/scope with
//! [`ShardMap::split`], merges the per-shard cookies into a
//! [`CompositeCookie`], and runs the one recovery ladder
//! ([`SyncDriver::sync_session`]) *independently per shard* — a slow or
//! partitioned shard degrades to stale content for its slice while the
//! other shards keep serving fresh updates. An unsharded replica is the
//! one-shard case of the same code ([`ShardMap::single`]).

use crate::driver::{Clock, DriverStats, RetryConfig, SyncDriver, SyncTransport, SystemClock};
use crate::master::{GcConfig, GcReport, MasterFootprint, NotifyFlush, NotifyPolicy};
use crate::protocol::{
    Cookie, NotifyBatch, ReSyncControl, SyncAction, SyncError, SyncResponse, SyncTraffic,
};
use crate::reconcile::{
    RangeRequest, RangeResponse, ReconcileConfig, ReconcileItem, ReconcileRequest,
    ReconcileResponse,
};
use crate::SyncMaster;
use crossbeam::channel::Receiver;
use fbdr_dit::{ChangeRecord, DitError, UpdateOp};
use fbdr_ldap::{Dn, Entry, SearchRequest};
use fbdr_net::{ShardId, ShardMap};
use fbdr_obs::Obs;
use serde::{Deserialize, Serialize};

// ----------------------------------------------------------------------
// Composite cookie
// ----------------------------------------------------------------------

/// The resumption state of one filter across a sharded master: one
/// [`Cookie`] per shard holding a live session.
///
/// Parts are kept sorted by shard id, and (de)serialization goes through
/// the sorted form, so the wire encoding is byte-stable no matter in
/// which order shards completed their exchanges — two composite cookies
/// with the same sessions always serialize identically.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompositeCookie {
    parts: Vec<(ShardId, Cookie)>,
}

impl Serialize for CompositeCookie {
    fn serialize<S: serde::Serializer>(&self, ser: S) -> Result<S::Ok, S::Error> {
        // `parts` is sorted by shard id by construction, so this is the
        // canonical byte-stable form.
        ser.collect_seq(self.parts.iter())
    }
}

impl<'de> Deserialize<'de> for CompositeCookie {
    fn deserialize<D: serde::Deserializer<'de>>(de: D) -> Result<Self, D::Error> {
        // Normalize on the way in, so even a hand-reordered encoding
        // round-trips to the canonical form.
        Ok(CompositeCookie::from(Vec::<(ShardId, Cookie)>::deserialize(de)?))
    }
}

impl CompositeCookie {
    /// An empty composite (no live sessions).
    pub fn new() -> Self {
        CompositeCookie::default()
    }

    /// The cookie for `shard`, if a session is live there.
    pub fn get(&self, shard: ShardId) -> Option<Cookie> {
        self.parts
            .binary_search_by_key(&shard, |(s, _)| *s)
            .ok()
            .map(|i| self.parts[i].1)
    }

    /// Sets (or replaces) the cookie for `shard`.
    pub fn insert(&mut self, shard: ShardId, cookie: Cookie) {
        match self.parts.binary_search_by_key(&shard, |(s, _)| *s) {
            Ok(i) => self.parts[i].1 = cookie,
            Err(i) => self.parts.insert(i, (shard, cookie)),
        }
    }

    /// Drops the cookie for `shard` (the session ended or died).
    pub fn remove(&mut self, shard: ShardId) -> Option<Cookie> {
        self.parts
            .binary_search_by_key(&shard, |(s, _)| *s)
            .ok()
            .map(|i| self.parts.remove(i).1)
    }

    /// Shard/cookie pairs, ascending by shard id.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, Cookie)> + '_ {
        self.parts.iter().copied()
    }

    /// Number of live per-shard sessions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when no shard holds a session.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }
}

impl From<Vec<(ShardId, Cookie)>> for CompositeCookie {
    fn from(mut parts: Vec<(ShardId, Cookie)>) -> Self {
        parts.sort_by_key(|(s, _)| *s);
        parts.dedup_by_key(|(s, _)| *s);
        CompositeCookie { parts }
    }
}

impl From<CompositeCookie> for Vec<(ShardId, Cookie)> {
    fn from(c: CompositeCookie) -> Self {
        c.parts
    }
}

// ----------------------------------------------------------------------
// Sharded master
// ----------------------------------------------------------------------

/// Several [`SyncMaster`]s jointly serving one namespace, partitioned by
/// a [`ShardMap`].
///
/// Updates route to the shard owning the target DN
/// ([`UpdateOp::target`]); searches and session establishment split by
/// base/scope. As a [`SyncTransport`] the facade is fully
/// shard-addressable through the `_at` legs; the plain legs serve
/// requests that stay within one shard (they route by the request
/// base's owner), while the cookie-only plain legs (`take_receiver`,
/// `abandon`, `reconcile_ranges`) are inert — a bare cookie does not
/// identify a shard, and per-shard session ids collide across shards,
/// so only the `_at` forms can act safely.
#[derive(Debug, Serialize, Deserialize)]
pub struct ShardedMaster {
    map: ShardMap,
    shards: Vec<SyncMaster>,
}

impl ShardedMaster {
    /// Creates a sharded master with one empty [`SyncMaster`] per shard
    /// of `map`. Populate each shard's slice via
    /// [`ShardedMaster::shard_mut`].
    pub fn new(map: ShardMap) -> Self {
        let shards = (0..map.shard_count()).map(|_| SyncMaster::new()).collect();
        ShardedMaster { map, shards }
    }

    /// Wraps pre-built masters, one per shard of `map` (shard `i` ↔
    /// `masters[i]`).
    ///
    /// # Panics
    ///
    /// Panics when the count does not match the map.
    pub fn from_masters(map: ShardMap, masters: Vec<SyncMaster>) -> Self {
        assert_eq!(masters.len(), map.shard_count(), "one master per shard");
        ShardedMaster { map, shards: masters }
    }

    /// The shard map in force.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Read access to one shard's master.
    pub fn shard(&self, shard: ShardId) -> &SyncMaster {
        &self.shards[shard.index()]
    }

    /// Mutable access to one shard's master (e.g. to load its DIT slice).
    pub fn shard_mut(&mut self, shard: ShardId) -> &mut SyncMaster {
        &mut self.shards[shard.index()]
    }

    /// Applies one update at the shard owning its target DN.
    ///
    /// # Errors
    ///
    /// Propagates [`DitError`] from the owning shard's store.
    pub fn apply(&mut self, op: UpdateOp) -> Result<ChangeRecord, DitError> {
        let shard = self.map.shard_of(op.target());
        self.shards[shard.index()].apply(op)
    }

    /// Applies a batch: ops are partitioned by owning shard (preserving
    /// per-shard order) and each shard applies its part as one batch.
    /// Records come back in the original op order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`DitError`]; earlier shards' batches stay
    /// applied (same per-op semantics as [`SyncMaster::apply_batch`]).
    pub fn apply_batch(
        &mut self,
        ops: impl IntoIterator<Item = UpdateOp>,
    ) -> Result<Vec<ChangeRecord>, DitError> {
        let ops: Vec<UpdateOp> = ops.into_iter().collect();
        let mut buckets: Vec<(Vec<usize>, Vec<UpdateOp>)> =
            (0..self.shards.len()).map(|_| (Vec::new(), Vec::new())).collect();
        for (i, op) in ops.into_iter().enumerate() {
            let shard = self.map.shard_of(op.target());
            buckets[shard.index()].0.push(i);
            buckets[shard.index()].1.push(op);
        }
        let mut out: Vec<Option<ChangeRecord>> = Vec::new();
        out.resize_with(buckets.iter().map(|(idx, _)| idx.len()).sum(), || None);
        for (shard, (indices, part)) in buckets.into_iter().enumerate() {
            if part.is_empty() {
                continue;
            }
            let records = self.shards[shard].apply_batch(part)?;
            for (i, r) in indices.into_iter().zip(records) {
                out[i] = Some(r);
            }
        }
        Ok(out.into_iter().map(|r| r.expect("every op was routed")).collect())
    }

    /// Answers a search by evaluating the per-shard splits and
    /// concatenating; results come back in hierarchical DN order.
    ///
    /// Each shard's answer is restricted to the entries the map assigns
    /// to it: shards hold disjoint *owned* slices, but glue entries (the
    /// suffix skeleton above a shard's subtrees) are materialized on
    /// every shard, and an over-covering clamped sub-request would
    /// otherwise return those copies once per shard.
    pub fn search(&self, request: &SearchRequest) -> Vec<Entry> {
        let mut out = Vec::new();
        for (shard, sub) in self.map.split(request) {
            out.extend(
                self.shards[shard.index()]
                    .dit()
                    .search(&sub)
                    .into_iter()
                    .filter(|e| self.map.shard_of(e.dn()) == shard),
            );
        }
        out.sort_by(|a, b| a.dn().cmp_hierarchical(b.dn()));
        out
    }

    /// Total updates applied across all shards.
    pub fn ops_applied(&self) -> u64 {
        self.shards.iter().map(SyncMaster::ops_applied).sum()
    }

    /// Total live sessions across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(SyncMaster::session_count).sum()
    }

    /// Drops every shard's live persist channels (e.g. a network
    /// disconnect hitting the whole deployment). Returns the number of
    /// channels dropped across all shards; sessions stay pollable.
    pub fn drop_persist_channels(&mut self) -> usize {
        self.shards.iter_mut().map(SyncMaster::drop_persist_channels).sum()
    }

    /// Sets the persist-mode notification policy on every shard.
    pub fn set_notify_policy(&mut self, policy: NotifyPolicy) {
        for shard in &mut self.shards {
            shard.set_notify_policy(policy);
        }
    }

    /// Attaches one observability handle to every shard: counters and
    /// histograms from all shards aggregate into the same registry.
    pub fn set_obs(&mut self, obs: Obs) {
        for shard in &mut self.shards {
            shard.set_obs(obs.clone());
        }
    }

    /// Advances every shard's notification clock to `now_ms` (monotonic).
    pub fn advance_to(&mut self, now_ms: u64) {
        for shard in &mut self.shards {
            shard.advance_to(now_ms);
        }
    }

    /// Flushes due coalesced notifications on every shard (see
    /// [`SyncMaster::flush_notifications`]). Returns one record per
    /// wakeup, tagged with the shard it fired on, in shard order.
    pub fn flush_notifications(&mut self, force: bool) -> Vec<(ShardId, NotifyFlush)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let id = ShardId::new(i as u16);
            out.extend(shard.flush_notifications(force).into_iter().map(|f| (id, f)));
        }
        out
    }

    /// Total persist-mode wakeups sent across all shards.
    pub fn notify_wakeups(&self) -> u64 {
        self.shards.iter().map(SyncMaster::notify_wakeups).sum()
    }

    /// Total raw updates carried by those wakeups across all shards.
    pub fn notify_updates(&self) -> u64 {
        self.shards.iter().map(SyncMaster::notify_updates).sum()
    }

    /// Total notification-queue overflows (channel teardowns) across all
    /// shards.
    pub fn notify_overflows(&self) -> u64 {
        self.shards.iter().map(SyncMaster::notify_overflows).sum()
    }

    /// Sets every shard's garbage-collector knobs (see [`GcConfig`]).
    pub fn set_gc_config(&mut self, gc: GcConfig) {
        for shard in &mut self.shards {
            shard.set_gc_config(gc);
        }
    }

    /// Bounds every shard's replay buffer (see
    /// [`SyncMaster::set_replay_expiry_ops`]).
    pub fn set_replay_expiry_ops(&mut self, ops: u64) {
        for shard in &mut self.shards {
            shard.set_replay_expiry_ops(ops);
        }
    }

    /// Runs one causal-stability collection pass on every shard (see
    /// [`SyncMaster::collect_garbage`]) and returns the summed report.
    pub fn collect_garbage(&mut self) -> GcReport {
        let mut report = GcReport::default();
        for shard in &mut self.shards {
            report.merge(shard.collect_garbage());
        }
        report
    }

    /// The fleet's stability watermark: the minimum of every shard's (the
    /// slowest acknowledger anywhere pins it). `None` when no shard has
    /// sessions.
    pub fn stability_watermark(&self) -> Option<u64> {
        self.shards.iter().filter_map(SyncMaster::stability_watermark).min()
    }

    /// The worst per-shard stability lag (each shard's op counter runs
    /// independently, so lags are comparable per shard, not summed).
    pub fn stability_lag(&self) -> u64 {
        self.shards.iter().map(SyncMaster::stability_lag).max().unwrap_or(0)
    }

    /// Summed deterministic byte accounting across all shards (see
    /// [`SyncMaster::memory_footprint`]).
    pub fn memory_footprint(&self) -> MasterFootprint {
        let mut f = MasterFootprint::default();
        for shard in &self.shards {
            f.merge(shard.memory_footprint());
        }
        f
    }
}

impl SyncTransport for ShardedMaster {
    fn resync(
        &mut self,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        let shard = self.map.shard_of(request.base());
        self.shards[shard.index()].resync(request, ctl)
    }

    fn take_receiver(&mut self, _cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        // A bare cookie does not identify a shard; see the type docs.
        None
    }

    fn abandon(&mut self, _cookie: Cookie) {
        // Inert: session ids collide across shards, so acting on a bare
        // cookie could kill an unrelated shard's session.
    }

    fn reconcile(
        &mut self,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        let shard = self.map.shard_of(request.base());
        self.shards[shard.index()].reconcile(request, req)
    }

    fn reconcile_ranges(
        &mut self,
        _cookie: Cookie,
        _req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        Err(SyncError::ReconcileFailed(
            "a bare cookie does not identify a shard; use reconcile_ranges_at".into(),
        ))
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn resync_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.shards[shard.index()].resync(request, ctl)
    }

    fn take_receiver_at(&mut self, shard: ShardId, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.shards[shard.index()].take_receiver(cookie)
    }

    fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
        self.shards[shard.index()].abandon(cookie);
    }

    fn reconcile_at(
        &mut self,
        shard: ShardId,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        self.shards[shard.index()].reconcile(request, req)
    }

    fn reconcile_ranges_at(
        &mut self,
        shard: ShardId,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.shards[shard.index()].reconcile_ranges(cookie, req)
    }
}

// ----------------------------------------------------------------------
// Replica-side coordinator
// ----------------------------------------------------------------------

/// The replica's view of one filter's held content, sliced by shard —
/// what the coordinator needs to reconcile or reinstall a single shard
/// without touching the others.
pub trait ShardContent {
    /// Reconciliation items (item hash + replica-local id) for the held
    /// entries owned by `shard`.
    fn items(&self, shard: ShardId) -> Vec<ReconcileItem>;

    /// Resolves a normalized DN key to the replica-local id of a held
    /// item on `shard` (as used to build [`ShardContent::items`]).
    fn resolve(&self, shard: ShardId, key: &str) -> Option<u32>;

    /// The DN of the held item `id` on `shard`.
    fn dn_of(&self, shard: ShardId, id: u32) -> Option<Dn>;

    /// DNs of all held entries owned by `shard` (deleted wholesale
    /// before a reinstall replays the shard's content).
    fn held_dns(&self, shard: ShardId) -> Vec<Dn>;
}

/// How one shard's exchange ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// Incremental update delivered on the existing session.
    Updated,
    /// Session was re-established by a reconciliation exchange.
    Reconciled,
    /// Session was re-established by a full content reinstall.
    Reinstalled,
    /// Transient failure; the shard's slice is served stale until the
    /// next cycle (its cookie, if any, is kept for resumption).
    Stale,
    /// Hard failure; the shard's slice is served stale and its cookie
    /// is kept, so the next cycle resumes the same session.
    Failed(SyncError),
}

/// The outcome of one shard's session step
/// ([`SyncDriver::sync_session`]): the actions to apply to this shard's
/// slice (already including reinstall-preceding deletes), the cookie to
/// hold from now on, plus status and traffic.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// Which shard.
    pub shard: ShardId,
    /// Actions for the replica to apply, in order.
    pub actions: Vec<SyncAction>,
    /// Status of the exchange.
    pub status: ShardStatus,
    /// The session cookie to hold for the shard: the fresh one after an
    /// update, reconcile or reinstall, the prior one when the step was
    /// stale or failed.
    pub cookie: Option<Cookie>,
    /// Traffic cost of the exchange(s) for this shard.
    pub traffic: SyncTraffic,
}

impl ShardOutcome {
    /// True when the shard delivered fresh content this cycle.
    pub fn is_fresh(&self) -> bool {
        matches!(
            self.status,
            ShardStatus::Updated | ShardStatus::Reconciled | ShardStatus::Reinstalled
        )
    }

    /// A step that delivered `resp` on a live session.
    pub(crate) fn fresh(shard: ShardId, status: ShardStatus, resp: SyncResponse) -> Self {
        ShardOutcome {
            shard,
            traffic: resp.traffic(),
            actions: resp.actions,
            status,
            cookie: resp.cookie,
        }
    }

    /// A step that ended on `error` with nothing to apply: stale when the
    /// error is transient, failed otherwise; the `prior` cookie is kept.
    pub(crate) fn kept(shard: ShardId, prior: Option<Cookie>, error: SyncError) -> Self {
        let status = if error.is_transient() {
            ShardStatus::Stale
        } else {
            ShardStatus::Failed(error)
        };
        ShardOutcome {
            shard,
            actions: Vec::new(),
            status,
            cookie: prior,
            traffic: SyncTraffic::default(),
        }
    }
}

/// Drives one filter's per-shard ReSync sessions against a sharded
/// transport, each shard independently: retries, the
/// reconcile-vs-reinstall ladder, and serve-stale degradation are all
/// per shard, so one slow or partitioned shard cannot stall the rest.
///
/// Holds one [`SyncDriver`] per shard — per-shard retry state, jitter
/// streams and robustness counters.
#[derive(Debug)]
pub struct ShardCoordinator<C: Clock = SystemClock> {
    map: ShardMap,
    drivers: Vec<SyncDriver<C>>,
}

impl ShardCoordinator<SystemClock> {
    /// A coordinator on wall-clock time with default retry/reconcile
    /// policies.
    pub fn new(map: ShardMap) -> Self {
        ShardCoordinator::with_config(map, RetryConfig::default(), ReconcileConfig::default())
    }

    /// A coordinator with explicit retry and reconcile policies (applied
    /// to every shard's driver; per-shard jitter seeds are decorrelated).
    pub fn with_config(map: ShardMap, retry: RetryConfig, reconcile: ReconcileConfig) -> Self {
        let drivers = (0..map.shard_count())
            .map(|i| {
                let seed = retry.jitter_seed ^ (i as u64).wrapping_mul(0xA076_1D64_78BD_642F);
                SyncDriver::new(RetryConfig { jitter_seed: seed, ..retry })
                    .with_reconcile(reconcile)
            })
            .collect();
        ShardCoordinator { map, drivers }
    }
}

impl<C: Clock> ShardCoordinator<C> {
    /// A coordinator over explicit per-shard drivers (e.g. on simulated
    /// clocks in tests).
    ///
    /// # Panics
    ///
    /// Panics when the driver count does not match the map.
    pub fn with_drivers(map: ShardMap, drivers: Vec<SyncDriver<C>>) -> Self {
        assert_eq!(drivers.len(), map.shard_count(), "one driver per shard");
        ShardCoordinator { map, drivers }
    }

    /// The shard map in force.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// One shard's driver.
    pub fn driver(&self, shard: ShardId) -> &SyncDriver<C> {
        &self.drivers[shard.index()]
    }

    /// Robustness counters aggregated across every shard's driver.
    pub fn stats(&self) -> DriverStats {
        let mut out = DriverStats::default();
        for d in &self.drivers {
            out.absorb(&d.stats());
        }
        out
    }

    /// Establishes one session per shard the filter overlaps and returns
    /// the initial content actions, the composite cookie, and the load
    /// traffic. All-or-nothing: on any failure the sessions already
    /// established are abandoned and the error propagates.
    ///
    /// # Errors
    ///
    /// The first [`SyncError`] any shard's exchange produced (after that
    /// shard's retry budget).
    pub fn install(
        &mut self,
        transport: &mut dyn SyncTransport,
        request: &SearchRequest,
    ) -> Result<(Vec<SyncAction>, CompositeCookie, SyncTraffic), SyncError> {
        let mut actions = Vec::new();
        let mut cookie = CompositeCookie::new();
        let mut traffic = SyncTraffic::default();
        for (shard, sub) in self.map.split(request) {
            let r = self.drivers[shard.index()].resync(
                transport,
                shard,
                &sub,
                ReSyncControl::poll(None),
            );
            match r {
                Ok(resp) => {
                    traffic.absorb(&resp.traffic());
                    actions.extend(resp.actions);
                    if let Some(c) = resp.cookie {
                        cookie.insert(shard, c);
                    }
                }
                Err(e) => {
                    for (s, c) in cookie.iter() {
                        transport.abandon_at(s, c);
                    }
                    return Err(e);
                }
            }
        }
        Ok((actions, cookie, traffic))
    }

    /// Runs one sync cycle for the filter: every overlapped shard takes
    /// one [`SyncDriver::sync_session`] step on its own driver (see
    /// [`sync_shards`]).
    ///
    /// Never fails as a whole: per-shard hard failures come back as
    /// [`ShardStatus::Failed`] while the other shards' outcomes stand.
    pub fn sync_filter(
        &mut self,
        transport: &mut dyn SyncTransport,
        request: &SearchRequest,
        cookie: &mut CompositeCookie,
        content: &dyn ShardContent,
    ) -> Vec<ShardOutcome> {
        sync_shards(&self.map, &mut self.drivers, transport, request, cookie, content)
    }
}

/// One session step ([`SyncDriver::sync_session`]) for every shard of
/// `map` that `request` overlaps, shard `s` on `drivers[s]`, each with
/// its own slice of the sub-request and of the held `content`. The
/// cookie each step ends with is merged back into `cookie`.
///
/// # Panics
///
/// Panics when `drivers` has no driver for an overlapped shard.
pub fn sync_shards<C: Clock>(
    map: &ShardMap,
    drivers: &mut [SyncDriver<C>],
    transport: &mut dyn SyncTransport,
    request: &SearchRequest,
    cookie: &mut CompositeCookie,
    content: &dyn ShardContent,
) -> Vec<ShardOutcome> {
    map.split(request)
        .into_iter()
        .map(|(shard, sub)| {
            let out = drivers[shard.index()].sync_session(
                transport,
                shard,
                &sub,
                cookie.get(shard),
                content,
            );
            match out.cookie {
                Some(c) => cookie.insert(shard, c),
                None => {
                    cookie.remove(shard);
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::{Filter, Scope};

    fn dn(s: &str) -> Dn {
        s.parse().unwrap()
    }

    fn person(cn: &str, country: &str, dept: &str) -> Entry {
        Entry::new(dn(&format!("cn={cn},c={country},o=xyz")))
            .with("objectclass", "person")
            .with("dept", dept)
    }

    /// Two shards: c=a on shard 0, c=b on shard 1.
    fn sharded() -> ShardedMaster {
        let map = ShardMap::by_suffixes(vec![dn("c=a,o=xyz"), dn("c=b,o=xyz")]);
        let mut m = ShardedMaster::new(map);
        for (i, cc) in ["a", "b"].iter().enumerate() {
            let s = m.shard_mut(ShardId::new(i as u16));
            s.dit_mut().add_suffix(dn("o=xyz"));
            s.dit_mut().add(Entry::new(dn("o=xyz"))).unwrap();
            s.dit_mut()
                .add(Entry::new(dn(&format!("c={cc},o=xyz"))).with("objectclass", "country"))
                .unwrap();
        }
        m
    }

    fn subtree(base: &str, filter: &str) -> SearchRequest {
        SearchRequest::new(dn(base), Scope::Subtree, Filter::parse(filter).unwrap())
    }

    #[test]
    fn updates_route_to_owning_shard() {
        let mut m = sharded();
        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        assert_eq!(m.shard(ShardId::new(0)).ops_applied(), 1);
        assert_eq!(m.shard(ShardId::new(1)).ops_applied(), 1);
        assert_eq!(m.ops_applied(), 2);
    }

    #[test]
    fn batch_preserves_original_record_order() {
        let mut m = sharded();
        let records = m
            .apply_batch(vec![
                UpdateOp::Add(person("e1", "b", "7")),
                UpdateOp::Add(person("e2", "a", "7")),
                UpdateOp::Delete(dn("cn=e1,c=b,o=xyz")),
            ])
            .unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].dn, dn("cn=e1,c=b,o=xyz"));
        assert_eq!(records[1].dn, dn("cn=e2,c=a,o=xyz"));
        assert_eq!(records[2].dn, dn("cn=e1,c=b,o=xyz"));
    }

    #[test]
    fn search_unions_shard_slices() {
        let mut m = sharded();
        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e3", "b", "9"))).unwrap();
        let hits = m.search(&subtree("o=xyz", "(dept=7)"));
        let dns: Vec<String> = hits.iter().map(|e| e.dn().to_string()).collect();
        assert_eq!(dns, vec!["cn=e1,c=a,o=xyz", "cn=e2,c=b,o=xyz"]);
    }

    #[test]
    fn composite_cookie_serde_is_order_stable() {
        let mut fwd = CompositeCookie::new();
        fwd.insert(ShardId::new(0), Cookie::new(1, 2));
        fwd.insert(ShardId::new(3), Cookie::new(4, 5));
        let mut rev = CompositeCookie::new();
        rev.insert(ShardId::new(3), Cookie::new(4, 5));
        rev.insert(ShardId::new(0), Cookie::new(1, 2));
        let a = serde_json::to_string(&fwd).unwrap();
        let b = serde_json::to_string(&rev).unwrap();
        assert_eq!(a, b, "insertion order must not leak into the encoding");
        let back: CompositeCookie = serde_json::from_str(&a).unwrap();
        assert_eq!(back, fwd);
        // Even an unsorted encoding normalizes on decode.
        let unsorted = serde_json::to_string(&vec![
            (ShardId::new(3), Cookie::new(4, 5)),
            (ShardId::new(0), Cookie::new(1, 2)),
        ])
        .unwrap();
        assert_ne!(unsorted, a);
        let c: CompositeCookie = serde_json::from_str(&unsorted).unwrap();
        assert_eq!(serde_json::to_string(&c).unwrap(), a);
    }

    #[test]
    fn coordinator_installs_and_polls_across_shards() {
        let mut m = sharded();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let req = subtree("o=xyz", "(dept=7)");

        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        let (actions, mut cookie, _) = coord.install(&mut m, &req).unwrap();
        assert_eq!(actions.len(), 2);
        assert_eq!(cookie.len(), 2, "one session per overlapped shard");
        assert_eq!(m.session_count(), 2);

        // An update on shard 1 reaches only shard 1's session.
        m.apply(UpdateOp::Add(person("e3", "b", "7"))).unwrap();
        let outs = m.map().split(&req).len();
        let content = NoContent;
        let outcomes = coord.sync_filter(&mut m, &req, &mut cookie, &content);
        assert_eq!(outcomes.len(), outs);
        let total: usize = outcomes.iter().map(|o| o.actions.len()).sum();
        assert_eq!(total, 1);
        assert!(outcomes.iter().all(|o| o.status == ShardStatus::Updated));
    }

    /// A content view for tests that hold nothing locally.
    struct NoContent;
    impl ShardContent for NoContent {
        fn items(&self, _shard: ShardId) -> Vec<ReconcileItem> {
            Vec::new()
        }
        fn resolve(&self, _shard: ShardId, _key: &str) -> Option<u32> {
            None
        }
        fn dn_of(&self, _shard: ShardId, _id: u32) -> Option<Dn> {
            None
        }
        fn held_dns(&self, _shard: ShardId) -> Vec<Dn> {
            Vec::new()
        }
    }

    #[test]
    fn dead_session_on_one_shard_reconciles_only_that_shard() {
        let mut m = sharded();
        let mut coord = ShardCoordinator::new(m.map().clone());
        let req = subtree("o=xyz", "(dept=7)");
        m.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        m.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        let (_, mut cookie, _) = coord.install(&mut m, &req).unwrap();

        // Kill shard 1's session behind the coordinator's back.
        let c1 = cookie.get(ShardId::new(1)).unwrap();
        m.shard_mut(ShardId::new(1)).abandon(c1);

        m.apply(UpdateOp::Add(person("e3", "b", "7"))).unwrap();
        let outcomes = coord.sync_filter(&mut m, &req, &mut cookie, &NoContent);
        let by_shard =
            |s: u16| outcomes.iter().find(|o| o.shard == ShardId::new(s)).unwrap();
        assert_eq!(by_shard(0).status, ShardStatus::Updated);
        // Divergence is unknown for a vanished session: reconcile first.
        assert_eq!(by_shard(1).status, ShardStatus::Reconciled);
        // Nothing is held locally, so reconciliation ships the full slice.
        assert_eq!(by_shard(1).actions.len(), 2);
        assert_eq!(coord.stats().reconciliations, 1);
        assert_eq!(coord.stats().reinstalls, 0);
        // Both shards hold live sessions again; the next poll is clean.
        assert_eq!(cookie.len(), 2);
        let outcomes = coord.sync_filter(&mut m, &req, &mut cookie, &NoContent);
        assert!(outcomes.iter().all(|o| o.status == ShardStatus::Updated));
    }

    /// A sharded transport predating reconciliation: the shard-addressed
    /// poll legs only, so the reconcile legs keep their failing defaults.
    struct NoReconcile(ShardedMaster);

    impl SyncTransport for NoReconcile {
        fn resync(
            &mut self,
            request: &SearchRequest,
            ctl: ReSyncControl,
        ) -> Result<SyncResponse, SyncError> {
            self.0.resync(request, ctl)
        }
        fn take_receiver(&mut self, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
            self.0.take_receiver(cookie)
        }
        fn abandon(&mut self, cookie: Cookie) {
            self.0.abandon(cookie);
        }
        fn shard_count(&self) -> usize {
            self.0.shard_count()
        }
        fn resync_at(
            &mut self,
            shard: ShardId,
            request: &SearchRequest,
            ctl: ReSyncControl,
        ) -> Result<SyncResponse, SyncError> {
            self.0.resync_at(shard, request, ctl)
        }
        fn abandon_at(&mut self, shard: ShardId, cookie: Cookie) {
            self.0.abandon_at(shard, cookie);
        }
    }

    /// A content view holding exactly `dns`, all on shard 1.
    struct HeldOnShard1(Vec<Dn>);

    impl ShardContent for HeldOnShard1 {
        fn items(&self, _shard: ShardId) -> Vec<ReconcileItem> {
            Vec::new()
        }
        fn resolve(&self, _shard: ShardId, _key: &str) -> Option<u32> {
            None
        }
        fn dn_of(&self, _shard: ShardId, _id: u32) -> Option<Dn> {
            None
        }
        fn held_dns(&self, shard: ShardId) -> Vec<Dn> {
            if shard == ShardId::new(1) {
                self.0.clone()
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn dead_session_without_reconcile_legs_reinstalls_that_shard() {
        let mut t = NoReconcile(sharded());
        let mut coord = ShardCoordinator::new(t.0.map().clone());
        let req = subtree("o=xyz", "(dept=7)");
        t.0.apply(UpdateOp::Add(person("e1", "a", "7"))).unwrap();
        t.0.apply(UpdateOp::Add(person("e2", "b", "7"))).unwrap();
        let (_, mut cookie, _) = coord.install(&mut t, &req).unwrap();

        let c1 = cookie.get(ShardId::new(1)).unwrap();
        t.0.shard_mut(ShardId::new(1)).abandon(c1);
        t.0.apply(UpdateOp::Add(person("e3", "b", "7"))).unwrap();

        let held = HeldOnShard1(vec![dn("cn=e2,c=b,o=xyz")]);
        let outcomes = coord.sync_filter(&mut t, &req, &mut cookie, &held);
        let by_shard =
            |s: u16| outcomes.iter().find(|o| o.shard == ShardId::new(s)).unwrap();
        assert_eq!(by_shard(0).status, ShardStatus::Updated);
        assert_eq!(by_shard(1).status, ShardStatus::Reinstalled);
        // The held slice is deleted, then the fresh slice replayed.
        let out = &by_shard(1).actions;
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], SyncAction::Delete(dn("cn=e2,c=b,o=xyz")));
        assert!(out[1..].iter().all(|a| matches!(a, SyncAction::Add(_))));
        assert_eq!(by_shard(1).traffic.full_entries, 2);
        assert_eq!(coord.stats().reconciliations, 0);
        assert_eq!(coord.stats().reinstalls, 1);
        assert_eq!(cookie.len(), 2);
        assert_eq!(t.0.shard(ShardId::new(1)).session_count(), 1);
    }
}
