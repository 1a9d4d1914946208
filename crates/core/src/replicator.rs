//! The `Replicator` façade: master + filter replica + optional dynamic
//! selection behind one query interface.

use fbdr_dit::{ChangeRecord, DitError, UpdateOp};
use fbdr_ldap::{Entry, SearchRequest};
use fbdr_replica::{FilterReplica, ReplicaStats};
use fbdr_resync::{
    DriverStats, NotifyFlush, NotifyPolicy, RetryConfig, SyncDriver, SyncError, SyncMaster,
    SyncTraffic, SystemClock,
};
use fbdr_selection::{FilterSelector, OnlineReport, OnlineSelector};
use serde::{Deserialize, Serialize};

/// Who answered a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServedBy {
    /// Answered locally by the replica (a hit).
    Replica,
    /// Forwarded to the master (a miss → referral in a real deployment).
    Master,
}

/// Accumulated traffic/cost report for a [`Replicator`].
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ReplicatorReport {
    /// ReSync traffic for the currently stored filters (component (i) of
    /// §7.3 update traffic).
    pub resync_traffic: SyncTraffic,
    /// Content-load traffic from installing new filters (component (ii)).
    pub revolution_traffic: SyncTraffic,
    /// Queries forwarded to the master.
    pub wan_queries: u64,
    /// Entries fetched from the master on misses.
    pub wan_entries: u64,
    /// Revolutions performed.
    pub revolutions: u64,
    /// Budgeted online selection steps performed.
    #[serde(default)]
    pub online_steps: u64,
    /// Promote/evict moves made by online selection steps (each step is
    /// capped at the configured move budget).
    #[serde(default)]
    pub online_moves: u64,
    /// What the sync driver had to do to keep the replica converged:
    /// retries, recoveries, reconciliations, reinstalls (the robustness
    /// cost of §5.2-style failures, alongside the bandwidth cost above).
    pub driver: DriverStats,
}

/// A remote filter-based replica bound to its master directory.
///
/// Owns the [`SyncMaster`] (the simulated wide-area master) and a
/// [`FilterReplica`]; optionally a [`FilterSelector`] observes the query
/// stream and periodically *revolves* the stored filter set (§6.2).
#[derive(Debug)]
pub struct Replicator {
    master: SyncMaster,
    replica: FilterReplica,
    driver: SyncDriver<SystemClock>,
    selector: Option<FilterSelector>,
    online: Option<OnlineSelector>,
    cache_misses: bool,
    report: ReplicatorReport,
}

impl Replicator {
    /// Creates a replicator; `cache_window` recent user queries are cached
    /// (0 disables caching).
    pub fn new(master: SyncMaster, cache_window: usize) -> Self {
        Replicator {
            master,
            replica: FilterReplica::new(cache_window),
            driver: SyncDriver::default(),
            selector: None,
            online: None,
            cache_misses: cache_window > 0,
            report: ReplicatorReport::default(),
        }
    }

    /// Attaches a dynamic filter selector.
    pub fn with_selector(mut self, selector: FilterSelector) -> Self {
        self.selector = Some(selector);
        self
    }

    /// Attaches a budgeted *online* selector: instead of periodic batch
    /// revolutions, the stored filter set is adjusted by at most the
    /// selector's move budget every `step_every` queries, on the search
    /// path (see [`OnlineSelector`]).
    pub fn with_online_selector(mut self, selector: OnlineSelector) -> Self {
        self.online = Some(selector);
        self
    }

    /// Overrides the sync driver's retry policy.
    pub fn with_retry_config(mut self, config: RetryConfig) -> Self {
        self.driver = SyncDriver::new(config);
        self
    }

    /// Sets the master's persist-mode notification policy: how many raw
    /// updates are batched per session wakeup and how long they may wait
    /// ([`NotifyPolicy::coalescing`] vs the per-update default).
    pub fn with_notify_policy(mut self, policy: NotifyPolicy) -> Self {
        self.master.set_notify_policy(policy);
        self
    }

    /// Advances the master's notification clock — drive this from the
    /// deployment loop so coalescing max-delay deadlines can expire.
    pub fn advance_to(&mut self, now_ms: u64) {
        self.master.advance_to(now_ms);
    }

    /// Flushes due (or, with `force`, all) coalesced persist-mode
    /// batches; returns one [`NotifyFlush`] per session wakeup.
    pub fn flush_notifications(&mut self, force: bool) -> Vec<NotifyFlush> {
        self.master.flush_notifications(force)
    }

    /// Read access to the master.
    pub fn master(&self) -> &SyncMaster {
        &self.master
    }

    /// Read access to the replica.
    pub fn replica(&self) -> &FilterReplica {
        &self.replica
    }

    /// Traffic report.
    pub fn report(&self) -> ReplicatorReport {
        self.report
    }

    /// Replica hit statistics.
    pub fn stats(&self) -> ReplicaStats {
        self.replica.stats()
    }

    /// Installs a statically configured generalized filter.
    ///
    /// # Errors
    ///
    /// Propagates [`SyncError`] from the master.
    pub fn install_filter(&mut self, request: SearchRequest) -> Result<SyncTraffic, SyncError> {
        let t = self.replica.install_filter(&mut self.master, request)?;
        self.report.revolution_traffic.absorb(&t);
        Ok(t)
    }

    /// Answers a query: locally when possible, otherwise from the master
    /// (counting WAN traffic and, if enabled, caching the result).
    pub fn search(&mut self, query: &SearchRequest) -> (Vec<Entry>, ServedBy) {
        if let Some(sel) = &mut self.selector {
            sel.observe(query);
        }
        if let Some(on) = &mut self.online {
            on.observe(query);
        }
        if let Some(entries) = self.replica.try_answer(query) {
            self.maybe_adapt();
            return (entries, ServedBy::Replica);
        }
        let entries = self.master.dit().search(query);
        self.report.wan_queries += 1;
        self.report.wan_entries += entries.len() as u64;
        if self.cache_misses {
            self.replica.cache_query(query.clone(), &entries);
        }
        self.maybe_adapt();
        (entries, ServedBy::Master)
    }

    /// Applies an update at the master (maintaining ReSync sessions).
    ///
    /// # Errors
    ///
    /// Propagates [`DitError`] from the master's store.
    pub fn apply_update(&mut self, op: UpdateOp) -> Result<ChangeRecord, DitError> {
        self.master.apply(op)
    }

    /// Polls the master for all replicated filters, through the retrying
    /// sync driver: transient failures are retried with backoff, lost
    /// sessions are reconciled by set digest (shipping only the diverged
    /// entries) or reinstalled when divergence exceeds the budget, and a
    /// filter whose retry budget runs out is served stale until the next
    /// cycle (see [`FilterReplica::sync_with`]).
    ///
    /// # Errors
    ///
    /// Propagates non-transient [`SyncError`]s.
    pub fn sync(&mut self) -> Result<SyncTraffic, SyncError> {
        let t = self.replica.sync_with(&mut self.master, &mut self.driver)?;
        self.report.resync_traffic.absorb(&t);
        self.report.driver = self.driver.stats();
        Ok(t)
    }

    /// Cumulative counters of the attached online selector, if any.
    pub fn online_report(&self) -> Option<OnlineReport> {
        self.online.as_ref().map(|on| on.report())
    }

    /// Candidate-table size of the attached online selector, if any —
    /// useful to show consideration sets stayed a strict subset of it.
    pub fn online_candidates(&self) -> Option<usize> {
        self.online.as_ref().map(|on| on.candidate_count())
    }

    fn maybe_adapt(&mut self) {
        if let Some(sel) = &mut self.selector {
            if sel.revolution_due() {
                if let Ok(rep) = sel.revolve(&mut self.master, &mut self.replica) {
                    self.report.revolutions += 1;
                    self.report.revolution_traffic.absorb(&rep.traffic);
                }
            }
        }
        if let Some(on) = &mut self.online {
            if on.step_due() {
                if let Ok(step) = on.step(&mut self.master, &mut self.replica) {
                    self.report.online_steps += 1;
                    self.report.online_moves += step.moves as u64;
                    self.report.revolution_traffic.absorb(&step.traffic);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_ldap::Filter;
    use fbdr_selection::generalize::ValuePrefix;
    use fbdr_selection::SelectorConfig;

    fn master() -> SyncMaster {
        let mut m = SyncMaster::new();
        m.dit_mut().add_suffix("o=xyz".parse().unwrap());
        m.dit_mut().add(Entry::new("o=xyz".parse().unwrap())).unwrap();
        for i in 0..20 {
            m.dit_mut()
                .add(
                    Entry::new(format!("cn=e{i},o=xyz").parse().unwrap())
                        .with("objectclass", "person")
                        .with("serialNumber", &format!("04{:04}", i)),
                )
                .unwrap();
        }
        m
    }

    fn q(sn: &str) -> SearchRequest {
        SearchRequest::from_root(Filter::parse(&format!("(serialNumber={sn})")).unwrap())
    }

    #[test]
    fn static_filter_serves_hits() {
        let mut r = Replicator::new(master(), 0);
        r.install_filter(SearchRequest::from_root(Filter::parse("(serialNumber=040*)").unwrap()))
            .unwrap();
        let (es, served) = r.search(&q("040005"));
        assert_eq!(served, ServedBy::Replica);
        assert_eq!(es.len(), 1);
        let (_, served) = r.search(&q("041000"));
        assert_eq!(served, ServedBy::Master);
        assert_eq!(r.report().wan_queries, 1);
        assert_eq!(r.stats().hits, 1);
    }

    #[test]
    fn miss_caching_serves_repeats() {
        let mut r = Replicator::new(master(), 8);
        let (_, s1) = r.search(&q("040010"));
        assert_eq!(s1, ServedBy::Master);
        let (es, s2) = r.search(&q("040010"));
        assert_eq!(s2, ServedBy::Replica);
        assert_eq!(es.len(), 1);
        assert_eq!(r.stats().cache_hits, 1);
    }

    #[test]
    fn notify_policy_wiring_coalesces_persist_batches() {
        use fbdr_dit::Modification;
        use fbdr_resync::ReSyncControl;

        let mut m = master();
        let resp = m
            .resync(
                &SearchRequest::from_root(Filter::parse("(serialNumber=04*)").unwrap()),
                ReSyncControl::persist(None),
            )
            .unwrap();
        let rx = m.take_receiver(resp.cookie.unwrap()).unwrap();

        let mut r = Replicator::new(m, 0).with_notify_policy(NotifyPolicy::coalescing(10, 50));
        for i in 0..3 {
            r.apply_update(UpdateOp::Modify {
                dn: format!("cn=e{i},o=xyz").parse().unwrap(),
                mods: vec![Modification::Replace("mail".into(), vec![format!("e{i}@x").into()])],
            })
            .unwrap();
        }
        // Not due yet: nothing waited max_delay.
        assert!(r.flush_notifications(false).is_empty());
        r.advance_to(60);
        let flushes = r.flush_notifications(false);
        assert_eq!(flushes.len(), 1, "three updates coalesce into one wakeup");
        assert_eq!(flushes[0].coalesced_from, 3);
        let batch = rx.try_recv().unwrap();
        assert_eq!(batch.coalesced_from, 3);
        assert_eq!(batch.actions.len(), 3);
    }

    #[test]
    fn dynamic_selection_installs_hot_region() {
        let selector = FilterSelector::new(
            SelectorConfig { revolution_interval: 10, entry_budget: 50, max_candidates: 64 },
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
        );
        let mut r = Replicator::new(master(), 0).with_selector(selector);
        // 10 queries in the 0400xx region trigger a revolution.
        for i in 0..10 {
            r.search(&q(&format!("04{:04}", i % 5)));
        }
        assert_eq!(r.report().revolutions, 1);
        assert!(r.replica().filter_count() >= 1);
        let (_, served) = r.search(&q("040003"));
        assert_eq!(served, ServedBy::Replica);
    }

    #[test]
    fn online_selection_adapts_on_search_path() {
        use fbdr_selection::{OnlineConfig, OnlineSelector};

        let selector = OnlineSelector::new(
            OnlineConfig {
                entry_budget: 50,
                step_every: 10,
                move_budget: 2,
                min_dwell_steps: 0,
                ..OnlineConfig::default()
            },
            vec![Box::new(ValuePrefix::new("serialNumber", vec![4]))],
        );
        let mut r = Replicator::new(master(), 0).with_online_selector(selector);
        for i in 0..20 {
            r.search(&q(&format!("04{:04}", i % 5)));
        }
        let rep = r.report();
        assert_eq!(rep.online_steps, 2, "a step every 10 queries");
        assert!(rep.online_moves >= 1, "hot region promoted");
        assert!(rep.online_moves <= 4, "two steps × move budget 2");
        assert!(r.replica().filter_count() >= 1);
        let (_, served) = r.search(&q("040003"));
        assert_eq!(served, ServedBy::Replica);
        assert_eq!(r.online_report().unwrap().steps, 2);
    }

    #[test]
    fn sync_after_update_propagates() {
        let mut r = Replicator::new(master(), 0);
        r.install_filter(SearchRequest::from_root(Filter::parse("(serialNumber=040*)").unwrap()))
            .unwrap();
        r.apply_update(UpdateOp::Add(
            Entry::new("cn=new,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "040099"),
        ))
        .unwrap();
        let t = r.sync().unwrap();
        assert_eq!(t.full_entries, 1);
        let (es, served) = r.search(&q("040099"));
        assert_eq!(served, ServedBy::Replica);
        assert_eq!(es.len(), 1);
        // The cycle ran through the driver: one clean attempt, no drama.
        let d = r.report().driver;
        assert_eq!(d.attempts, 1);
        assert_eq!(d.retries, 0);
        assert_eq!(d.exhausted, 0);
    }
}
