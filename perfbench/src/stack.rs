//! The replication stack under test and the operations a workload drives
//! through it.
//!
//! A [`Stack`] is one master, one filter replica, the replica's retrying
//! sync driver and (for the paper workload) an online selector, all in
//! this process. [`Stack::exec`] runs one [`Op`]: it times the calls into
//! each layer (as spans, when the stack's ledger records), then checks
//! the outputs outside the timed region.

use crate::ledger::Ledger;
use crossbeam::channel::Receiver;
use fbdr_dit::UpdateOp;
use fbdr_ldap::{Entry, Filter, SearchRequest};
use fbdr_obs::Obs;
use fbdr_replica::FilterReplica;
use fbdr_resync::reconcile::{RangeRequest, RangeResponse, ReconcileRequest, ReconcileResponse};
use fbdr_resync::{
    entry_key, Cookie, NotifyBatch, ReSyncControl, SyncDriver, SyncError, SyncMaster, SyncResponse,
    SyncTraffic, SyncTransport,
};
use fbdr_selection::OnlineSelector;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One step of a workload's operation stream. Streams are made from the
/// seed alone, never from outcomes, so two stacks fed the same stream
/// must end in the same state.
#[derive(Debug, Clone)]
pub enum Op {
    /// A user query: selector `observe`, `try_answer`, and on a miss the
    /// master's `search` plus `cache_query`.
    Query(Arc<SearchRequest>),
    /// One budgeted online-selection step.
    Step,
    /// A master update; `serial` names the touched entry for later
    /// visibility probes. Persist-mode stacks flush notifications after.
    Update {
        /// The update.
        op: Arc<UpdateOp>,
        /// `serialNumber` of the entry it touches.
        serial: Option<Arc<str>>,
    },
    /// A replica poll cycle through the sync driver.
    Poll,
    /// Applies pending persist-mode notifications.
    Drain,
    /// Reads back every entry touched since the last probe.
    Probe,
    /// The master expires sessions idle for more than this many updates.
    Expire(u64),
    /// A poll cycle that must recover sessions the master has expired.
    Recover,
}

/// How a stack is checked and classified.
#[derive(Debug, Clone, Copy)]
pub struct StackConfig {
    /// Probes are the workload's queries (and count as such); otherwise
    /// they only measure update visibility.
    pub probes_are_queries: bool,
    /// Flush persist-mode notifications after every update.
    pub persist: bool,
    /// Check every stored filter against the master after this many
    /// drains (polls and recoveries are always checked).
    pub full_check_every_drain: u64,
}

/// Counters a workload run must reproduce exactly for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deterministic {
    /// Queries answered (including probes where they are the queries).
    pub queries: u64,
    /// Of those, answered by the replica.
    pub hits: u64,
    /// Entries returned by replica hits.
    pub results: u64,
    /// Updates applied at the master.
    pub updates: u64,
    /// Resync bytes the replica received (polls, notifications, recovery).
    pub resync_bytes: u64,
    /// Transport round trips (resync and reconcile exchanges).
    pub round_trips: u64,
    /// Reconcile digest bytes sent.
    pub digest_bytes: u64,
    /// Entries the reconcile exchanges shipped.
    pub shipped_entries: u64,
    /// Reconcile exchange rounds.
    pub reconcile_rounds: u64,
    /// Recovery bytes (recover cycles only).
    pub recovery_bytes: u64,
    /// Round trips of recover cycles.
    pub recovery_round_trips: u64,
    /// Recover cycles run.
    pub recoveries: u64,
    /// Updates applied between recoveries (the divergence recovered).
    pub recovery_updates: u64,
    /// Online-selection moves (promotions plus evictions).
    pub moves: u64,
    /// Online-selection steps.
    pub steps: u64,
    /// `try_answer` calls on the timed path (queries and probes).
    pub answer_calls: u64,
    /// Containment checks those calls ran.
    pub containment_checks: u64,
    /// Entries returned by stored-filter (not cached-query) hits.
    pub filter_hit_results: u64,
    /// Epochs the replica published.
    pub epochs: u64,
}

impl Deterministic {
    /// Every counter by name.
    pub fn fields(&self) -> [(&'static str, u64); 19] {
        [
            ("queries", self.queries),
            ("hits", self.hits),
            ("results", self.results),
            ("updates", self.updates),
            ("resync_bytes", self.resync_bytes),
            ("round_trips", self.round_trips),
            ("digest_bytes", self.digest_bytes),
            ("shipped_entries", self.shipped_entries),
            ("reconcile_rounds", self.reconcile_rounds),
            ("recovery_bytes", self.recovery_bytes),
            ("recovery_round_trips", self.recovery_round_trips),
            ("recoveries", self.recoveries),
            ("recovery_updates", self.recovery_updates),
            ("moves", self.moves),
            ("steps", self.steps),
            ("answer_calls", self.answer_calls),
            ("containment_checks", self.containment_checks),
            ("filter_hit_results", self.filter_hit_results),
            ("epochs", self.epochs),
        ]
    }
}

/// Everything measured on one stack.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed or whose output did not check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Wall time of every timed operation (the stack's work clock).
    pub work_ns: u64,
    /// Query latencies, µs.
    pub query_us: Vec<f64>,
    /// Apply-to-first-answer latencies of replica-visible updates, µs.
    pub visible_us: Vec<f64>,
    /// Running deterministic counters.
    pub det: Deterministic,
    /// The counters at the end of the workload's deterministic prefix.
    pub det_prefix: Option<Deterministic>,
    /// Replica epoch when measurement began.
    pub epoch_start: u64,
}

/// The stack under test.
pub struct Stack {
    /// The master.
    pub master: SyncMaster,
    /// The replica.
    pub replica: FilterReplica,
    /// The replica's retrying sync driver.
    pub driver: SyncDriver,
    /// Online selector, for workloads that adapt the filter set.
    pub selector: Option<OnlineSelector>,
    /// Observability handle every component records through.
    pub obs: Obs,
    /// Span recorder (off for the untraced stack).
    pub ledger: Ledger,
    /// Classification and checking.
    pub config: StackConfig,
    /// Measurements.
    pub tally: Tally,
    pending: Vec<(Arc<str>, u64)>,
    drains: u64,
    updates_at_recovery: u64,
    scans: HashMap<String, Arc<Option<Vec<Entry>>>>,
    scan_epoch: u64,
}

/// Wraps the master as the replica's transport, timing and counting each
/// exchange.
struct Wire<'a> {
    master: &'a mut SyncMaster,
    ledger: &'a Ledger,
    det: &'a mut Deterministic,
}

impl SyncTransport for Wire<'_> {
    fn resync(
        &mut self,
        request: &SearchRequest,
        ctl: ReSyncControl,
    ) -> Result<SyncResponse, SyncError> {
        self.det.round_trips += 1;
        let master = &mut *self.master;
        self.ledger
            .span("resync.exchange", || master.resync(request, ctl))
    }

    fn take_receiver(&mut self, cookie: Cookie) -> Option<Receiver<NotifyBatch>> {
        self.master.take_receiver(cookie)
    }

    fn abandon(&mut self, cookie: Cookie) {
        let master = &mut *self.master;
        self.ledger
            .span("resync.abandon", || master.abandon(cookie));
    }

    fn reconcile(
        &mut self,
        request: &SearchRequest,
        req: ReconcileRequest,
    ) -> Result<ReconcileResponse, SyncError> {
        self.det.round_trips += 1;
        self.det.reconcile_rounds += 1;
        self.det.digest_bytes += req.digest.wire_bytes();
        let master = &mut *self.master;
        let out = self
            .ledger
            .span("resync.reconcile", || master.reconcile(request, req));
        if let Ok(resp) = &out {
            self.det.shipped_entries += resp.upserts.len() as u64;
        }
        out
    }

    fn reconcile_ranges(
        &mut self,
        cookie: Cookie,
        req: &RangeRequest,
    ) -> Result<RangeResponse, SyncError> {
        self.det.round_trips += 1;
        self.det.reconcile_rounds += 1;
        let master = &mut *self.master;
        let out = self.ledger.span("resync.reconcile_ranges", || {
            master.reconcile_ranges(cookie, req)
        });
        if let Ok(resp) = &out {
            self.det.shipped_entries += resp.upserts.len() as u64;
        }
        out
    }
}

/// The point query a probe issues for an entry.
pub fn probe_request(serial: &str) -> SearchRequest {
    SearchRequest::from_root(
        Filter::parse(&format!("(serialNumber={serial})")).expect("serial probe parses"),
    )
}

fn sorted(mut v: Vec<Entry>) -> Vec<Entry> {
    v.sort_by_cached_key(entry_key);
    v
}

/// Equal as sets of entries; the common same-order case costs no copy.
fn same_entries(a: &[Entry], b: &[Entry]) -> bool {
    a.len() == b.len() && (a == b || sorted(a.to_vec()) == sorted(b.to_vec()))
}

impl Stack {
    /// Assembles a stack; measurement counters start at zero.
    pub fn new(
        master: SyncMaster,
        replica: FilterReplica,
        driver: SyncDriver,
        selector: Option<OnlineSelector>,
        obs: Obs,
        ledger: Ledger,
        config: StackConfig,
    ) -> Stack {
        let tally = Tally {
            epoch_start: replica.epoch(),
            ..Tally::default()
        };
        Stack {
            master,
            replica,
            driver,
            selector,
            obs,
            ledger,
            config,
            tally,
            pending: Vec::new(),
            drains: 0,
            updates_at_recovery: 0,
            scans: HashMap::new(),
            scan_epoch: 0,
        }
    }

    /// Marks the end of the deterministic prefix.
    pub fn seal_prefix(&mut self) {
        self.tally.det_prefix = Some(self.counters());
    }

    /// The deterministic counters so far.
    pub fn counters(&self) -> Deterministic {
        Deterministic {
            epochs: self.replica.epoch() - self.tally.epoch_start,
            ..self.tally.det
        }
    }

    fn fail(&mut self, msg: String) {
        self.tally.failed += 1;
        if self.tally.errors.len() < 8 {
            self.tally.errors.push(msg);
        }
    }

    /// Runs one operation, then checks what it produced.
    pub fn exec(&mut self, op: &Op) {
        self.tally.ops += 1;
        self.ledger.next_op();
        let outcome = match op {
            Op::Query(q) => self.query(q),
            Op::Step => self.step(),
            Op::Update { op, serial } => self.update(op, serial.clone()),
            Op::Poll => self.poll(false),
            Op::Recover => self.poll(true),
            Op::Drain => self.drain(),
            Op::Probe => self.probe(),
            Op::Expire(idle) => self.expire(*idle),
        };
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Times `f` on the work clock, as the root span `name`.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, u64) {
        let t0 = Instant::now();
        self.ledger.begin();
        let out = f(self);
        self.ledger.end(name);
        let ns = t0.elapsed().as_nanos() as u64;
        self.tally.work_ns += ns;
        (out, ns)
    }

    /// The query path of one request: answer locally, else fetch from the
    /// master and cache. Returns the answer and whether the replica hit.
    fn answer(&mut self, q: &SearchRequest, observe: bool) -> (Vec<Entry>, bool) {
        let Stack {
            master,
            replica,
            selector,
            ledger,
            ..
        } = self;
        if observe {
            if let Some(sel) = selector {
                ledger.span("selection.observe", || sel.observe(q));
            }
        }
        let local = ledger.span_by(
            || replica.try_answer(q),
            |r| {
                if r.is_some() {
                    "replica.try_answer_hit"
                } else {
                    "replica.try_answer_miss"
                }
            },
        );
        match local {
            Some(r) => (r, true),
            None => {
                let r = ledger.span("dit.search", || master.dit().search(q));
                ledger.span("replica.cache_query", || replica.cache_query(q.clone(), &r));
                (r, false)
            }
        }
    }

    fn query(&mut self, q: &SearchRequest) -> Result<(), String> {
        let before = self.replica.stats();
        let checks = self.replica.engine_stats().total();
        let ((answer, hit), ns) = self.timed("op.query", |s| s.answer(q, true));
        let cached = self.note_answer(checks, before.cache_hits, hit, answer.len());
        self.record_query(ns, hit, answer.len());
        if hit {
            self.check_hit(q, &answer, cached)?;
        }
        Ok(())
    }

    /// Accounts one timed `try_answer`; returns whether a cached query
    /// (not a stored filter) answered it.
    fn note_answer(
        &mut self,
        checks_before: u64,
        cache_hits_before: u64,
        hit: bool,
        results: usize,
    ) -> bool {
        let cached = self.replica.stats().cache_hits > cache_hits_before;
        let d = &mut self.tally.det;
        d.answer_calls += 1;
        d.containment_checks += self.replica.engine_stats().total() - checks_before;
        if hit && !cached {
            d.filter_hit_results += results as u64;
        }
        cached
    }

    fn record_query(&mut self, ns: u64, hit: bool, results: usize) {
        self.tally.query_us.push(ns as f64 / 1e3);
        self.tally.det.queries += 1;
        if hit {
            self.tally.det.hits += 1;
            self.tally.det.results += results as u64;
        }
    }

    /// A generalized hit must equal the reference scan on the same
    /// snapshot; a cached-query hit (frozen by design) must at least
    /// match the query.
    fn check_hit(
        &mut self,
        q: &SearchRequest,
        answer: &[Entry],
        cached: bool,
    ) -> Result<(), String> {
        if cached {
            if let Some(bad) = answer.iter().find(|e| !q.matches(e)) {
                return Err(format!(
                    "cached answer to {} holds non-matching {}",
                    q.filter(),
                    bad.dn()
                ));
            }
            return Ok(());
        }
        match self.reference_scan(q).as_ref() {
            Some(scan) if same_entries(answer, scan) => Ok(()),
            Some(scan) => Err(format!(
                "hit for {} returned {} entries, scan {}",
                q.filter(),
                answer.len(),
                scan.len()
            )),
            None => Err(format!(
                "hit for {} but the scan finds no containing filter",
                q.filter()
            )),
        }
    }

    /// `try_answer_scan` of `q` on the current snapshot. A scan reads only
    /// the snapshot and every publish bumps the epoch, so one scan per
    /// request and epoch serves every hit checked against it.
    fn reference_scan(&mut self, q: &SearchRequest) -> Arc<Option<Vec<Entry>>> {
        let epoch = self.replica.epoch();
        if self.scan_epoch != epoch {
            self.scans.clear();
            self.scan_epoch = epoch;
        }
        let replica = &self.replica;
        self.scans
            .entry(format!("{q:?}"))
            .or_insert_with(|| Arc::new(replica.try_answer_scan(q)))
            .clone()
    }

    fn step(&mut self) -> Result<(), String> {
        let (rep, _) = self.timed("op.step", |s| {
            let Stack {
                master,
                replica,
                selector,
                ledger,
                ..
            } = s;
            let sel = selector
                .as_mut()
                .expect("step ops only on stacks with a selector");
            ledger.span("selection.step", || sel.step(master, replica))
        });
        let rep = rep.map_err(|e| format!("selection step: {e}"))?;
        self.tally.det.steps += 1;
        self.tally.det.moves += rep.moves as u64;
        Ok(())
    }

    fn update(&mut self, op: &Arc<UpdateOp>, serial: Option<Arc<str>>) -> Result<(), String> {
        let owned = (**op).clone();
        let persist = self.config.persist;
        let start = self.tally.work_ns;
        let (res, _) = self.timed("op.update", |s| {
            let Stack { master, ledger, .. } = s;
            let res = ledger.span("resync.apply", || master.apply(owned));
            if persist {
                ledger.span("resync.flush", || master.flush_notifications(true));
            }
            res
        });
        res.map_err(|e| format!("update {op}: {e}"))?;
        self.tally.det.updates += 1;
        if let Some(serial) = serial {
            self.pending.push((serial, start));
        }
        Ok(())
    }

    fn poll(&mut self, recover: bool) -> Result<(), String> {
        let rt_before = self.tally.det.round_trips;
        let name = if recover { "op.recover" } else { "op.poll" };
        let (res, _) = self.timed(name, |s| {
            let Stack {
                master,
                replica,
                driver,
                ledger,
                tally,
                ..
            } = s;
            let mut wire = Wire {
                master,
                ledger: &*ledger,
                det: &mut tally.det,
            };
            ledger.span("replica.sync_with", || replica.sync_with(&mut wire, driver))
        });
        let traffic = res.map_err(|e| format!("sync cycle: {e}"))?;
        self.tally.det.resync_bytes += traffic.bytes;
        if recover {
            let d = &mut self.tally.det;
            d.recoveries += 1;
            d.recovery_bytes += traffic.bytes;
            d.recovery_round_trips += d.round_trips - rt_before;
            d.recovery_updates += d.updates - self.updates_at_recovery;
            self.updates_at_recovery = d.updates;
        }
        self.check_filters()
    }

    fn drain(&mut self) -> Result<(), String> {
        let (traffic, _): (SyncTraffic, _) = self.timed("op.drain", |s| {
            let Stack {
                replica, ledger, ..
            } = s;
            ledger.span("replica.drain", || replica.drain_notifications())
        });
        self.tally.det.resync_bytes += traffic.bytes;
        self.drains += 1;
        if self
            .drains
            .is_multiple_of(self.config.full_check_every_drain.max(1))
        {
            self.check_filters()?;
        }
        Ok(())
    }

    fn expire(&mut self, idle: u64) -> Result<(), String> {
        let filters = self.replica.filter_count();
        let (dropped, _) = self.timed("op.expire", |s| {
            let Stack { master, ledger, .. } = s;
            ledger.span("resync.expire_idle", || master.expire_idle(idle))
        });
        if dropped != filters {
            return Err(format!(
                "expire_idle dropped {dropped} sessions, replica holds {filters}"
            ));
        }
        Ok(())
    }

    /// Reads back each entry touched since the last probe. A replica hit
    /// must equal the master's current entry; its completion time is the
    /// update's visibility time.
    fn probe(&mut self) -> Result<(), String> {
        let pending = std::mem::take(&mut self.pending);
        let mut by_serial: Vec<(Arc<str>, Vec<u64>)> = Vec::new();
        let mut slot: HashMap<Arc<str>, usize> = HashMap::new();
        for (serial, at) in pending {
            let i = *slot.entry(serial.clone()).or_insert_with(|| {
                by_serial.push((serial, Vec::new()));
                by_serial.len() - 1
            });
            by_serial[i].1.push(at);
        }
        let as_query = self.config.probes_are_queries;
        let mut first_err = None;
        for (serial, applied) in by_serial {
            let q = probe_request(&serial);
            let before = self.replica.stats();
            let checks = self.replica.engine_stats().total();
            let ((answer, hit), ns) = self.timed("op.probe", |s| {
                if as_query {
                    s.answer(&q, false)
                } else {
                    let Stack {
                        replica, ledger, ..
                    } = s;
                    let r = ledger.span_by(
                        || replica.try_answer(&q),
                        |r| {
                            if r.is_some() {
                                "replica.try_answer_hit"
                            } else {
                                "replica.try_answer_miss"
                            }
                        },
                    );
                    let hit = r.is_some();
                    (r.unwrap_or_default(), hit)
                }
            });
            let cached = self.note_answer(checks, before.cache_hits, hit, answer.len());
            if as_query {
                self.record_query(ns, hit, answer.len());
            }
            if !hit || cached {
                continue;
            }
            let truth = self.master.dit().search(&q);
            if !same_entries(&answer, &truth) {
                first_err.get_or_insert_with(|| {
                    format!(
                        "probe {serial}: replica {} entries, master {}",
                        answer.len(),
                        truth.len()
                    )
                });
                continue;
            }
            let now = self.tally.work_ns;
            for at in applied {
                self.tally.visible_us.push((now - at) as f64 / 1e3);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Every stored filter's content must equal the master's evaluation.
    fn check_filters(&self) -> Result<(), String> {
        for (request, _) in self.replica.filters() {
            let got = self
                .replica
                .try_answer_scan(&request)
                .ok_or_else(|| format!("stored filter {} not answerable", request.filter()))?;
            let want = self.master.dit().search(&request);
            if !same_entries(&got, &want) {
                return Err(format!(
                    "filter {} holds {} entries, master {}",
                    request.filter(),
                    got.len(),
                    want.len()
                ));
            }
        }
        Ok(())
    }
}
