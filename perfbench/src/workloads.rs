//! The four workloads: their seeded inputs, how each builds its stack,
//! and the operation stream each drives through it.

use crate::ledger::Ledger;
use crate::stack::{Op, Stack, StackConfig};
use fbdr_dit::{Modification, UpdateOp};
use fbdr_ldap::{AttrName, Entry, Filter, SearchRequest};
use fbdr_obs::Obs;
use fbdr_replica::FilterReplica;
use fbdr_resync::{dn_key, SyncDriver, SyncMaster};
use fbdr_selection::generalize::{Generalizer, ValuePrefix, WidenToPresence};
use fbdr_selection::{OnlineConfig, OnlineSelector};
use fbdr_workload::{
    DirectoryConfig, EnterpriseDirectory, TraceConfig, TraceGenerator, UpdateConfig,
    UpdateGenerator,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Directory scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `DirectoryConfig::default()`: 20k employees, 50k queries a day.
    Paper,
    /// `DirectoryConfig::small()`: 1.2k employees; for the harness's own
    /// tests.
    Small,
}

impl Scale {
    /// Parses `paper` / `small`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "paper" => Some(Scale::Paper),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }

    /// The name `parse` accepts.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Small => "small",
        }
    }
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Day-2 trace replay with online selection, updates and polls.
    PaperDay2,
    /// Large prefix/range answers from a replica holding three quarters
    /// of the directory.
    WideAnswers,
    /// Persist-mode filters under an update stream, probed per update.
    PersistUpdates,
    /// Session loss and reconcile recovery, episode after episode.
    SessionRecovery,
}

impl Kind {
    /// Every workload the binary runs.
    pub const ALL: [Kind; 4] = [
        Kind::PaperDay2,
        Kind::WideAnswers,
        Kind::PersistUpdates,
        Kind::SessionRecovery,
    ];

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperDay2 => "paper_day2",
            Kind::WideAnswers => "wide_answers",
            Kind::PersistUpdates => "persist_updates",
            Kind::SessionRecovery => "session_recovery",
        }
    }
}

/// Workload parameters for one scale.
#[derive(Debug, Clone)]
pub struct Params {
    /// Directory configuration.
    pub dir: DirectoryConfig,
    /// paper_day2: queries per day.
    pub day_queries: usize,
    /// Queries between updates (paper_day2, wide_answers). At paper
    /// scale the paper's daily rate, 50k queries to 3k updates, as the
    /// experiment harness's `Params::update_every` derives it.
    pub update_every: usize,
    /// Queries between polls (paper_day2, wide_answers); the experiment
    /// harness's `sync_every` at paper scale.
    pub sync_every: usize,
    /// paper_day2: selector entry budget; 10% of the employees.
    pub entry_budget: usize,
    /// paper_day2: recent-query cache window.
    pub cache_window: usize,
    /// persist_updates: persist-mode filters.
    pub persist_filters: usize,
    /// session_recovery: poll-mode filters.
    pub recovery_filters: usize,
    /// session_recovery: serial prefix length of its filters.
    pub recovery_prefix_len: usize,
    /// session_recovery: updates missed per episode.
    pub gap: usize,
    /// persist_updates: drains between full content checks.
    pub full_check_every_drain: u64,
    /// Operations of the deterministic prefix, per workload.
    pub prefix_ops: [u64; 4],
}

impl Params {
    /// Parameters for a scale.
    pub fn new(scale: Scale) -> Params {
        match scale {
            Scale::Paper => Params {
                dir: DirectoryConfig::default(),
                day_queries: 50_000,
                update_every: 16,
                sync_every: 500,
                entry_budget: 2_000,
                cache_window: 32,
                persist_filters: 200,
                recovery_filters: 8,
                recovery_prefix_len: 3,
                gap: 400,
                full_check_every_drain: 100,
                prefix_ops: [60_000, 2_200, 30_000, 30 * 403],
            },
            Scale::Small => Params {
                dir: DirectoryConfig::small(),
                day_queries: 4_000,
                update_every: 10,
                sync_every: 200,
                entry_budget: 240,
                cache_window: 32,
                persist_filters: 12,
                recovery_filters: 4,
                recovery_prefix_len: 4,
                gap: 60,
                full_check_every_drain: 20,
                prefix_ops: [1_000, 450, 600, 10 * 63],
            },
        }
    }
}

/// SplitMix64 of `seed ^ salt`: independent sub-seeds from the run seed.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = (seed ^ salt).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle from the seeded generator.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn req(filter: &str) -> SearchRequest {
    SearchRequest::from_root(Filter::parse(filter).expect("workload filter parses"))
}

/// Everything a workload's stacks and its operation stream are made of,
/// generated from the seed.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// Its parameters.
    pub params: Params,
    /// The run seed.
    pub seed: u64,
    /// The generated directory.
    pub dir: EnterpriseDirectory,
    /// Filters installed when a stack is built.
    pub filters: Vec<SearchRequest>,
    /// paper_day2: the training day the selector observes.
    pub training: Vec<SearchRequest>,
    /// The query pool the stream draws from (the day-2 trace, in order,
    /// for paper_day2; the distinct wide queries otherwise).
    pub queries: Vec<Arc<SearchRequest>>,
}

fn serial_prefixes(dir: &EnterpriseDirectory, len: usize) -> Vec<String> {
    let mut p: Vec<String> = dir
        .employees()
        .iter()
        .map(|e| e.serial[..len].to_owned())
        .collect();
    p.sort();
    p.dedup();
    p
}

impl Inputs {
    /// Generates the inputs of `kind` at `scale` from `seed`.
    pub fn generate(kind: Kind, scale: Scale, seed: u64) -> Inputs {
        let params = Params::new(scale);
        // The directory is the same at every seed; the seed drives the
        // updates, the filter choice and the query order.
        let dir = EnterpriseDirectory::generate(params.dir.clone());
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 0x1AB5));
        let mut inputs = Inputs {
            kind,
            params,
            seed,
            dir,
            filters: Vec::new(),
            training: Vec::new(),
            queries: Vec::new(),
        };
        match kind {
            Kind::PaperDay2 => inputs.paper_day2(),
            Kind::WideAnswers => inputs.wide_answers(&mut rng),
            Kind::PersistUpdates => {
                let mut p = serial_prefixes(&inputs.dir, 5);
                shuffle(&mut p, &mut rng);
                let n = inputs.params.persist_filters;
                inputs.filters = p[..n]
                    .iter()
                    .map(|s| req(&format!("(serialNumber={s}*)")))
                    .collect();
            }
            Kind::SessionRecovery => {
                let mut p = serial_prefixes(&inputs.dir, inputs.params.recovery_prefix_len);
                shuffle(&mut p, &mut rng);
                let n = inputs.params.recovery_filters.min(p.len());
                inputs.filters = p[..n]
                    .iter()
                    .map(|s| req(&format!("(serialNumber={s}*)")))
                    .collect();
            }
        }
        inputs
    }

    /// The paper's two days are one fixed trace, as in the paper's
    /// capture; the seed drives the update stream interleaved with it.
    fn paper_day2(&mut self) {
        let day = self.params.day_queries;
        let cfg = TraceConfig {
            seed: 0x7ACE,
            queries: day * 2,
            ..TraceConfig::default()
        };
        let mut both = TraceGenerator::new(&self.dir, &cfg).generate(&self.dir, &cfg);
        let day2 = both.split_off(day);
        self.training = both.into_iter().map(|q| q.request).collect();
        self.queries = day2.into_iter().map(|q| Arc::new(q.request)).collect();
    }

    /// A prefix filter over the lower half of the serial numbers and a
    /// range filter over the next quarter. The queries come in three
    /// equal groups by answer size: two-digit-longer prefixes of the
    /// first filter (a hundredth of its block), ranges of half a tenth
    /// inside the second, and the ten one-digit-longer prefixes plus ten
    /// ranges of a full tenth. The median query then always lies in the
    /// middle group, whatever mix a stretch of the run happens to ask.
    fn wide_answers(&mut self, rng: &mut StdRng) {
        let mut serials: Vec<u64> = self
            .dir
            .employees()
            .iter()
            .map(|e| e.serial.parse().expect("numeric serial"))
            .collect();
        serials.sort_unstable();
        let n = serials.len() as u64;
        let lo = serials[0];
        // The longest decimal prefix whose block holds at most half the
        // directory: at paper scale "10" (100000..109999).
        let mut block = 10u64.pow(lo.to_string().len() as u32 - 1);
        while block > n / 2 {
            block /= 10;
        }
        let prefix = (lo / block).to_string();
        let range_lo = lo + block;
        let range_hi = range_lo + block / 2 - 1;
        self.filters = vec![
            req(&format!("(serialNumber={prefix}*)")),
            req(&format!(
                "(&(serialNumber>={range_lo})(serialNumber<={range_hi}))"
            )),
        ];
        let mut range = |width: u64| {
            let start = range_lo + rng.gen_range(0..=(block / 2 - width));
            req(&format!(
                "(&(serialNumber>={start})(serialNumber<={}))",
                start + width - 1
            ))
        };
        let tenth = block / 10;
        let mut pool = Vec::new();
        pool.extend((0..20).map(|_| range(tenth / 2)));
        pool.extend((0..10).map(|_| range(tenth)));
        pool.extend((0..10).map(|d| req(&format!("(serialNumber={prefix}{d}*)"))));
        let mut two: Vec<u32> = (0..100).collect();
        shuffle(&mut two, rng);
        pool.extend(
            two[..20]
                .iter()
                .map(|dd| req(&format!("(serialNumber={prefix}{dd:02}*)"))),
        );
        self.queries = pool.into_iter().map(Arc::new).collect();
    }

    fn stack_config(&self) -> StackConfig {
        StackConfig {
            probes_are_queries: matches!(self.kind, Kind::PersistUpdates | Kind::SessionRecovery),
            persist: self.kind == Kind::PersistUpdates,
            full_check_every_drain: self.params.full_check_every_drain,
        }
    }

    /// Builds a stack: master over a copy of the directory, replica with
    /// its filters installed (paper_day2: the selector trained on day 1).
    pub fn build_stack(&self, obs: Obs, ledger: Ledger) -> Stack {
        let mut master = SyncMaster::with_dit(self.dir.dit().clone());
        master.set_obs(obs.clone());
        let window = if self.kind == Kind::PaperDay2 {
            self.params.cache_window
        } else {
            0
        };
        let mut replica = FilterReplica::with_obs(window, obs.clone());
        let driver = SyncDriver::default().with_obs(obs.clone());
        let mut selector = None;
        match self.kind {
            Kind::PaperDay2 => {
                let gens: Vec<Box<dyn Generalizer + Send>> = vec![
                    Box::new(ValuePrefix::new("serialNumber", vec![4])),
                    Box::new(WidenToPresence::new("dept")),
                ];
                let config = OnlineConfig {
                    entry_budget: self.params.entry_budget,
                    ..OnlineConfig::default()
                };
                let mut sel = OnlineSelector::new(config, gens).with_obs(obs.clone());
                for q in &self.training {
                    sel.observe(q);
                    if sel.step_due() {
                        sel.step(&mut master, &mut replica)
                            .expect("training step installs");
                    }
                }
                selector = Some(sel);
            }
            Kind::PersistUpdates => {
                for f in &self.filters {
                    replica
                        .install_filter_persistent(&mut master, f.clone())
                        .expect("persist install");
                }
            }
            Kind::WideAnswers | Kind::SessionRecovery => {
                for f in &self.filters {
                    replica
                        .install_filter(&mut master, f.clone())
                        .expect("install");
                }
            }
        }
        Stack::new(
            master,
            replica,
            driver,
            selector,
            obs,
            ledger,
            self.stack_config(),
        )
    }

    /// The operation stream over these inputs.
    pub fn stream(&self) -> OpStream<'_> {
        let serial_of: HashMap<String, Arc<str>> = self
            .dir
            .employees()
            .iter()
            .map(|e| {
                (
                    dn_key(&e.dn_string.parse().expect("employee dn")),
                    Arc::from(e.serial.as_str()),
                )
            })
            .collect();
        OpStream {
            kind: self.kind,
            seed: self.seed,
            queries: self.queries.clone(),
            dir: &self.dir,
            update_buf: VecDeque::new(),
            chunk: 0,
            serial_of,
            rng: StdRng::seed_from_u64(sub_seed(self.seed, 0x57EA)),
            round: Vec::new(),
            queue: VecDeque::new(),
            emitted_queries: 0,
            training_len: self.training.len() as u64,
            step_every: OnlineConfig::default().step_every,
            update_every: self.params.update_every as u64,
            sync_every: self.params.sync_every as u64,
            gap: self.params.gap as u64,
        }
    }

    /// Parameters worth recording next to the results.
    pub fn describe(&self) -> Vec<(&'static str, String)> {
        let p = &self.params;
        let mut out = vec![
            ("employees", p.dir.employees.to_string()),
            ("directory_entries", self.dir.dit().len().to_string()),
            ("filters_installed", self.filters.len().to_string()),
        ];
        match self.kind {
            Kind::PaperDay2 => out.extend([
                ("day_queries", p.day_queries.to_string()),
                ("update_every_queries", p.update_every.to_string()),
                ("sync_every_queries", p.sync_every.to_string()),
                ("entry_budget", p.entry_budget.to_string()),
                ("cache_window", p.cache_window.to_string()),
            ]),
            Kind::WideAnswers => out.extend([
                ("distinct_queries", self.queries.len().to_string()),
                ("update_every_queries", p.update_every.to_string()),
                ("sync_every_queries", p.sync_every.to_string()),
            ]),
            Kind::PersistUpdates => out.push((
                "full_check_every_drain",
                p.full_check_every_drain.to_string(),
            )),
            Kind::SessionRecovery => out.push(("gap_updates", p.gap.to_string())),
        }
        out
    }
}

/// Updates per excursion leg: an excursion is this many generated
/// updates, then their inverses in reverse order.
pub const EXCURSION_UPDATES: usize = 500;

/// The seeded operation stream of a workload. It never looks at a
/// stack, so every stack fed from it sees the same operations.
///
/// Updates come in excursions: a leg of freshly generated updates, then
/// the inverse of each in reverse order, which leaves the directory as
/// set up. The state a stretch of the run measures is then the same
/// however far a run gets, so a faster or slower host does not move the
/// workload itself (a plain stream would delete more than a tenth of the
/// replicated entries within a `persist_updates` run, at a pace set by
/// the host).
pub struct OpStream<'a> {
    kind: Kind,
    seed: u64,
    queries: Vec<Arc<SearchRequest>>,
    dir: &'a EnterpriseDirectory,
    update_buf: VecDeque<UpdateOp>,
    chunk: u64,
    serial_of: HashMap<String, Arc<str>>,
    rng: StdRng,
    round: Vec<usize>,
    queue: VecDeque<Op>,
    emitted_queries: u64,
    training_len: u64,
    step_every: u64,
    update_every: u64,
    sync_every: u64,
    gap: u64,
}

const SERIAL: &str = "serialNumber";

/// The inverse of `op` against the entry `before` it (absent for an add).
fn inverse(op: &UpdateOp, before: Option<&Entry>) -> UpdateOp {
    match (op, before) {
        (UpdateOp::Add(e), None) => UpdateOp::Delete(e.dn().clone()),
        (UpdateOp::Delete(_), Some(old)) => UpdateOp::Add(old.clone()),
        (UpdateOp::Modify { dn, mods }, Some(old)) => UpdateOp::Modify {
            dn: dn.clone(),
            mods: mods
                .iter()
                .map(|m| {
                    Modification::Replace(m.attr().clone(), old.values(m.attr()).cloned().collect())
                })
                .collect(),
        },
        _ => panic!("update {op} has no inverse against the generated stream"),
    }
}

/// The entry after `op`, from the entry before it.
fn after(op: &UpdateOp, before: Option<Entry>) -> Option<Entry> {
    match op {
        UpdateOp::Add(e) => Some(e.clone()),
        UpdateOp::Delete(_) => None,
        UpdateOp::Modify { mods, .. } => before.map(|mut e| {
            for m in mods {
                let Modification::Replace(a, vs) = m else {
                    panic!("the update generator emits only replacements, not {m:?}")
                };
                e.replace(a.clone(), vs.iter().cloned());
            }
            e
        }),
        _ => panic!("update {op} is not generated by the update stream"),
    }
}

/// One excursion: `leg` generated updates, then their inverses in
/// reverse order. Applied in order to the directory's DIT, it is valid
/// throughout and ends in the state it started from.
pub fn excursion(dir: &EnterpriseDirectory, seed: u64, leg: usize) -> Vec<UpdateOp> {
    let dit = dir.dit();
    let cfg = UpdateConfig {
        seed,
        ops: leg,
        ..UpdateConfig::default()
    };
    let forward = UpdateGenerator::new(dir).generate(&cfg);
    let mut state: HashMap<String, Option<Entry>> = HashMap::new();
    let mut back = Vec::with_capacity(forward.len());
    for op in &forward {
        let key = dn_key(op.target());
        let before = state
            .get(&key)
            .cloned()
            .unwrap_or_else(|| dit.get(op.target()).cloned());
        back.push(inverse(op, before.as_ref()));
        state.insert(key, after(op, before));
    }
    back.reverse();
    let mut out = forward;
    out.extend(back);
    out
}

impl OpStream<'_> {
    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        if self.queue.is_empty() {
            self.refill();
        }
        self.queue
            .pop_front()
            .expect("refill queues at least one op")
    }

    fn next_update(&mut self) -> Op {
        if self.update_buf.is_empty() {
            self.chunk += 1;
            let seed = sub_seed(self.seed, 0x0BDA_7E00 + self.chunk);
            self.update_buf
                .extend(excursion(self.dir, seed, EXCURSION_UPDATES));
        }
        let op = self.update_buf.pop_front().expect("chunk is non-empty");
        let serial = match &op {
            UpdateOp::Add(e) => {
                let s: Option<Arc<str>> = e
                    .first_value(&AttrName::from(SERIAL))
                    .map(|v| Arc::from(v.raw()));
                if let Some(s) = &s {
                    self.serial_of.insert(dn_key(e.dn()), s.clone());
                }
                s
            }
            other => self.serial_of.get(&dn_key(other.target())).cloned(),
        };
        Op::Update {
            op: Arc::new(op),
            serial,
        }
    }

    fn push_query(&mut self, q: Arc<SearchRequest>) {
        self.queue.push_back(Op::Query(q));
        self.emitted_queries += 1;
        let n = self.emitted_queries;
        if self.kind == Kind::PaperDay2 && (self.training_len + n).is_multiple_of(self.step_every) {
            self.queue.push_back(Op::Step);
        }
        if n.is_multiple_of(self.update_every) {
            let u = self.next_update();
            self.queue.push_back(u);
        }
        if n.is_multiple_of(self.sync_every) {
            self.queue.push_back(Op::Poll);
            self.queue.push_back(Op::Probe);
        }
    }

    fn refill(&mut self) {
        match self.kind {
            Kind::PaperDay2 => {
                // Day 2 in order, wrapping around when a run outlasts it.
                let i = self.emitted_queries as usize % self.queries.len();
                let q = self.queries[i].clone();
                self.push_query(q);
            }
            Kind::WideAnswers => {
                // Rounds of the whole pool in seeded order, so every
                // stretch of a run asks the same mix.
                let n = self.queries.len();
                let i = self.emitted_queries as usize % n;
                if i == 0 {
                    let mut order: Vec<usize> = (0..n).collect();
                    shuffle(&mut order, &mut self.rng);
                    self.round = order;
                }
                let q = self.queries[self.round[i]].clone();
                self.push_query(q);
            }
            Kind::PersistUpdates => {
                let u = self.next_update();
                self.queue.extend([u, Op::Drain, Op::Probe]);
            }
            Kind::SessionRecovery => {
                for _ in 0..self.gap {
                    let u = self.next_update();
                    self.queue.push_back(u);
                }
                self.queue
                    .extend([Op::Expire(self.gap / 2), Op::Recover, Op::Probe]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::DitStore;

    fn content(dit: &DitStore) -> Vec<Entry> {
        let mut v: Vec<Entry> = dit.iter().cloned().collect();
        v.sort_by_cached_key(fbdr_resync::entry_key);
        v
    }

    #[test]
    fn an_excursion_applies_cleanly_and_returns_the_directory() {
        let dir = EnterpriseDirectory::generate(DirectoryConfig::small());
        let mut dit = dir.dit().clone();
        for seed in 0..3 {
            let ops = excursion(&dir, seed, 300);
            assert_eq!(ops.len(), 600);
            for op in ops {
                dit.apply(op.clone())
                    .unwrap_or_else(|e| panic!("{op}: {e}"));
            }
            assert!(content(&dit) == content(dir.dit()), "seed {seed}");
        }
    }
}
