//! The metric catalogue, how each metric is computed from a run, and the
//! report that goes with every result.

use crate::ledger::Ledger;
use crate::stack::{Deterministic, Stack};
use crate::stats::{median, ratio, tail, Tail};
use crate::{setup_seconds, Options, Run};
use serde_json::Value;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by an untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_p99_us", "us"),
    ("queries_per_s", "1/s"),
    ("hit_ratio", "ratio"),
    ("update_visible_p50_us", "us"),
    ("update_visible_p99_us", "us"),
    ("updates_per_s", "1/s"),
    ("resync_bytes_per_update", "B"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("replica.try_answer_hit_us", "us"),
    ("replica.results_per_query", "count"),
    ("replica.plan_candidates_per_result", "ratio"),
    ("replica.try_answer_miss_us", "us"),
    ("replica.cache_query_us", "us"),
    ("dit.search_us", "us"),
    ("containment.checks_per_query", "count"),
    ("containment.decision_cache_hit_ratio", "ratio"),
    ("containment.check_ns", "ns"),
    ("selection.observe_us", "us"),
    ("selection.step_ms", "ms"),
    ("selection.step_p99_ms", "ms"),
    ("selection.moves_per_step", "count"),
    ("replica.sync_cycle_ms", "ms"),
    ("resync.exchange_us", "us"),
    ("resync.apply_us", "us"),
    ("resync.route_candidates_per_update", "count"),
    ("resync.notify_wakeups_per_update", "count"),
    ("replica.drain_us", "us"),
    ("replica.index_build_us", "us"),
    ("replica.epochs_published", "count"),
    ("resync.reconcile_rounds", "count"),
    ("resync.reconcile_digest_bytes", "B"),
    ("resync.reconcile_shipped_entries", "count"),
    ("resync.recovery_ms", "ms"),
    ("resync.recovery_bytes_per_update", "B"),
    ("resync.recovery_round_trips", "count"),
    ("workload.generate_s", "s"),
    ("replica.install_s", "s"),
    ("obs.tracing_overhead_pct", "%"),
    ("trace.unexplained_pct", "%"),
    ("ledger.replica_self_pct", "%"),
    ("ledger.dit_self_pct", "%"),
    ("ledger.resync_self_pct", "%"),
    ("ledger.selection_self_pct", "%"),
];

/// A traced run fails when more than this share of operation time lies
/// outside every layer span: the ledger would no longer explain the cost.
const MAX_UNEXPLAINED_PCT: f64 = 10.0;

/// Histograms the program fills when the traced stack attaches `Obs`.
const OBS_HISTOGRAMS: &[&str] = &[
    "fbdr_containment_check_ns",
    "fbdr_replica_plan_candidates",
    "fbdr_replica_index_build_ns",
    "fbdr_resync_route_candidates",
    "fbdr_resync_exchange_ns",
    "fbdr_resync_reconcile_exchange_ns",
];

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No operation failed and every output checked.
    pub correct: bool,
    /// Operations attempted (across both stacks of a traced run).
    pub attempted: u64,
    /// Operations that failed or mismatched.
    pub failed: u64,
    /// The metrics of the run's mode, in catalogue order.
    pub metrics: Vec<Metric>,
    /// The deterministic counters of the measured stack's prefix.
    pub deterministic: Deterministic,
    /// Envelope and details: build, host, parameters, tails, ledger.
    pub report: Value,
}

impl Outcome {
    /// `error_rate`: failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        ratio(self.failed as f64, self.attempted as f64)
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ]);
                (m.name.to_owned(), v)
            })
            .collect();
        let line = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("metrics serialize")
    }
}

fn catalogue(
    list: &'static [(&'static str, &'static str)],
    values: &BTreeMap<&str, f64>,
) -> Vec<Metric> {
    list.iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: values.get(name).copied().unwrap_or(0.0),
        })
        .collect()
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct EndToEnd {
    values: BTreeMap<&'static str, f64>,
    query_tail: Tail,
    visible_tail: Tail,
}

fn end_to_end(stack: &Stack, setup_s: f64) -> EndToEnd {
    let t = &stack.tally;
    let det = t.det_prefix.unwrap_or_else(|| stack.counters());
    let work_s = t.work_ns as f64 / 1e9;
    let query_tail = tail(&t.query_us);
    let visible_tail = tail(&t.visible_us);
    let values = BTreeMap::from([
        ("setup_s", setup_s),
        ("query_p50_us", median(&t.query_us)),
        ("query_p99_us", query_tail.value),
        ("queries_per_s", ratio(t.query_us.len() as f64, work_s)),
        ("hit_ratio", ratio(det.hits as f64, det.queries as f64)),
        ("update_visible_p50_us", median(&t.visible_us)),
        ("update_visible_p99_us", visible_tail.value),
        ("updates_per_s", ratio(t.det.updates as f64, work_s)),
        (
            "resync_bytes_per_update",
            ratio(det.resync_bytes as f64, det.updates as f64),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ]);
    EndToEnd {
        values,
        query_tail,
        visible_tail,
    }
}

fn span_median(ledger: &Ledger, name: &str, scale: f64) -> f64 {
    median(
        &ledger
            .agg(name)
            .durations
            .iter()
            .map(|&d| d as f64 / scale)
            .collect::<Vec<_>>(),
    )
}

fn histogram_mean(stack: &Stack, name: &str) -> f64 {
    stack.obs.registry().histogram(name).snapshot().mean()
}

struct PerLayer {
    values: BTreeMap<&'static str, f64>,
    step_tail: Tail,
}

fn per_layer(run: &Run) -> PerLayer {
    let stack = &run.stack;
    let led = &stack.ledger;
    let det = stack.tally.det_prefix.unwrap_or_else(|| stack.counters());
    let dc = stack.replica.decision_cache_stats();
    let step_ms: Vec<f64> = led
        .agg("selection.step")
        .durations
        .iter()
        .map(|&d| d as f64 / 1e6)
        .collect();
    let step_tail = tail(&step_ms);
    let aggs = led.aggregates();
    let op_total: u64 = aggs
        .iter()
        .filter(|(k, _)| k.starts_with("op."))
        .map(|(_, a)| a.total_ns)
        .sum();
    let op_self: u64 = aggs
        .iter()
        .filter(|(k, _)| k.starts_with("op."))
        .map(|(_, a)| a.self_ns)
        .sum();
    let layer_pct = |layer: &str| {
        let self_ns: u64 = aggs
            .iter()
            .filter(|(k, _)| k.split('.').next() == Some(layer))
            .map(|(_, a)| a.self_ns)
            .sum();
        100.0 * ratio(self_ns as f64, op_total as f64)
    };
    let twin_ns = run.twin.as_ref().map_or(0, |t| t.tally.work_ns) as f64;
    let route = stack
        .obs
        .registry()
        .histogram("fbdr_resync_route_candidates")
        .snapshot();
    let recoveries = det.recoveries as f64;
    let (generate, install) = run.setups.first().copied().unwrap_or_default();
    let values = BTreeMap::from([
        (
            "replica.try_answer_hit_us",
            span_median(led, "replica.try_answer_hit", 1e3),
        ),
        (
            "replica.results_per_query",
            ratio(det.results as f64, det.hits as f64),
        ),
        (
            "replica.plan_candidates_per_result",
            ratio(
                stack
                    .obs
                    .registry()
                    .histogram("fbdr_replica_plan_candidates")
                    .snapshot()
                    .sum as f64,
                stack.counters().filter_hit_results as f64,
            ),
        ),
        (
            "replica.try_answer_miss_us",
            span_median(led, "replica.try_answer_miss", 1e3),
        ),
        (
            "replica.cache_query_us",
            span_median(led, "replica.cache_query", 1e3),
        ),
        ("dit.search_us", span_median(led, "dit.search", 1e3)),
        (
            "containment.checks_per_query",
            ratio(det.containment_checks as f64, det.answer_calls as f64),
        ),
        (
            "containment.decision_cache_hit_ratio",
            ratio(dc.hits as f64, (dc.hits + dc.misses) as f64),
        ),
        (
            "containment.check_ns",
            histogram_mean(stack, "fbdr_containment_check_ns"),
        ),
        (
            "selection.observe_us",
            span_median(led, "selection.observe", 1e3),
        ),
        ("selection.step_ms", median(&step_ms)),
        ("selection.step_p99_ms", step_tail.value),
        (
            "selection.moves_per_step",
            ratio(det.moves as f64, det.steps as f64),
        ),
        ("replica.sync_cycle_ms", span_median(led, "op.poll", 1e6)),
        (
            "resync.exchange_us",
            span_median(led, "resync.exchange", 1e3),
        ),
        ("resync.apply_us", span_median(led, "resync.apply", 1e3)),
        (
            "resync.route_candidates_per_update",
            ratio(route.sum as f64, route.count as f64),
        ),
        (
            "resync.notify_wakeups_per_update",
            ratio(
                stack.master.notify_wakeups() as f64,
                stack.counters().updates as f64,
            ),
        ),
        ("replica.drain_us", span_median(led, "replica.drain", 1e3)),
        (
            "replica.index_build_us",
            histogram_mean(stack, "fbdr_replica_index_build_ns") / 1e3,
        ),
        ("replica.epochs_published", det.epochs as f64),
        (
            "resync.reconcile_rounds",
            ratio(det.reconcile_rounds as f64, recoveries),
        ),
        (
            "resync.reconcile_digest_bytes",
            ratio(det.digest_bytes as f64, recoveries),
        ),
        (
            "resync.reconcile_shipped_entries",
            ratio(det.shipped_entries as f64, recoveries),
        ),
        ("resync.recovery_ms", span_median(led, "op.recover", 1e6)),
        (
            "resync.recovery_bytes_per_update",
            ratio(det.recovery_bytes as f64, det.recovery_updates as f64),
        ),
        (
            "resync.recovery_round_trips",
            ratio(det.recovery_round_trips as f64, recoveries),
        ),
        ("workload.generate_s", generate),
        ("replica.install_s", install),
        (
            "obs.tracing_overhead_pct",
            100.0 * (ratio(stack.tally.work_ns as f64, twin_ns) - 1.0),
        ),
        (
            "trace.unexplained_pct",
            100.0 * ratio(op_self as f64, op_total as f64),
        ),
        ("ledger.replica_self_pct", layer_pct("replica")),
        ("ledger.dit_self_pct", layer_pct("dit")),
        ("ledger.resync_self_pct", layer_pct("resync")),
        ("ledger.selection_self_pct", layer_pct("selection")),
    ]);
    PerLayer { values, step_tail }
}

fn tail_json(t: &Tail) -> Value {
    Value::Map(vec![
        ("quantile".into(), Value::F64(t.quantile)),
        ("value".into(), Value::F64(t.value)),
        ("samples".into(), Value::U64(t.samples as u64)),
    ])
}

fn map_f64(values: &BTreeMap<&str, f64>) -> Value {
    Value::Map(
        values
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Value::F64(*v)))
            .collect(),
    )
}

fn str_pairs(pairs: &[(&str, String)]) -> Value {
    Value::Map(
        pairs
            .iter()
            .map(|(k, v)| ((*k).to_owned(), Value::Str(v.clone())))
            .collect(),
    )
}

fn counters_json(d: &Deterministic) -> Value {
    Value::Map(
        d.fields()
            .iter()
            .map(|&(k, v)| (k.to_owned(), Value::U64(v)))
            .collect(),
    )
}

/// Build and host envelope, so results compare across revisions.
pub fn envelope() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Value::Map(vec![
        (
            "git_rev".into(),
            Value::Str(env!("PERFBENCH_GIT_REV").into()),
        ),
        (
            "source_digest".into(),
            Value::Str(env!("PERFBENCH_SOURCE_DIGEST").into()),
        ),
        ("rustc".into(), Value::Str(env!("PERFBENCH_RUSTC").into())),
        (
            "profile".into(),
            Value::Str(env!("PERFBENCH_PROFILE").into()),
        ),
        ("nproc".into(), Value::U64(nproc)),
        ("os".into(), Value::Str(std::env::consts::OS.into())),
        ("arch".into(), Value::Str(std::env::consts::ARCH.into())),
    ])
}

/// Turns a run into its outcome.
pub fn outcome(opts: &Options, run: &Run) -> Outcome {
    let stack = &run.stack;
    let setup_s = setup_seconds(&run.setups);
    let e2e = end_to_end(stack, setup_s);
    let mut attempted = stack.tally.ops;
    let mut failed = stack.tally.failed;
    let mut errors: Vec<String> = stack.tally.errors.clone();
    if let Some(twin) = &run.twin {
        attempted += twin.tally.ops;
        failed += twin.tally.failed;
        errors.extend(
            twin.tally
                .errors
                .iter()
                .map(|e| format!("untraced twin: {e}")),
        );
    }
    if let Some(m) = &run.twin_mismatch {
        failed += 1;
        errors.push(m.clone());
    }
    let layer = opts.trace.then(|| per_layer(run));
    let unexplained = layer
        .as_ref()
        .map_or(0.0, |l| l.values["trace.unexplained_pct"]);
    if unexplained > MAX_UNEXPLAINED_PCT {
        failed += 1;
        errors.push(format!(
            "layers account for only {:.1}% of operation time",
            100.0 - unexplained
        ));
    }
    let deterministic = stack.tally.det_prefix.unwrap_or_else(|| stack.counters());
    let mut report = vec![
        ("benchmark".to_owned(), Value::Str("fbdr-perfbench".into())),
        ("workload".to_owned(), Value::Str(opts.kind.name().into())),
        ("seed".to_owned(), Value::U64(opts.seed)),
        ("seconds".to_owned(), Value::F64(opts.seconds)),
        ("trace".to_owned(), Value::Bool(opts.trace)),
        ("scale".to_owned(), Value::Str(opts.scale.name().into())),
        ("build".to_owned(), envelope()),
        ("params".to_owned(), str_pairs(&run.inputs.describe())),
        (
            "replica_at_end".to_owned(),
            Value::Map(vec![
                (
                    "filters".into(),
                    Value::U64(stack.replica.filter_count() as u64),
                ),
                (
                    "entries".into(),
                    Value::U64(stack.replica.entry_count() as u64),
                ),
                ("epoch".into(), Value::U64(stack.replica.epoch())),
            ]),
        ),
        (
            "loop".to_owned(),
            Value::Map(vec![
                ("ops_per_stack".into(), Value::U64(run.ops)),
                ("wall_s".into(), Value::F64(run.wall.as_secs_f64())),
                (
                    "work_s".into(),
                    Value::F64(stack.tally.work_ns as f64 / 1e9),
                ),
                (
                    "setups_s".into(),
                    Value::Seq(run.setups.iter().map(|(g, i)| Value::F64(g + i)).collect()),
                ),
            ]),
        ),
        (
            "error_rate".to_owned(),
            Value::F64(ratio(failed as f64, attempted as f64)),
        ),
        (
            "errors".to_owned(),
            Value::Seq(errors.into_iter().map(Value::Str).collect()),
        ),
        (
            "deterministic_prefix".to_owned(),
            counters_json(&deterministic),
        ),
        (
            "tails".to_owned(),
            Value::Map(vec![
                ("query_p99_us".into(), tail_json(&e2e.query_tail)),
                ("update_visible_p99_us".into(), tail_json(&e2e.visible_tail)),
            ]),
        ),
    ];
    let metrics = if let Some(layer) = layer {
        let twin = run.twin.as_ref().expect("traced runs have a twin");
        report.push((
            "end_to_end_untraced_twin".into(),
            map_f64(&end_to_end(twin, setup_s).values),
        ));
        report.push(("end_to_end_traced".into(), map_f64(&e2e.values)));
        report.push(("selection_step_tail".into(), tail_json(&layer.step_tail)));
        report.push(("ledger".into(), ledger_json(&stack.ledger)));
        report.push((
            "obs_histograms".into(),
            Value::Map(
                OBS_HISTOGRAMS
                    .iter()
                    .map(|h| {
                        let s = stack.obs.registry().histogram(h).snapshot();
                        let v = Value::Map(vec![
                            ("count".into(), Value::U64(s.count)),
                            ("sum".into(), Value::U64(s.sum)),
                            ("mean".into(), Value::F64(s.mean())),
                        ]);
                        ((*h).to_owned(), v)
                    })
                    .collect(),
            ),
        ));
        catalogue(PER_LAYER, &layer.values)
    } else {
        catalogue(END_TO_END, &e2e.values)
    };
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        deterministic,
        report: Value::Map(report),
    }
}

/// Per span name: count, total and self milliseconds, grouped by layer.
fn ledger_json(ledger: &Ledger) -> Value {
    let aggs = ledger.aggregates();
    let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
    let spans = aggs
        .iter()
        .map(|(name, a)| {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_default() += a.self_ns as f64 / 1e6;
            let v = Value::Map(vec![
                ("count".into(), Value::U64(a.count)),
                ("total_ms".into(), Value::F64(a.total_ns as f64 / 1e6)),
                ("self_ms".into(), Value::F64(a.self_ns as f64 / 1e6)),
            ]);
            ((*name).to_owned(), v)
        })
        .collect();
    Value::Map(vec![
        ("spans".into(), Value::Map(spans)),
        ("self_ms_by_layer".into(), map_f64(&layers)),
    ])
}
