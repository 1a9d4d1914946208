//! Small-scale smoke test of the harness: every workload, untraced and
//! traced, reports every catalogued metric with its unit and checks all
//! its outputs; deterministic counts repeat for a seed; and the metric
//! catalogue matches `BENCHMARK.json`.

use fbdr_perfbench::metrics::{END_TO_END, PER_LAYER};
use fbdr_perfbench::workloads::{Kind, Scale};
use fbdr_perfbench::{run, Options, Outcome};
use serde_json::Value;

fn small(kind: Kind, seed: u64, trace: bool) -> Outcome {
    run(&Options {
        kind,
        seed,
        seconds: 0.2,
        trace,
        scale: Scale::Small,
        out_dir: None,
    })
}

fn assert_catalogue(out: &Outcome, expected: &[(&str, &str)], what: &str) {
    let got: Vec<(&str, &str)> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(got, expected, "{what}: metric names and units");
    for m in &out.metrics {
        assert!(
            m.value.is_finite() && m.value >= -100.0,
            "{what}: {} = {}",
            m.name,
            m.value
        );
    }
}

#[test]
fn every_workload_reports_every_metric_and_checks_clean() {
    for kind in Kind::ALL {
        for trace in [false, true] {
            let what = format!("{} trace={trace}", kind.name());
            let out = small(kind, 7, trace);
            assert!(
                out.correct,
                "{what}: {}",
                serde_json::to_string(&out.report).unwrap()
            );
            assert_eq!(out.error_rate(), 0.0, "{what}");
            assert!(out.attempted > 0, "{what}");
            let expected = if trace { PER_LAYER } else { END_TO_END };
            assert_catalogue(&out, expected, &what);
            let line = out.result_line();
            let parsed: Value = serde_json::from_str(&line).expect("result line is JSON");
            let Value::Map(fields) = parsed else {
                panic!("result line is an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{what}"
            );
        }
    }
}

#[test]
fn deterministic_counts_repeat_for_a_seed() {
    for kind in Kind::ALL {
        let a = small(kind, 3, false);
        let b = small(kind, 3, false);
        assert_eq!(a.deterministic, b.deterministic, "{}", kind.name());
        let ratio = |o: &Outcome| {
            o.metrics
                .iter()
                .find(|m| m.name == "hit_ratio")
                .unwrap()
                .value
        };
        assert_eq!(ratio(&a), ratio(&b), "{}", kind.name());
        let other = small(kind, 4, false);
        assert!(other.correct, "{} with a second seed", kind.name());
    }
}

#[test]
fn small_workloads_exercise_their_layers() {
    let day2 = small(Kind::PaperDay2, 5, false);
    assert!(day2.deterministic.steps > 0 && day2.deterministic.hits > 0);
    assert!(
        day2.deterministic.resync_bytes > 0,
        "paper_day2 replicates filters"
    );
    let wide = small(Kind::WideAnswers, 5, false);
    assert_eq!(
        wide.deterministic.hits, wide.deterministic.queries,
        "wide_answers always hits"
    );
    let persist = small(Kind::PersistUpdates, 5, false);
    assert!(
        persist.deterministic.resync_bytes > 0,
        "notifications delivered"
    );
    let recovery = small(Kind::SessionRecovery, 5, false);
    let d = recovery.deterministic;
    assert!(
        d.recoveries > 0 && d.reconcile_rounds >= d.recoveries,
        "{d:?}"
    );
}

fn strings(v: &Value, key: &str) -> Vec<(String, String)> {
    let Value::Map(top) = v else {
        panic!("BENCHMARK.json is an object")
    };
    let Some((_, Value::Seq(items))) = top.iter().find(|(k, _)| k == key) else {
        panic!("BENCHMARK.json lacks {key}")
    };
    items
        .iter()
        .map(|item| {
            let Value::Map(f) = item else {
                panic!("{key} entries are objects")
            };
            let get = |name: &str| match f.iter().find(|(k, _)| k == name) {
                Some((_, Value::Str(s))) => s.clone(),
                _ => panic!("{key} entry lacks {name}"),
            };
            (
                get("name"),
                if key == "workloads" {
                    String::new()
                } else {
                    get("unit")
                },
            )
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let json: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    };
    assert_eq!(strings(&json, "end_to_end"), own(END_TO_END));
    assert_eq!(strings(&json, "per_layer"), own(PER_LAYER));
    // BENCHMARK.json may leave a workload out (persist_updates, see the
    // README); every workload it names must be one the binary runs.
    let names: Vec<String> = strings(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(names.len() >= 2, "{names:?}");
    for name in &names {
        assert!(Kind::parse(name).is_some(), "unknown workload {name}");
    }
}
