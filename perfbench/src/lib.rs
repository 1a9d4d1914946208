//! End-to-end and per-layer benchmark of the filter replication stack.
//!
//! One run drives one named workload through the real stack in this
//! process: one client, closed loop, operations from a seeded stream.
//! An untraced run reports what a user sees (latency, throughput, hit
//! ratio, update visibility, traffic, set-up time, memory). A traced run
//! records a span around every call into a layer and reports per-layer
//! costs, with the untraced twin of the stack run on the same operations
//! to price the tracing itself. Every output is checked as the run goes;
//! a mismatch fails the run.

pub mod ledger;
pub mod metrics;
pub mod stack;
pub mod stats;
pub mod workloads;

use ledger::Ledger;
use stack::{Deterministic, Stack};
use stats::median;
use std::time::{Duration, Instant};
use workloads::{Inputs, Kind, Scale};

pub use metrics::{Metric, Outcome};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Operations per traced block: each block runs on the untraced twin,
/// then on the traced stack.
const TRACED_BLOCK: usize = 16;

/// A run stops with a failure if its deterministic prefix is still not
/// done after this long.
const PREFIX_DEADLINE: Duration = Duration::from_secs(150);

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub kind: Kind,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Directory scale.
    pub scale: Scale,
    /// Where the report and span files go; `None` writes nothing.
    pub out_dir: Option<std::path::PathBuf>,
}

/// Everything one run measured, before it becomes metrics.
pub struct Run {
    /// Inputs of the measured stack.
    pub inputs: Inputs,
    /// The stack that was measured (traced in a traced run).
    pub stack: Stack,
    /// The untraced twin of a traced run.
    pub twin: Option<Stack>,
    /// Set-up durations, seconds: generation and install of each set-up.
    pub setups: Vec<(f64, f64)>,
    /// Operations executed per stack.
    pub ops: u64,
    /// Wall time of the measured loop.
    pub wall: Duration,
    /// Deterministic counters disagreed between the twin stacks.
    pub twin_mismatch: Option<String>,
}

fn set_up(opts: &Options, obs: fbdr_obs::Obs, ledger: Ledger) -> (Inputs, Stack, (f64, f64)) {
    let t0 = Instant::now();
    let inputs = Inputs::generate(opts.kind, opts.scale, opts.seed);
    let generate = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let stack = inputs.build_stack(obs, ledger);
    (inputs, stack, (generate, t1.elapsed().as_secs_f64()))
}

/// Runs the workload: set-up, then the measured loop.
pub fn execute(opts: &Options) -> Run {
    let prefix = workloads::Params::new(opts.scale).prefix_ops[opts.kind as usize];
    let mut setups = Vec::new();
    let (inputs, mut stack, mut twin) = if opts.trace {
        let (inputs, stack, s) = set_up(opts, fbdr_obs::Obs::new(), Ledger::on());
        setups.push(s);
        let twin = inputs.build_stack(fbdr_obs::Obs::off(), Ledger::off());
        (inputs, stack, Some(twin))
    } else {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            // Drop the previous set-up first, so memory peaks as in one.
            drop(last.take());
            let (i, s, t) = set_up(opts, fbdr_obs::Obs::off(), Ledger::off());
            setups.push(t);
            last = Some((i, s));
        }
        let (inputs, stack) = last.expect("at least one set-up");
        (inputs, stack, None)
    };

    let mut stream = inputs.stream();
    let budget = Duration::from_secs_f64(opts.seconds);
    let start = Instant::now();
    let mut ops = 0u64;
    let mut block = Vec::with_capacity(TRACED_BLOCK);
    loop {
        let elapsed = start.elapsed();
        if (elapsed >= budget && ops >= prefix) || elapsed >= PREFIX_DEADLINE {
            break;
        }
        block.clear();
        let n = if twin.is_some() { TRACED_BLOCK } else { 1 };
        for _ in 0..n {
            block.push(stream.next_op());
        }
        for (i, op) in block.iter().enumerate() {
            let seal = ops + i as u64 + 1 == prefix;
            if let Some(t) = twin.as_mut() {
                t.exec(op);
                if seal {
                    t.seal_prefix();
                }
            }
        }
        for op in &block {
            stack.exec(op);
            ops += 1;
            if ops == prefix {
                stack.seal_prefix();
            }
        }
    }
    let wall = start.elapsed();
    if ops < prefix {
        stack.tally.failed += 1;
        stack.tally.errors.push(format!(
            "deterministic prefix of {prefix} operations unfinished after {:.0} s",
            wall.as_secs_f64()
        ));
    }
    let twin_mismatch = twin.as_ref().and_then(|t| {
        let (a, b): (Option<Deterministic>, Option<Deterministic>) =
            (t.tally.det_prefix, stack.tally.det_prefix);
        (a != b).then(|| format!("twin stacks disagree on deterministic counts: {a:?} vs {b:?}"))
    });
    Run {
        inputs,
        stack,
        twin,
        setups,
        ops,
        wall,
        twin_mismatch,
    }
}

/// Runs and turns the measurements into the run's outcome.
/// With an output directory set, the report (and, traced, the retained
/// spans) are written there too.
pub fn run(opts: &Options) -> Outcome {
    let run = execute(opts);
    let outcome = metrics::outcome(opts, &run);
    if let Some(dir) = &opts.out_dir {
        if let Err(e) = write_files(dir, opts, &run, &outcome) {
            eprintln!("warning: could not write results to {}: {e}", dir.display());
        }
    }
    outcome
}

fn write_files(
    dir: &std::path::Path,
    opts: &Options,
    run: &Run,
    outcome: &Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.kind.name(),
        opts.seed,
        u8::from(opts.trace)
    );
    let report = serde_json::to_string_pretty(&outcome.report).expect("report serializes");
    std::fs::write(
        dir.join(format!("{stem}.json")),
        format!("{report}\n{}\n", outcome.result_line()),
    )?;
    if opts.trace {
        run.stack
            .ledger
            .write_csv(&dir.join(format!("{stem}-spans.csv")))?;
    }
    Ok(())
}

/// Median set-up time of a run, seconds.
pub fn setup_seconds(setups: &[(f64, f64)]) -> f64 {
    median(&setups.iter().map(|(g, i)| g + i).collect::<Vec<_>>())
}
