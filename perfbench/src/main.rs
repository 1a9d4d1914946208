//! `fbdr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--scale paper|small] [--out <dir>]`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics traced). The line
//! before it is the report: build envelope, parameters, tails, counters
//! and, traced, the span ledger. Exits 1 when any output failed its check
//! and 2 on bad arguments.

use fbdr_perfbench::workloads::{Kind, Scale};
use fbdr_perfbench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    eprintln!("error: {msg}");
    eprintln!(
        "usage: fbdr-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--scale paper|small] [--out <dir>]",
        names.join("|")
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Paper;
    let mut out_dir = Some(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"));
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--scale" => scale = Scale::parse(value).ok_or(format!("unknown scale {value:?}"))?,
            "--out" => out_dir = (value != "-").then(|| PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };
    let outcome = run(&opts);
    for m in &outcome.metrics {
        eprintln!("{:<40} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "error_rate {} ({} of {} operations)",
        outcome.error_rate(),
        outcome.failed,
        outcome.attempted
    );
    let report = serde_json::to_string(&outcome.report).expect("report serializes");
    println!("{report}");
    println!("{}", outcome.result_line());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
