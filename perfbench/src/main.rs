//! `craqr-perfbench` — runs one benchmark workload and prints its result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload city_dense --seed 7 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! record the host, the workload parameters and the checks. `--trace 1`
//! reports the per-layer metrics instead of the end-to-end ones.

use craqr_perfbench::host;
use craqr_perfbench::measure::{self, Report};
use craqr_perfbench::workload::{Workload, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    record_log: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: None, seed: DEFAULT_SEED, seconds: 35, trace: false, record_log: None };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{value}' (one of {})", names.join(", "))
                })?)
            }
            "--seed" => args.seed = number(&value)?,
            "--seconds" => args.seconds = number(&value)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            // Internal: the child process that records `replay_drift`'s log.
            "--record-log" => args.record_log = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn print_report(workload: Workload, seed: u64, trace: bool, report: &Report) {
    let host: Vec<String> =
        host::record().iter().map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))).collect();
    println!(
        "host {{{}, \"seed\": {seed}, \"workload\": {}, \"trace\": {}, \"params\": {}}}",
        host.join(", "),
        json_str(workload.name()),
        u8::from(trace),
        json_str(&workload.params(seed).describe())
    );
    for (name, value, unit) in &report.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if !report.shares.is_empty() {
        println!("share of traced wall time:");
        for (name, share) in &report.shares {
            println!("  {name:<28} {:>7.2}%", share * 100.0);
        }
    }
    println!("rate_error {}", report.rate_error);
    println!(
        "failed_ratio {} ({} of {} epochs)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("{}: {{\"value\": {value}, \"unit\": {}}}", json_str(name), json_str(unit))
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.record_log {
        return match measure::record_log(args.seed, path) {
            Ok(digest) => {
                println!("live_digest {digest:#018x}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("error: --workload is required");
        return ExitCode::from(2);
    };
    match measure::run(workload, args.seed, args.seconds, args.trace) {
        Ok(report) => {
            for f in &report.failures {
                eprintln!("check failed: {f}");
            }
            print_report(workload, args.seed, args.trace, &report);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
