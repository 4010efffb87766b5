//! One benchmark run: repeated set-up + horizon cycles of one workload for
//! a fixed wall-clock budget, reduced to the end-to-end or the per-layer
//! metrics.

use crate::harness::{self, Counts, Horizon, Layers, Recorded, Settled, Setup, Source};
use crate::host;
use crate::workload::{Params, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up is sampled more often than once per horizon, so `setup_s` is a
/// median of many samples even when only a few horizons fit in the run:
/// `SETUP_MIN` samples before the first horizon, then before each horizon
/// more while sampling has taken less than `SETUP_SHARE` of the run so
/// far. Spreading the samples over the run keeps one slow moment of the
/// host from setting the median.
const SETUP_MIN: usize = 10;
const SETUP_SHARE: f64 = 0.03;

/// Horizons every run completes regardless of its time budget: the digest
/// check compares each horizon against the first.
const MIN_HORIZONS: usize = 2;

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Where a run's scratch files live, relative to the working directory.
pub const SCRATCH_DIR: &str = ".bench_tmp";

/// What one run measured.
pub struct Report {
    /// Epochs run.
    pub attempted: u64,
    /// Epochs that failed a check.
    pub failed: u64,
    /// The failures, for stderr.
    pub failures: Vec<String>,
    /// The metrics the run was asked for, in declaration order.
    pub metrics: Vec<Metric>,
    /// Layer shares of traced wall time (traced runs only).
    pub shares: Vec<(&'static str, f64)>,
    /// Mean over queries of |achieved λ − requested λ| ÷ requested λ of
    /// the first horizon.
    pub rate_error: f64,
}

/// Set-up timings of one sample (s).
#[derive(Default)]
struct SetupSample {
    total: f64,
    population: f64,
    plan: f64,
    parse: f64,
}

/// Everything accumulated over a run.
#[derive(Default)]
struct Tally {
    setups: Vec<SetupSample>,
    readback_s: Vec<f64>,
    untraced: Envelope,
    traced: Envelope,
    layers: Layers,
    traced_horizons: u64,
    rss_slope: Option<f64>,
    first: Option<(Settled, u64, u64)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

/// Each epoch's fastest wall time over the horizons of a run (s). Every
/// horizon of a run repeats the same work — the digest check proves it —
/// and the rest of the host can only slow an epoch down, so the minimum
/// is the epoch's cost with the least interference. On a shared host
/// whose speed drifts over tens of seconds, figures taken from it repeat
/// from run to run about twice as closely as medians over the run.
#[derive(Default)]
struct Envelope(Vec<f64>);

impl Envelope {
    fn absorb(&mut self, epoch_s: &[f64]) {
        if self.0.is_empty() {
            self.0 = epoch_s.to_vec();
        }
        for (fastest, &s) in self.0.iter_mut().zip(epoch_s) {
            *fastest = fastest.min(s);
        }
    }

    fn epochs_per_s(&self) -> f64 {
        self.0.len() as f64 / self.0.iter().sum::<f64>()
    }
}

fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile of unsorted samples.
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Least-squares slope of `v` against its index.
fn slope(v: &[f64]) -> f64 {
    let n = v.len() as f64;
    if v.len() < 2 {
        return 0.0;
    }
    let mx = (n - 1.0) / 2.0;
    let my = v.iter().sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (i, y) in v.iter().enumerate() {
        sxy += (i as f64 - mx) * (y - my);
        sxx += (i as f64 - mx).powi(2);
    }
    sxy / sxx
}

/// Builds one server for `workload`, loading the recorded log first when
/// the workload replays one.
fn set_up(
    workload: Workload,
    params: &Params,
    log: &Path,
) -> Result<(Setup, Option<Recorded>, SetupSample), String> {
    let replay = workload == Workload::ReplayDrift;
    let (recorded, parse) = if replay {
        let t = Instant::now();
        let recorded = Recorded::load(log)?;
        (Some(recorded), t.elapsed().as_secs_f64())
    } else {
        (None, 0.0)
    };
    let setup = harness::build(params, replay)?;
    let sample = SetupSample {
        total: parse + setup.population_s + setup.plan_s,
        population: setup.population_s,
        plan: setup.plan_s,
        parse,
    };
    Ok((setup, recorded, sample))
}

/// Runs one horizon on a fresh server and checks it.
fn cycle(
    workload: Workload,
    params: &Params,
    log: &Path,
    traced: bool,
) -> Result<(Horizon, Settled, SetupSample, Option<f64>), String> {
    let (mut setup, recorded, sample) = set_up(workload, params, log)?;
    let (horizon, expected_sent) = match &recorded {
        Some(rec) => {
            let inputs = rec.inputs();
            let h = harness::drive(params, &mut setup.server, Source::Replay(&inputs), traced)?;
            (h, rec.sent())
        }
        None => {
            let h = harness::drive(params, &mut setup.server, Source::Live(log), traced)?;
            let sent = setup.server.crowd().requests_sent();
            (h, sent)
        }
    };
    let mut settled =
        harness::settle(params, &mut setup.server, &setup.qids, &horizon, expected_sent);
    let readback = params.recorded.then(|| read_back(log, params.epochs, &mut settled));
    Ok((horizon, settled, sample, readback))
}

/// Reads a recorded horizon's sealed run log back, timing the parse, and
/// checks that it holds the horizon: every epoch, and the sends the
/// reports counted. Returns the parse time (s).
fn read_back(log: &Path, epochs: u64, s: &mut Settled) -> f64 {
    let start = Instant::now();
    let problem = match Recorded::load(log) {
        Ok(rec) if rec.log.epochs.len() as u64 != epochs => {
            Some(format!("run log holds {} epochs", rec.log.epochs.len()))
        }
        Ok(rec) if rec.sent() != s.counts.sent => {
            Some(format!("run log sent {} != reports {}", rec.sent(), s.counts.sent))
        }
        Ok(_) => None,
        Err(e) => Some(format!("run log does not read back: {e}")),
    };
    let parse = start.elapsed().as_secs_f64();
    if let Some(problem) = problem {
        s.failures.push(problem);
        s.failed_epochs = epochs;
    }
    parse
}

/// Records one `drift_recorded` horizon's run log at `path` and returns
/// its digest — the live run `replay_drift` must reproduce.
pub fn record_log(seed: u64, path: &Path) -> Result<u64, String> {
    let params = Workload::DriftRecorded.params(seed);
    let (horizon, settled, _, _) = cycle(Workload::DriftRecorded, &params, path, false)?;
    if settled.failed_epochs > 0 || !horizon.completed {
        return Err(format!("recording run failed its checks: {:?}", settled.failures));
    }
    Ok(settled.digest)
}

/// Has a child process record the log `replay_drift` parses, so the
/// replaying process's peak memory excludes the live run. Returns the
/// live run's digest.
fn record_in_child(seed: u64, path: &Path) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .arg("--record-log")
        .arg(path)
        .args(["--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("recording child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "recording child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("live_digest "))
        .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
        .ok_or_else(|| "recording child printed no digest".into())
}

/// A scratch-file path unique to this process.
pub fn scratch_path(workload: Workload) -> Result<PathBuf, String> {
    std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("{SCRATCH_DIR}: {e}"))?;
    Ok(Path::new(SCRATCH_DIR).join(format!("{}-{}.log", workload.name(), std::process::id())))
}

/// Runs `workload` under `seed` for about `seconds` and reduces it to
/// the end-to-end metrics, or with `trace` to the per-layer metrics.
pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Report, String> {
    let params = workload.params(seed);
    let log = scratch_path(workload)?;
    let result = run_with_log(workload, &params, &log, seconds, trace);
    // The log is scratch either way; a missing file is not an error.
    let _ = std::fs::remove_file(&log);
    let _ = std::fs::remove_dir(SCRATCH_DIR);
    result
}

fn run_with_log(
    workload: Workload,
    params: &Params,
    log: &Path,
    seconds: u64,
    trace: bool,
) -> Result<Report, String> {
    let live_digest = match workload {
        Workload::ReplayDrift => Some(record_in_child(params.seed, log)?),
        _ => None,
    };
    let mut t = Tally::default();
    let budget = Duration::from_secs(seconds);
    let begin = Instant::now();
    let mut sampling = Duration::ZERO;
    // A horizon starts only if one more cycle as long as the last still
    // fits in the budget, so a run ends close to `seconds`.
    let mut n = 0;
    let mut last_cycle = Duration::ZERO;
    while n < MIN_HORIZONS || begin.elapsed() + last_cycle <= budget {
        let cycle_start = Instant::now();
        while t.setups.len() < SETUP_MIN
            || sampling.as_secs_f64() < SETUP_SHARE * begin.elapsed().as_secs_f64()
        {
            let sample_start = Instant::now();
            t.setups.push(set_up(workload, params, log)?.2);
            sampling += sample_start.elapsed();
        }
        // Traced runs alternate traced and untraced horizons, starting
        // traced so the memory slope comes from the first horizon, before
        // memory freed by earlier horizons can absorb its growth.
        let traced = trace && n % 2 == 0;
        let (h, mut s, sample, readback) = cycle(workload, params, log, traced)?;
        t.setups.push(sample);
        t.readback_s.extend(readback);
        let reference = live_digest.or(t.first.as_ref().map(|f| f.0.digest));
        if let Some(reference) = reference {
            harness::require_digest(&mut s, reference, params.epochs);
        }
        t.attempted += params.epochs;
        t.failed += s.failed_epochs;
        t.failures.extend(s.failures.iter().cloned());
        if let Some(layers) = &h.layers {
            t.layers.absorb(layers);
            t.traced_horizons += 1;
            t.traced.absorb(&h.epoch_s);
            t.rss_slope.get_or_insert_with(|| slope(&h.rss_kb));
        } else {
            t.untraced.absorb(&h.epoch_s);
        }
        if t.first.is_none() {
            let log_bytes = match workload {
                Workload::ReplayDrift => std::fs::metadata(log).map_or(0, |m| m.len()),
                _ => h.log_bytes,
            };
            t.first = Some((s, h.actions, log_bytes));
        }
        n += 1;
        last_cycle = cycle_start.elapsed();
    }
    let metrics = if trace { per_layer(workload, params, &t) } else { end_to_end(&t) };
    let shares = if trace { shares(&t.layers) } else { Vec::new() };
    let rate_error = t.first.as_ref().map_or(0.0, |f| f.0.rate_error);
    Ok(Report {
        attempted: t.attempted,
        failed: t.failed,
        failures: t.failures,
        metrics,
        shares,
        rate_error,
    })
}

fn end_to_end(t: &Tally) -> Vec<Metric> {
    let first = &t.first.as_ref().expect("at least one horizon ran").0;
    let setup: Vec<f64> = t.setups.iter().map(|s| s.total).collect();
    vec![
        ("setup_s", median(&setup), "s"),
        ("epochs_per_s", t.untraced.epochs_per_s(), "1/s"),
        ("epoch_ms_p50", quantile(&t.untraced.0, 0.5) * 1e3, "ms"),
        ("epoch_ms_p90", quantile(&t.untraced.0, 0.9) * 1e3, "ms"),
        ("peak_rss_mb", host::status_kb("VmHWM:").unwrap_or(0.0) / 1024.0, "MB"),
        ("requests_per_tuple", first.requests_per_tuple, "ratio"),
        ("rate_attained", first.rate_attained, "ratio"),
    ]
}

/// The named layers, in the order they are printed.
fn layer_spans(l: &Layers) -> [(&'static str, u64); 7] {
    [
        ("crowd.dispatch_s", l.dispatch),
        ("crowd.prologue_s", l.prologue),
        ("crowd.step_s", l.step),
        ("planner.issue_s", l.issue),
        ("engine.ingest_s", l.ingest),
        ("adaptive.control_s", l.control),
        ("runlog.append_s", l.append),
    ]
}

fn shares(l: &Layers) -> Vec<(&'static str, f64)> {
    let wall = l.wall.max(1) as f64;
    let mut v: Vec<_> =
        layer_spans(l).into_iter().map(|(name, ns)| (name, ns as f64 / wall)).collect();
    v.push(("driver.unattributed_s", (l.wall as f64 - l.attributed() as f64) / wall));
    v
}

fn per_layer(workload: Workload, params: &Params, t: &Tally) -> Vec<Metric> {
    let (first, actions, log_bytes) = t.first.as_ref().expect("at least one horizon ran");
    let Counts { orders, sent, responses, throttled, retries, ingested, delivered, operators } =
        &first.counts;
    let per_horizon = |ns: u64| ns as f64 / 1e9 / t.traced_horizons.max(1) as f64;
    let mut m: Vec<Metric> =
        layer_spans(&t.layers).into_iter().map(|(name, ns)| (name, per_horizon(ns), "s")).collect();
    let op = |kind: &str| {
        operators
            .iter()
            .find(|o| o.0 == kind)
            .map_or((0.0, 0.0, 0.0), |o| (o.1 as f64, o.2 as f64, o.3 as f64))
    };
    let (f_in, f_out, f_batches) = op("F");
    let (t_in, t_out, t_batches) = op("T");
    let median_of =
        |f: fn(&SetupSample) -> f64| median(&t.setups.iter().map(f).collect::<Vec<_>>());
    // A replay parses its log during set-up; a recording run reads its
    // log back after each horizon.
    let parse_s = match workload {
        Workload::ReplayDrift => median_of(|s| s.parse),
        _ => median(&t.readback_s),
    };
    m.extend([
        ("crowd.orders", *orders as f64, "count"),
        ("crowd.requests_sent", *sent as f64, "count"),
        ("crowd.responses", *responses as f64, "count"),
        ("crowd.response_ratio", *responses as f64 / (*sent).max(1) as f64, "ratio"),
        ("planner.throttled", *throttled as f64, "count"),
        ("planner.retries", *retries as f64, "count"),
        ("engine.tuples_ingested", *ingested as f64, "count"),
        ("engine.delivered", *delivered as f64, "count"),
        ("engine.delivered_ratio", *delivered as f64 / (*ingested).max(1) as f64, "ratio"),
        ("engine.flatten.tuples_in", f_in, "count"),
        ("engine.flatten.tuples_out", f_out, "count"),
        ("engine.flatten.batches", f_batches, "count"),
        ("engine.thin.tuples_in", t_in, "count"),
        ("engine.thin.tuples_out", t_out, "count"),
        ("engine.thin.batches", t_batches, "count"),
        ("adaptive.actions", *actions as f64, "count"),
        ("runlog.bytes_per_epoch", *log_bytes as f64 / params.epochs as f64, "B/epoch"),
        ("runlog.parse_s", parse_s, "s"),
        (
            "runlog.parse_mb_per_s",
            if parse_s > 0.0 { *log_bytes as f64 / 1e6 / parse_s } else { 0.0 },
            "MB/s",
        ),
        ("setup.population_s", median_of(|s| s.population), "s"),
        ("setup.plan_s", median_of(|s| s.plan), "s"),
        ("mem.rss_kb_per_epoch", t.rss_slope.unwrap_or(0.0), "kB/epoch"),
        ("driver.traced_wall_s", per_horizon(t.layers.wall), "s"),
        (
            "driver.unattributed_s",
            (t.layers.wall as f64 - t.layers.attributed() as f64)
                / 1e9
                / t.traced_horizons.max(1) as f64,
            "s",
        ),
        (
            "driver.trace_overhead",
            t.untraced.epochs_per_s() / t.traced.epochs_per_s() - 1.0,
            "ratio",
        ),
    ]);
    m
}
