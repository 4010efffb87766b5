//! The benchmark's own checks, on every workload at a reduced size: the
//! layer spans of a traced horizon add up to its wall time, and outputs
//! repeat exactly — across reruns, and between a recorded run and its
//! replay.

use craqr_perfbench::harness::{self, Horizon, Recorded, Settled, Source};
use craqr_perfbench::workload::{Params, Workload};
use std::path::{Path, PathBuf};

const SEED: u64 = 11;

fn log_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}.log"))
}

fn params(w: Workload) -> Params {
    w.params(SEED).scaled_down(10)
}

/// One live horizon of `w` (`ReplayDrift` runs its recording side).
fn live(w: Workload, traced: bool, log: &Path) -> (Horizon, Settled) {
    let p = params(w);
    let mut setup = harness::build(&p, false).expect("workload builds");
    let h = harness::drive(&p, &mut setup.server, Source::Live(log), traced).expect("horizon runs");
    let sent = setup.server.crowd().requests_sent();
    let s = harness::settle(&p, &mut setup.server, &setup.qids, &h, sent);
    (h, s)
}

/// One replayed horizon of the log at `log`.
fn replay(traced: bool, log: &Path) -> (Horizon, Settled) {
    let p = params(Workload::ReplayDrift);
    let rec = Recorded::load(log).expect("log parses");
    let mut setup = harness::build(&p, true).expect("detached server builds");
    let inputs = rec.inputs();
    let h = harness::drive(&p, &mut setup.server, Source::Replay(&inputs), traced)
        .expect("replay runs");
    let s = harness::settle(&p, &mut setup.server, &setup.qids, &h, rec.sent());
    (h, s)
}

fn assert_clean(w: Workload, s: &Settled) {
    assert_eq!(s.failed_epochs, 0, "{}: {:?}", w.name(), s.failures);
}

#[test]
fn layer_spans_add_up_to_traced_wall_time_on_every_workload() {
    for w in Workload::ALL {
        let log = log_path(&format!("spans-{}", w.name()));
        let (h, s) = match w {
            Workload::ReplayDrift => {
                live(Workload::DriftRecorded, false, &log);
                replay(true, &log)
            }
            _ => live(w, true, &log),
        };
        assert_clean(w, &s);
        let layers = h.layers.expect("traced horizon has layers");
        let gap = layers.wall.abs_diff(layers.attributed()) as f64 / layers.wall as f64;
        assert!(gap <= 0.05, "{}: spans miss {:.2}% of traced wall time", w.name(), gap * 100.0);
        assert_eq!(
            h.epoch_s.len() as u64,
            params(w).epochs,
            "{}: one clock read per epoch",
            w.name()
        );
    }
}

#[test]
fn outputs_repeat_across_runs_and_through_replay() {
    let log = log_path("digest");
    for w in [Workload::CityDense, Workload::IngestHeavy, Workload::DriftRecorded] {
        let (_, a) = live(w, false, &log);
        let (_, b) = live(w, true, &log);
        assert_clean(w, &a);
        assert_eq!(a.digest, b.digest, "{}: tracing or rerunning changed the outputs", w.name());
        assert_eq!(a.requests_per_tuple, b.requests_per_tuple);
        assert_eq!(a.rate_error, b.rate_error);
    }
    // The last live run above recorded `drift_recorded` at `log`.
    let (_, recorded) = live(Workload::DriftRecorded, false, &log);
    let (_, replayed) = replay(false, &log);
    assert_clean(Workload::ReplayDrift, &replayed);
    assert_eq!(replayed.digest, recorded.digest, "replay diverged from the live run");
    assert_eq!(replayed.counts.sent, recorded.counts.sent);
}

#[test]
fn a_broken_conservation_law_fails_the_epoch() {
    let w = Workload::IngestHeavy;
    let p = params(w);
    let mut setup = harness::build(&p, false).expect("workload builds");
    let log = log_path("broken");
    let mut h =
        harness::drive(&p, &mut setup.server, Source::Live(&log), false).expect("horizon runs");
    h.reports[1].ingested += 1;
    let sent = setup.server.crowd().requests_sent();
    let s = harness::settle(&p, &mut setup.server, &setup.qids, &h, sent);
    assert_eq!(s.failed_epochs, 1, "{:?}", s.failures);
    assert!(s.failures[0].starts_with("epoch 1: ingested"), "{:?}", s.failures);
}
