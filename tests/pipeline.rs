//! The pipelined-executor determinism tier.
//!
//! The staged dataflow executor ([`craqr::core::EpochDriver::run_pipelined`])
//! overlaps consecutive epochs across four worker threads. Pipelining is
//! an execution strategy, never an output: everything checksummed —
//! reports, traces, run logs — must be **byte-identical** to the serial
//! staged schedule, for every committed scenario, and the whole
//! crash/salvage/resume story must survive with stages mid-flight.
//!
//! Three layers:
//!
//! 1. corpus-wide identity: every spec under `scenarios/` runs serial
//!    and pipelined; reports (and, where recorded, traces and logs)
//!    must match byte-for-byte *and* match the committed goldens — so
//!    the pipelined executor is pinned to the same blessed bytes;
//! 2. replay + resume land on the staged dataflow too and still
//!    re-converge on the recording run's sealed checksums;
//! 3. the chaos matrix: kill a pipelined run at every crash point of
//!    every epoch, salvage the torn stream, resume (pipelined), and
//!    land byte-identical to the uninterrupted *serial* reference —
//!    recovery is portable across executors, not just shard counts.

use craqr::core::{CrashPoint, ExecMode};
use craqr::runlog::parse_salvage;
use craqr::scenario::{replay, resume, LogDest, RunOptions, RunOutput, ScenarioRunner};
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scenario_files() -> Vec<PathBuf> {
    craqr::scenario::scenario_files(&repo_root().join("scenarios")).expect("scenarios dir")
}

fn runner(path: &Path) -> ScenarioRunner {
    ScenarioRunner::from_file(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn pipelined(exec: ExecMode) -> RunOptions {
    RunOptions { exec, pipelined: true, timing: false }
}

/// Every committed scenario produces byte-identical artifacts on the
/// pipelined executor — and those bytes are the committed goldens, so
/// serial, `Sharded(4)`, and pipelined are all pinned to the same files.
#[test]
fn every_committed_scenario_is_pipeline_identical() {
    for path in scenario_files() {
        let runner = runner(&path);
        let name = runner.spec().name.clone();
        let seed = runner.spec().seed;
        let serial = runner.run_with(ExecMode::Serial, seed, LogDest::Spec).unwrap();
        let piped = runner.run_with(pipelined(ExecMode::Serial), seed, LogDest::Spec).unwrap();
        assert_eq!(
            serial.report.canonical(),
            piped.report.canonical(),
            "{name}: pipelined report diverges from serial"
        );
        assert_eq!(
            serial.trace.as_ref().map(|t| t.canonical()),
            piped.trace.as_ref().map(|t| t.canonical()),
            "{name}: pipelined trace diverges from serial"
        );
        assert_eq!(
            serial.log.as_ref().map(|l| l.canonical()),
            piped.log.as_ref().map(|l| l.canonical()),
            "{name}: pipelined run log diverges from serial"
        );
        let golden = repo_root().join("tests/goldens").join(format!("{name}.golden.txt"));
        let golden = std::fs::read_to_string(&golden).unwrap();
        assert_eq!(golden, piped.report.canonical(), "{name}: pipelined report is off-golden");

        // Pipelining composes with sharded ingestion: same bytes again.
        let piped_sharded =
            runner.run_with(pipelined(ExecMode::Sharded(4)), seed, LogDest::Spec).unwrap();
        assert_eq!(
            golden,
            piped_sharded.report.canonical(),
            "{name}: pipelined Sharded(4) report is off-golden"
        );
    }
}

/// Replay and resume drive the staged dataflow too and re-converge on
/// the recording run's sealed checksums under every executor shape.
#[test]
fn pipelined_replay_and_resume_reconverge() {
    let runner = runner(&repo_root().join("scenarios/drift_rate_jump.toml"));
    let live = runner.run_with(ExecMode::Serial, runner.spec().seed, LogDest::Memory).unwrap();
    let log = live.log.as_ref().expect("[runlog] spec records");

    for exec in [ExecMode::Serial, ExecMode::Sharded(3)] {
        let replayed = replay(log, pipelined(exec)).unwrap_or_else(|e| panic!("{exec:?}: {e}"));
        assert_eq!(
            replayed.report.checksum(),
            live.report.checksum(),
            "{exec:?}: pipelined replay report diverged"
        );
        assert_eq!(
            replayed.log.as_ref().unwrap().canonical(),
            log.canonical(),
            "{exec:?}: pipelined replay re-recording diverged"
        );
    }

    for k in [0, 1, log.epochs.len() / 2, log.epochs.len()] {
        let resumed = resume(&log.truncated(k).unwrap(), pipelined(ExecMode::Serial), k)
            .unwrap_or_else(|e| panic!("pipelined resume at {k}: {e}"));
        assert_eq!(
            resumed.report.checksum(),
            live.report.checksum(),
            "pipelined resume at {k}: report diverged"
        );
        assert_eq!(
            resumed.trace.as_ref().map(|t| t.checksum()),
            live.trace.as_ref().map(|t| t.checksum()),
            "pipelined resume at {k}: trace diverged"
        );
    }
}

struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("craqr-pipechaos-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Kills a **pipelined** run at `(point, epoch)`, salvages the torn
/// stream, resumes on the pipelined executor, and hands back the
/// recovered output for byte comparison.
fn kill_salvage_resume(
    runner: &ScenarioRunner,
    exec: ExecMode,
    point: CrashPoint,
    epoch: u32,
    path: &Path,
) -> RunOutput {
    let durable = runner
        .run_to_crash(pipelined(exec), runner.spec().seed, point, epoch, path)
        .unwrap_or_else(|e| panic!("pipelined crash {point} @ epoch {epoch}: {e}"));
    assert_eq!(
        durable, epoch as usize,
        "{point} @ epoch {epoch}: the staged executor must leave exactly the serial \
         schedule's durable prefix"
    );
    let src = std::fs::read_to_string(path).unwrap();
    let salvage = parse_salvage(&src)
        .unwrap_or_else(|e| panic!("{point} @ epoch {epoch}: nothing salvageable: {e}"));
    assert_eq!(salvage.log.epochs.len(), durable, "{point} @ epoch {epoch}: salvage size");
    assert!(salvage.torn.is_some(), "{point} @ epoch {epoch}: a killed stream never looks sealed");
    resume(&salvage.log, pipelined(exec), durable)
        .unwrap_or_else(|e| panic!("{point} @ epoch {epoch}: pipelined resume: {e}"))
}

/// The full kill matrix with stages mid-flight: every crash point of
/// every epoch dies inside the pipelined dataflow, salvages, resumes
/// pipelined, and lands byte-identical to the uninterrupted **serial**
/// reference.
#[test]
fn pipelined_chaos_matrix_recovers_byte_identical() {
    let runner = runner(&repo_root().join("scenarios/fault_flaky_crowd.toml"));
    let scratch = Scratch::new("serial");
    let reference = runner.run_with(ExecMode::Serial, runner.spec().seed, LogDest::Memory).unwrap();
    for epoch in 0..runner.spec().epochs {
        for point in CrashPoint::ALL {
            let path = scratch.0.join(format!("kill.{}.e{epoch}.runlog.txt", point.name()));
            let recovered = kill_salvage_resume(&runner, ExecMode::Serial, point, epoch, &path);
            assert_eq!(
                recovered.report.checksum(),
                reference.report.checksum(),
                "pipelined {point} @ epoch {epoch}: recovered report diverges"
            );
            assert_eq!(
                recovered.log.as_ref().unwrap().canonical(),
                reference.log.as_ref().unwrap().canonical(),
                "pipelined {point} @ epoch {epoch}: regenerated log is not byte-identical"
            );
        }
    }
}

/// A few matrix cells under `Sharded(4)` ingestion, still against the
/// serial reference: crash recovery is portable across both executor
/// axes at once (shard count and pipelining).
#[test]
fn pipelined_sharded_recovery_matches_the_serial_reference() {
    let runner = runner(&repo_root().join("scenarios/fault_flaky_crowd.toml"));
    let scratch = Scratch::new("sharded");
    let reference = runner.run_with(ExecMode::Serial, runner.spec().seed, LogDest::Memory).unwrap();
    for epoch in [0, runner.spec().epochs - 1] {
        for point in [CrashPoint::PostDrain, CrashPoint::MidLogAppend] {
            let path = scratch.0.join(format!("kill.{}.e{epoch}.runlog.txt", point.name()));
            let recovered = kill_salvage_resume(&runner, ExecMode::Sharded(4), point, epoch, &path);
            assert_eq!(
                recovered.report.checksum(),
                reference.report.checksum(),
                "pipelined sharded {point} @ epoch {epoch}: recovered report diverges"
            );
        }
    }
}
