//! The chaos tier — kill the server at every crash point of every epoch
//! and prove the crash-safe run log brings it back byte-identical.
//!
//! The scenario under fire is the committed `fault_flaky_crowd` spec:
//! drop/delay/duplicate fault windows, a retry policy topping up starved
//! chains, and two tenant pools whose conservation laws must survive the
//! recovery. For each `(crash point, epoch)` cell of the kill matrix:
//!
//! 1. [`ScenarioRunner::run_to_crash`] streams the run to a real file
//!    with per-epoch fsync and dies at the injected point — including
//!    `mid-log-append`, which tears the file mid-record;
//! 2. [`craqr::runlog::parse_salvage`] recovers the longest valid
//!    checksummed prefix, which must hold *exactly* the epochs that were
//!    durable at the kill (the fsync discipline's whole promise);
//! 3. [`craqr::scenario::resume`] verifies the salvaged prefix
//!    record-by-record and continues live to the horizon;
//! 4. the recovered report and trace checksums must equal the
//!    uninterrupted run's — not approximately, byte-for-byte — and the
//!    per-tenant budget laws must hold as if nothing had happened.
//!
//! A second pass runs crash + recovery under `ExecMode::Sharded(4)`
//! against the *serial* reference, so recovery is also mode-portable:
//! you can crash on a laptop and resume on a many-core box.

use craqr::core::{CrashPoint, ExecMode};
use craqr::runlog::parse_salvage;
use craqr::scenario::{resume, LogDest, RunOutput, ScenarioRunner};
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn runner(stem: &str) -> ScenarioRunner {
    ScenarioRunner::from_file(&repo_root().join("scenarios").join(format!("{stem}.toml")))
        .expect("committed scenario must load")
}

/// A per-test scratch directory; removed on drop so green runs leave no
/// litter, while a panic keeps the torn artifact for post-mortems.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("craqr-chaos-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn log_path(&self, point: CrashPoint, epoch: u32) -> PathBuf {
        self.0.join(format!("kill.{}.e{epoch}.runlog.txt", point.name()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
}

/// Kills at `(point, epoch)` under `exec`, salvages the torn file, and
/// resumes to the horizon. Panics if the salvage holds anything other
/// than the durable prefix.
fn kill_salvage_resume(
    runner: &ScenarioRunner,
    exec: ExecMode,
    point: CrashPoint,
    epoch: u32,
    path: &Path,
) -> RunOutput {
    let durable =
        runner.run_to_crash(exec, runner.spec().seed, point, epoch, path).unwrap_or_else(|e| {
            panic!("crash run {point} @ epoch {epoch}: {e}");
        });
    assert_eq!(
        durable, epoch as usize,
        "{point} @ epoch {epoch}: every crash point kills before the epoch's block is durable"
    );
    let src = std::fs::read_to_string(path).unwrap();
    let salvage = parse_salvage(&src)
        .unwrap_or_else(|e| panic!("{point} @ epoch {epoch}: nothing salvageable: {e}"));
    assert_eq!(
        salvage.log.epochs.len(),
        durable,
        "{point} @ epoch {epoch}: salvage must keep exactly the durable epochs"
    );
    let torn = salvage.torn.unwrap_or_else(|| {
        panic!("{point} @ epoch {epoch}: a killed stream can never look sealed")
    });
    if point == CrashPoint::MidLogAppend {
        assert!(
            torn.discarded_bytes > 0,
            "mid-log-append @ epoch {epoch} tears mid-record; salvage must discard the fragment"
        );
    }
    if point != CrashPoint::MidLogAppend {
        assert_eq!(
            torn.discarded_bytes, 0,
            "{point} @ epoch {epoch} dies between appends; the file ends on a clean boundary"
        );
    }
    resume(&salvage.log, exec, durable)
        .unwrap_or_else(|e| panic!("{point} @ epoch {epoch}: resume: {e}"))
}

/// Byte-level recovery identity plus the budget conservation laws, per
/// tenant, exactly as an uninterrupted run must satisfy them.
fn assert_recovered(reference: &RunOutput, recovered: &RunOutput, what: &str) {
    assert_eq!(
        recovered.report.checksum(),
        reference.report.checksum(),
        "{what}: recovered report diverges from the uninterrupted run"
    );
    assert_eq!(
        recovered.trace.as_ref().map(|t| t.checksum()),
        reference.trace.as_ref().map(|t| t.checksum()),
        "{what}: recovered trace diverges from the uninterrupted run"
    );
    let (Some(want), Some(got)) = (&reference.log, &recovered.log) else {
        panic!("{what}: both the reference and the resumed run must regenerate a run log");
    };
    assert_eq!(
        got.canonical(),
        want.canonical(),
        "{what}: the resumed run's regenerated log is not byte-identical"
    );
    let epochs = recovered.report.epochs.len() as f64;
    if let Some(tenants) = &recovered.report.tenants {
        for row in &tenants.rows {
            assert!(
                row.peak_epoch_charge <= row.capacity + 1e-9,
                "{what}: tenant '{}' charged {} in one epoch against capacity {}",
                row.name,
                row.peak_epoch_charge,
                row.capacity
            );
            assert!(
                row.committed <= row.capacity + 1e-9,
                "{what}: tenant '{}' committed {} against capacity {}",
                row.name,
                row.committed,
                row.capacity
            );
            assert!(
                row.charged <= row.capacity * epochs + 1e-9,
                "{what}: tenant '{}' charged {} over {} epochs against capacity {}",
                row.name,
                row.charged,
                epochs,
                row.capacity
            );
        }
        // The admission audit predates epoch 0, so every recovery must
        // reproduce it verbatim from the salvaged header.
        assert_eq!(
            tenants.admissions,
            reference.report.tenants.as_ref().unwrap().admissions,
            "{what}: recovered admission audit diverges"
        );
    }
}

/// The full kill matrix, serial: every crash point of every epoch of the
/// faulty scenario dies, salvages, resumes, and lands byte-identical.
#[test]
fn every_crash_point_of_every_epoch_recovers_byte_identical() {
    let runner = runner("fault_flaky_crowd");
    let scratch = Scratch::new("serial");
    let reference = runner.run_with(ExecMode::Serial, runner.spec().seed, LogDest::Memory).unwrap();
    assert!(reference.report.tenants.is_some(), "the chaos scenario must exercise tenancy");
    for epoch in 0..runner.spec().epochs {
        for point in CrashPoint::ALL {
            let path = scratch.log_path(point, epoch);
            let recovered = kill_salvage_resume(&runner, ExecMode::Serial, point, epoch, &path);
            assert_recovered(&reference, &recovered, &format!("{point} @ epoch {epoch}"));
        }
    }
}

/// Crash and recover under `Sharded(4)`, compared against the *serial*
/// uninterrupted reference: recovery is mode-portable, so a run crashed
/// on one machine shape can resume on another.
#[test]
fn sharded_recovery_matches_the_serial_reference() {
    let runner = runner("fault_flaky_crowd");
    let scratch = Scratch::new("sharded");
    let reference = runner.run_with(ExecMode::Serial, runner.spec().seed, LogDest::Memory).unwrap();
    for epoch in [0, 3, 7, runner.spec().epochs - 1] {
        for point in [CrashPoint::PostDrain, CrashPoint::MidLogAppend] {
            let path = scratch.log_path(point, epoch);
            let recovered = kill_salvage_resume(&runner, ExecMode::Sharded(4), point, epoch, &path);
            assert_recovered(&reference, &recovered, &format!("sharded {point} @ epoch {epoch}"));
        }
    }
}

/// An admission **rejection** predates epoch 0, so it lives only in the
/// streamed header — kill the run before anything else is durable and
/// the salvaged prefix alone must reproduce the rejection audit.
#[test]
fn admission_rejections_survive_an_epoch_zero_crash() {
    let runner = runner("tenant_starved_reject");
    let scratch = Scratch::new("admission");
    let reference = runner.run_with(ExecMode::Serial, runner.spec().seed, LogDest::Memory).unwrap();
    let rejected: u32 =
        reference.report.tenants.as_ref().unwrap().rows.iter().map(|r| r.rejected).sum();
    assert!(rejected > 0, "the scenario must actually reject a submission");
    for point in CrashPoint::ALL {
        let path = scratch.log_path(point, 0);
        let recovered = kill_salvage_resume(&runner, ExecMode::Serial, point, 0, &path);
        assert_recovered(&reference, &recovered, &format!("{point} @ epoch 0"));
    }
}
