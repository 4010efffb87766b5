//! The golden-output regression corpus.
//!
//! Every spec under `scenarios/` runs under both execution modes; the two
//! canonical reports must be **byte-identical** (the sharded-executor
//! determinism contract) and must match the committed golden under
//! `tests/goldens/<name>.golden.txt` byte-for-byte. Regenerate goldens
//! after an intentional behaviour change with:
//!
//! ```text
//! cargo run --release --bin craqr-scenario -- scenarios/*.toml scenarios/*.json --bless
//! ```

use craqr::core::ExecMode;
use craqr::scenario::{LogDest, ScenarioRunner, ScenarioSpec};
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every committed scenario spec, sorted by file name.
fn scenario_files() -> Vec<PathBuf> {
    craqr::scenario::scenario_files(&repo_root().join("scenarios")).expect("scenarios dir")
}

fn load(path: &Path) -> ScenarioSpec {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    ScenarioSpec::from_source(&path.to_string_lossy(), &src)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn corpus_has_the_committed_scenarios() {
    let names: Vec<String> = scenario_files().iter().map(|p| load(p).name).collect();
    for expected in [
        "baseline_temp",
        "budget_starved",
        "churn_heavy",
        "drift_hotspot_migration",
        "drift_hotspot_migration_static",
        "drift_rate_jump",
        "drift_rate_jump_static",
        "drift_sensor_dropout",
        "drift_sensor_dropout_static",
        "hotspot_burst",
        "rain_sweep",
        "sparse_large_grid",
        "telemetry_probe",
        "tenant_drift_pools",
        "tenant_starved_reject",
    ] {
        assert!(names.iter().any(|n| n == expected), "scenario '{expected}' missing from corpus");
    }
    assert!(names.len() >= 14, "corpus shrank: {names:?}");
}

#[test]
fn serial_and_sharded_match_the_goldens() {
    for path in scenario_files() {
        let spec = load(&path);
        let name = spec.name.clone();
        let runner = ScenarioRunner::new(spec).expect("committed specs are valid");

        let serial = runner.run(ExecMode::Serial).unwrap_or_else(|e| panic!("{name}: {e}"));
        let sharded = runner.run(ExecMode::Sharded(4)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(
            serial.canonical(),
            sharded.canonical(),
            "{name}: serial and Sharded(4) reports diverge — the executor determinism \
             contract is broken"
        );

        let golden_path = repo_root().join("tests/goldens").join(format!("{name}.golden.txt"));
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden {} ({e}); bless it with \
                 `cargo run --release --bin craqr-scenario -- scenarios/* --bless`",
                golden_path.display()
            )
        });
        assert_eq!(
            golden,
            serial.canonical(),
            "{name}: report no longer matches {}; if the change is intentional, re-bless",
            golden_path.display()
        );
    }
}

#[test]
fn determinism_holds_across_seed_overrides() {
    // The CI determinism job re-checks this through the CLI; this inline
    // version keeps the property under plain `cargo test` too.
    let path = repo_root().join("scenarios/baseline_temp.toml");
    let runner = ScenarioRunner::new(load(&path)).unwrap();
    for seed in [1u64, 0xDEAD_BEEF] {
        let serial = runner.run_with(ExecMode::Serial, seed, LogDest::Spec).unwrap().report;
        let sharded = runner.run_with(ExecMode::Sharded(3), seed, LogDest::Spec).unwrap().report;
        assert_eq!(serial.canonical(), sharded.canonical(), "seed {seed}");
        assert_eq!(serial.checksum(), sharded.checksum(), "seed {seed}");
    }
}

#[test]
fn reruns_are_bit_stable() {
    // Two independent runs of the same (spec, seed, mode) are identical —
    // nothing leaks between runs through the runner.
    let path = repo_root().join("scenarios/hotspot_burst.toml");
    let runner = ScenarioRunner::new(load(&path)).unwrap();
    let a = runner.run(ExecMode::Sharded(2)).unwrap();
    let b = runner.run(ExecMode::Sharded(2)).unwrap();
    assert_eq!(a, b);
}
