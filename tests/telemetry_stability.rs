//! The byte-inertness contract of instrumentation: switching the full
//! telemetry stack on — collector, phase timer, engine clock, timed
//! control hook — must leave every checksummed artifact of every
//! committed scenario **byte-identical** to an uninstrumented run.
//!
//! This is the run-level counterpart of the `busy_ns` rule: anything a
//! clock touched is structurally excluded from canonical renderings, so
//! a golden blessed without `--metrics` stays valid under `--metrics`
//! and vice versa. If this test fails, a timing-tier metric leaked into a
//! checksummed surface (or collection perturbed the run itself).

use craqr::core::ExecMode;
use craqr::scenario::{LogDest, RunOptions, ScenarioRunner, ScenarioSpec};
use craqr::telemetry::lint_exposition;
use std::path::{Path, PathBuf};

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn scenario_files() -> Vec<PathBuf> {
    craqr::scenario::scenario_files(&repo_root().join("scenarios")).expect("scenarios dir")
}

fn load(path: &Path) -> ScenarioRunner {
    let src = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let spec = ScenarioSpec::from_source(&path.to_string_lossy(), &src)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    ScenarioRunner::new(spec).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn instrumentation_is_byte_inert_on_every_committed_scenario() {
    for path in scenario_files() {
        let runner = load(&path);
        let seed = runner.spec().seed;
        let name = runner.spec().name.clone();
        for exec in [ExecMode::Serial, ExecMode::Sharded(4)] {
            let plain = runner.run_with(exec, seed, LogDest::Spec).expect("uninstrumented run");
            let timed = runner
                .run_with(RunOptions { exec, pipelined: false, timing: true }, seed, LogDest::Spec)
                .expect("instrumented run");
            assert_eq!(
                plain.report.canonical(),
                timed.report.canonical(),
                "{name} [{exec:?}]: instrumentation changed the canonical report"
            );
            assert_eq!(
                plain.trace.as_ref().map(|t| t.canonical()),
                timed.trace.as_ref().map(|t| t.canonical()),
                "{name} [{exec:?}]: instrumentation changed the adaptive trace"
            );
            assert_eq!(
                plain.log.as_ref().map(|l| l.canonical()),
                timed.log.as_ref().map(|l| l.canonical()),
                "{name} [{exec:?}]: instrumentation changed the run log"
            );
            // The instrumented run always carries a registry, its event
            // tier matches what an event-only collector would have seen
            // (same canonical section), and the full exposition passes
            // the Prometheus lint.
            let telemetry = timed.telemetry.as_ref().expect("instrumented run has a registry");
            if let Some(plain_t) = plain.telemetry.as_ref() {
                assert_eq!(
                    plain_t.section(),
                    telemetry.section(),
                    "{name} [{exec:?}]: the timing tier leaked into the event section"
                );
            }
            if let Err(errors) = lint_exposition(&telemetry.render_prometheus()) {
                panic!("{name} [{exec:?}]: exposition failed lint: {errors:?}");
            }
        }
    }
}

#[test]
fn committed_goldens_match_instrumented_runs_byte_for_byte() {
    // The committed goldens were blessed by uninstrumented runs; an
    // instrumented run must reproduce them exactly (this is what makes
    // `--metrics` safe to add to any golden-checked CI invocation).
    for path in scenario_files() {
        let runner = load(&path);
        let seed = runner.spec().seed;
        let name = runner.spec().name.clone();
        let golden_path = repo_root().join("tests/goldens").join(format!("{name}.golden.txt"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("{}: {e}", golden_path.display()));
        let timed = RunOptions { timing: true, ..RunOptions::default() };
        let timed = runner.run_with(timed, seed, LogDest::Spec).expect("run");
        assert_eq!(
            golden,
            timed.report.canonical(),
            "{name}: instrumented run diverged from the committed golden"
        );
    }
}
