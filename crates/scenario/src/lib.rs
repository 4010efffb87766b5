//! # craqr-scenario — the declarative scenario harness.
//!
//! The paper's evaluation sweeps many workload regimes — thinning rates,
//! budget levels, churn, spatial granularity. This crate turns those
//! regimes into *checked-in artifacts*: a [`ScenarioSpec`] describes one
//! complete workload declaratively (`.toml`/`.json` files under
//! `scenarios/`), a [`ScenarioRunner`] executes it under any
//! [`craqr_core::ExecMode`], and the resulting [`ScenarioReport`] renders
//! to a canonical, byte-stable golden text (committed under
//! `tests/goldens/`, asserted by `tests/scenario_goldens.rs`).
//!
//! Every way to run a scenario goes through one run body, so none can
//! drift from the others:
//!
//! - [`ScenarioRunner::run`] returns just the report;
//! - [`ScenarioRunner::run_with`] takes [`RunOptions`] (exec mode, serial
//!   or pipelined executor, timing), a seed and a [`LogDest`], and returns
//!   the whole [`RunOutput`];
//! - [`ScenarioRunner::run_to_crash`] kills a streamed run at a
//!   [`craqr_core::CrashPoint`];
//! - [`replay()`] and [`resume()`] re-drive a recorded [`RunLog`] under any
//!   [`RunOptions`].
//!
//! Three properties make the harness a durable regression surface:
//!
//! 1. **Determinism** — a report depends only on `(spec, seed)`; serial
//!    and sharded execution produce byte-identical canonical reports.
//! 2. **Typo rejection** — specs refuse unknown fields and out-of-range
//!    values with precise dotted-path errors, so a misspelled knob can
//!    never silently run the wrong workload.
//! 3. **Lossless round-trips** — `parse(spec.to_toml()) == spec` and
//!    `parse(spec.to_json()) == spec` for every valid spec (proptested),
//!    so tooling can rewrite specs mechanically.
//!
//! ```
//! use craqr_scenario::{ScenarioRunner, ScenarioSpec};
//! use craqr_core::ExecMode;
//!
//! let spec = ScenarioSpec::from_toml(r#"
//! name = "doc"
//! seed = 7
//! epochs = 2
//!
//! [grid]
//! size_km = 4.0
//! side = 4
//!
//! [population]
//! size = 200
//! placement = { kind = "uniform" }
//! mobility = { kind = "walk", sigma = 0.2 }
//!
//! [[attributes]]
//! name = "temp"
//! field = { kind = "constant", value = 21.0 }
//!
//! [[queries]]
//! text = "ACQUIRE temp FROM RECT(0,0,2,2) RATE 0.5"
//! "#).unwrap();
//!
//! let runner = ScenarioRunner::new(spec).unwrap();
//! let serial = runner.run(ExecMode::Serial).unwrap();
//! let sharded = runner.run(ExecMode::Sharded(4)).unwrap();
//! assert_eq!(serial.canonical(), sharded.canonical());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod replay;
pub mod report;
pub mod spec;
pub mod telemetry;
pub mod value;

mod runner;

pub use craqr_adaptive::AdaptiveTrace;
pub use craqr_runlog::RunLog;
pub use replay::{replay, resume, ReplayError};
pub use report::{
    fnv1a64, AdaptiveSection, AdmissionRow, EpochRow, FaultSection, OperatorRow, QueryRow,
    RunTotals, ScenarioReport, TelemetrySection, TenantRow, TenantSection,
};
pub use runner::{
    scenario_files, BatchError, LogDest, RunError, RunOptions, RunOutput, ScenarioRunner,
};
pub use spec::{
    AdaptiveSpec, AttributeSpec, BudgetSpec, ChurnSpec, CrashSpec, CrowdFaultSpec, ErrorSpec,
    FaultsSpec, FieldSpec, GridSpec, MobilitySpec, PlacementSpec, PlannerSpec, PopulationSpec,
    QuerySpec, RetrySpec, RunlogSpec, ScenarioSpec, ShiftSpec, SpecError, TelemetrySpec,
    TenantSpec,
};
pub use telemetry::RunTelemetry;
