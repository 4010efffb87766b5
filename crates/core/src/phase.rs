//! The epoch-phase timing seam — the *timing* sibling of the control
//! ([`crate::ControlHook`]) and recording ([`crate::EpochTap`]) seams.
//!
//! # Why a seam, and why it is safe
//!
//! CrAQR's determinism contract forbids clocks from influencing anything
//! checksummed: a run must produce bit-identical reports, traces, and run
//! logs on every host. But an operable service still needs latency
//! telemetry — *where does an epoch spend its time?* The [`PhaseTimer`]
//! seam reconciles the two:
//!
//! - **Byte-inert when absent.** With no timer installed the epoch loop
//!   takes zero clock readings and executes the exact instruction stream
//!   of an uninstrumented build. Nothing is allocated, branched on a
//!   clock, or fed to an RNG.
//! - **Read-only when present.** An installed timer only *reads* the
//!   thread-CPU clock at phase boundaries ([`crate::exec::thread_busy_ns`])
//!   and hands the elapsed nanoseconds to the timer. No simulation state,
//!   RNG stream, or report field depends on the measured values, so every
//!   checksummed artifact is bit-identical with and without a timer — the
//!   same rule that keeps `busy_ns` out of report bodies.
//!
//! Measured durations are **thread-CPU time**, not wall time, so an epoch
//! descheduled on an oversubscribed host does not inflate its phases.
//!
//! The canonical implementation lives in `craqr-scenario`, which feeds a
//! `craqr-telemetry` histogram per phase; anything implementing the
//! one-method trait fits (a logger, a flamegraph feeder, a test probe).

/// One of the epoch loop's instrumented sections, in loop order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EpochPhase {
    /// Budget draws, tenant clamping/charging, request dispatch.
    Dispatch,
    /// Crowd mobility sub-steps, response drain, retry shortfall
    /// feedback.
    Drain,
    /// Error injection, mitigation, id assignment, the map + per-cell
    /// process phases, and the per-query merge.
    Ingest,
    /// Budget tuning plus the control hook's observation and the
    /// application of its actions.
    Control,
    /// The recording tap (run-log append happens inside it).
    LogAppend,
}

impl EpochPhase {
    /// Every phase, in loop order.
    pub const ALL: [EpochPhase; 5] = [
        EpochPhase::Dispatch,
        EpochPhase::Drain,
        EpochPhase::Ingest,
        EpochPhase::Control,
        EpochPhase::LogAppend,
    ];

    /// The metric-facing label (`phase="…"`).
    pub fn name(&self) -> &'static str {
        match self {
            EpochPhase::Dispatch => "dispatch",
            EpochPhase::Drain => "drain",
            EpochPhase::Ingest => "ingest",
            EpochPhase::Control => "control",
            EpochPhase::LogAppend => "log-append",
        }
    }
}

/// One of the pipelined executor's long-lived stage workers, in dataflow
/// order. Each [`EpochPhase`] is owned by exactly one stage:
///
/// - `Drain` owns the crowd: it executes dispatch orders
///   ([`EpochPhase::Dispatch`], the send half) and advances/drains the
///   world ([`EpochPhase::Drain`]).
/// - `Ingest` owns the handler/fabricator: it issues dispatch orders
///   ([`EpochPhase::Dispatch`], the budget-draw half) and runs error
///   injection through merge and tuning ([`EpochPhase::Ingest`]).
/// - `Control` owns the hook ([`EpochPhase::Control`]).
/// - `Render` owns the tap ([`EpochPhase::LogAppend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineStage {
    /// Stage 1: crowd owner — order execution, mobility steps, drain.
    Drain,
    /// Stage 2: handler/fabricator owner — order issue, ingestion, tuning.
    Ingest,
    /// Stage 3: control-hook owner.
    Control,
    /// Stage 4: tap/render owner (run-log append).
    Render,
}

impl PipelineStage {
    /// Every stage, in dataflow order.
    pub const ALL: [PipelineStage; 4] = [
        PipelineStage::Drain,
        PipelineStage::Ingest,
        PipelineStage::Control,
        PipelineStage::Render,
    ];

    /// The metric-facing label (`stage="…"`).
    pub fn name(&self) -> &'static str {
        match self {
            PipelineStage::Drain => "drain",
            PipelineStage::Ingest => "ingest",
            PipelineStage::Control => "control",
            PipelineStage::Render => "render",
        }
    }
}

/// Observes per-phase thread-CPU durations, one stage span at a time.
///
/// Installed via [`crate::EpochDriver::timer`]. Both executors report
/// every span through [`PhaseTimer::observe_stage`], tagged with the
/// stage that ran it and the epoch slot it belonged to: the serial
/// executor inline at each stage boundary, the pipelined executor after
/// its workers join, in `(slot, stage)` order. A slot can report several
/// spans of one phase (the ingest stage laps [`EpochPhase::Ingest`]
/// twice, issuing the next slot's orders in between), so a timer that
/// wants one value per phase per epoch sums a slot's spans.
/// Implementations must not feed the values back into anything
/// checksummed (see the module docs for the contract).
/// `Send` is a supertrait because the pipelined executor runs the timer's
/// replay on the driver thread after stage workers join — every
/// implementor is plain data, so the bound costs nothing.
pub trait PhaseTimer: Send {
    /// Records that `phase` took `nanos` thread-CPU nanoseconds.
    fn observe(&mut self, phase: EpochPhase, nanos: u64);

    /// Records one stage span: `phase` took `nanos` thread-CPU
    /// nanoseconds on `stage` during epoch slot `slot`. The default
    /// forwards every span to [`PhaseTimer::observe`], so phase-only
    /// timers keep working unchanged; stage-aware timers (the pipeline
    /// bench's critical-path model, per-epoch telemetry) override it for
    /// the extra dimensions.
    fn observe_stage(&mut self, _stage: PipelineStage, _slot: u64, phase: EpochPhase, nanos: u64) {
        self.observe(phase, nanos);
    }
}
