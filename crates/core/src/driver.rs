//! The epoch driver: one builder-style entry point for every way the
//! epoch loop can execute. An [`EpochDriver`] holds the optional seams
//! ([`ControlHook`], [`EpochTap`], [`PhaseTimer`], a pre-epoch prologue,
//! a [`CrashPoint`]) and runs a horizon of the **staged schedule** on one
//! of two executors:
//!
//! - [`EpochDriver::run`] / [`EpochDriver::run_replayed`]: the slots
//!   back-to-back on the calling thread.
//! - [`EpochDriver::run_pipelined`] (in [`crate::pipeline`]): the same
//!   slots spread across four long-lived worker threads connected by
//!   bounded channels, so the drain stage of epoch `t+1` overlaps the
//!   ingest of epoch `t` without changing a byte of any report, trace,
//!   or run log.
//!
//! Both executors call the same crate-private slot functions defined
//! here — the crowd half (`CrowdHalf::execute`, `CrowdHalf::drain`), the
//! ingest head and tail (`EpochCore::begin_slot`,
//! `EpochCore::finish_slot`), `control`, and `render` — and differ only
//! in which thread runs each stage and how the stages hand values on.
//! [`crate::CraqrServer::run_epoch`] is a one-slot horizon.
//!
//! # The staged schedule, precisely
//!
//! With `n` slots and a fresh driver, slot `t` performs, in order:
//!
//! 1. *(drain stage)* prologue(`t`) → execute the orders issued for `t` →
//!    mobility sub-steps → drain responses.
//! 2. *(ingest stage)* fold the executed `sent` into the dispatch stats →
//!    apply the hook's actions from epoch `t-1` (the report's
//!    `stale_actions`) → retry shortfall feedback from `t`'s responses →
//!    **issue** the orders for `t+1` → error injection/mitigation/
//!    ingestion/merge of `t`'s responses → budget tuning → assemble the
//!    epoch report → snapshot the hook's [`EpochObservation`].
//! 3. *(control stage)* hook observes epoch `t`, emits actions.
//! 4. *(render stage)* tap records epoch `t` (report + raw responses +
//!    the actions the hook just emitted).
//!
//! Orders for slot 0 are issued once before the loop. The actions the
//! hook emits for the final slot are applied after the loop on normal
//! completion (so a resumed run and its uninterrupted twin leave the
//! server in the same final state); their stale-action count lands in no
//! report, because no later epoch exists to carry it.
//!
//! The schedule pins the control lag deterministically: a `SetBudget`
//! emitted for epoch `t` is applied during slot `t+1` — after slot
//! `t+2`'s orders were already issued — so it first affects the dispatch
//! of epoch `t+2`, "the first epoch not yet ingested". A `RebuildChain`
//! emitted for epoch `t` takes effect before epoch `t+1`'s ingestion.
//! The lag is part of the blessed byte contract: serial, `Sharded(n)`,
//! and the pipelined executor all execute this exact schedule.
//!
//! # Crash semantics
//!
//! [`EpochDriver::crash_at`] arms a [`CrashPoint`] at one slot of a
//! horizon run, reproducing a process kill: the three in-loop points
//! abandon the run at their boundary (everything already recorded stays
//! recorded, the crashed epoch's tap never fires), while
//! [`CrashPoint::MidLogAppend`] completes the slot normally — that tear
//! lives in the log writer, not the loop. Because every record of epoch
//! `e` depends only on work performed through slot `e`, a crashed run's
//! durable prefix is byte-identical to the same prefix of the
//! uninterrupted run — the property salvage + resume is built on.

use crate::exec::{thread_busy_ns, IngestReport};
use crate::handler::{execute_orders, DispatchStats, RequestResponseHandler, SendOrder};
use crate::phase::{EpochPhase, PhaseTimer, PipelineStage};
use crate::plan::Fabricator;
use crate::query::QueryId;
use crate::server::{
    ControlAction, ControlHook, CraqrServer, CrashPoint, EpochInputsRecord, EpochObservation,
    EpochReport, EpochTap, FaultDeltas, ReplayInputs, ServerConfig,
};
use crate::tenant::{TenantId, TenantRegistry};
use crate::tuple::{CrowdTuple, TupleIdGen};
use craqr_engine::BatchPool;
use craqr_sensing::{AttributeId, Crowd, SensorResponse};
use rand::rngs::StdRng;
use std::collections::HashMap;

/// The planner-side half of a borrow-split server: every field the
/// ingest stage owns while the drain stage owns the [`Crowd`]. The
/// pipelined executor moves this into the ingest worker; the serial
/// driver keeps it on the calling thread. Either way the epoch sub-ops
/// ([`EpochCore::issue`], [`EpochCore::absorb`], …) run on exactly one
/// owner, which is what makes the two executors bit-identical by
/// construction.
pub(crate) struct EpochCore<'s> {
    fabricator: &'s mut Fabricator,
    handler: &'s mut RequestResponseHandler,
    idgen: &'s mut TupleIdGen,
    error_rng: &'s mut StdRng,
    outputs: &'s mut HashMap<QueryId, Vec<CrowdTuple>>,
    tenants: &'s mut Option<TenantRegistry>,
    config: ServerConfig,
}

/// The drain-stage half of a borrow-split server: the crowd, the
/// prologue that mutates it, and the mobility sub-step schedule.
pub(crate) struct CrowdHalf<'a> {
    crowd: &'a mut Crowd,
    prologue: Option<Prologue<'a>>,
    substeps: u32,
    dt: f64,
}

/// Borrow-splits a server into the crowd half (drain-stage state), the
/// epoch counter, and the planner half (ingest-stage state).
pub(crate) fn split<'a>(
    server: &'a mut CraqrServer,
    prologue: Option<Prologue<'a>>,
) -> (CrowdHalf<'a>, &'a mut u64, EpochCore<'a>) {
    let config = server.config;
    let CraqrServer {
        crowd, fabricator, handler, idgen, error_rng, outputs, tenants, epoch, ..
    } = server;
    let substeps = config.mobility_substeps;
    let dt = config.planner.batch_duration / substeps as f64;
    (
        CrowdHalf { crowd, prologue, substeps, dt },
        epoch,
        EpochCore { fabricator, handler, idgen, error_rng, outputs, tenants, config },
    )
}

/// One epoch's issued dispatch: the handler/tenant side ran to
/// completion (budgets drawn, pools clamped and charged), the crowd side
/// is still pending as [`SendOrder`]s. `stats.sent` stays 0 until the
/// orders execute.
pub(crate) struct IssuedDispatch {
    pub(crate) orders: Vec<SendOrder>,
    stats: DispatchStats,
    charges: Vec<(TenantId, f64)>,
}

/// One slot's crowd-side outcome, produced by the drain stage and
/// consumed by the ingest stage.
pub(crate) struct DrainedBatch {
    pub(crate) slot: u64,
    sent: u64,
    faults: FaultDeltas,
    responses: Vec<SensorResponse>,
    epoch_start: f64,
    epoch_end: f64,
}

/// The merge of one epoch's ingestion, pre-report.
struct Ingested {
    fresh: Vec<(QueryId, Vec<CrowdTuple>)>,
    delivered: Vec<(QueryId, usize)>,
    exec: IngestReport,
    ingested: usize,
    rejected: usize,
}

/// Everything slot-local the report assembly needs besides the
/// ingestion outcome.
pub(crate) struct SlotMeta {
    epoch: u64,
    now: f64,
    dispatch: DispatchStats,
    responses: usize,
    faults: FaultDeltas,
    charges: Vec<(TenantId, f64)>,
    stale_actions: u64,
}

/// One ingested slot on its way to the control and render stages.
pub(crate) struct IngestedSlot {
    pub(crate) slot: u64,
    pub(crate) report: EpochReport,
    /// Raw (pre-corruption) responses for the tap; `None` when no tap
    /// listens or a replay borrows them from the recorded inputs.
    pub(crate) raw: Option<Vec<SensorResponse>>,
    /// Built only when a hook is installed.
    pub(crate) obs: Option<EpochObservation>,
}

impl CrowdHalf<'_> {
    /// The drain stage's first half: prologue(`slot`), then execute the
    /// orders issued for the slot (a replay takes the recorded send count
    /// instead). Returns the slot's batch with no responses drained yet.
    pub(crate) fn execute(
        &mut self,
        slot: u64,
        orders: &[SendOrder],
        input: Option<&ReplayInputs<'_>>,
    ) -> DrainedBatch {
        if let Some(p) = &mut self.prologue {
            p(slot, self.crowd);
        }
        let epoch_start = self.crowd.now();
        let sent = match input {
            None => execute_orders(self.crowd, orders),
            Some(inputs) => inputs.sent,
        };
        DrainedBatch {
            slot,
            sent,
            faults: FaultDeltas::default(),
            responses: Vec::new(),
            epoch_start,
            epoch_end: epoch_start,
        }
    }

    /// The drain stage's second half: the world moves through the
    /// mobility sub-steps, responses mature, and the matured responses
    /// are drained into the recycled `buf`. A replay steps the detached
    /// crowd only to advance the simulation clock through the same
    /// sequence of `step` calls, and takes the faults and responses from
    /// the recorded inputs.
    pub(crate) fn drain(
        &mut self,
        batch: &mut DrainedBatch,
        input: Option<&ReplayInputs<'_>>,
        mut buf: Vec<SensorResponse>,
    ) {
        let crowd = &mut *self.crowd;
        let before = FaultDeltas {
            dropped: crowd.responses_dropped(),
            delayed: crowd.responses_delayed(),
            duplicated: crowd.responses_duplicated(),
        };
        for _ in 0..self.substeps {
            crowd.step(self.dt);
        }
        batch.responses = match input {
            None => {
                batch.faults = FaultDeltas {
                    dropped: crowd.responses_dropped() - before.dropped,
                    delayed: crowd.responses_delayed() - before.delayed,
                    duplicated: crowd.responses_duplicated() - before.duplicated,
                };
                crowd.drain_responses_reusing(buf)
            }
            Some(inputs) => {
                batch.faults = inputs.faults;
                buf.clear();
                buf.extend_from_slice(inputs.responses);
                buf
            }
        };
        batch.epoch_end = crowd.now();
    }
}

impl EpochCore<'_> {
    /// The issuing half of a dispatch (see
    /// [`RequestResponseHandler::issue_epoch_orders`]): demands, tenant
    /// share refresh, epoch meters, budget draws, clamping/charging, and
    /// the per-epoch tenant charges — everything but the crowd sends.
    /// `detached` skips order collection for replays.
    pub(crate) fn issue(&mut self, detached: bool) -> IssuedDispatch {
        let demands = self.fabricator.demands();
        let shares = if self.tenants.is_some() {
            self.fabricator.refresh_tenant_shares();
            Some(self.fabricator.tenant_shares())
        } else {
            None
        };
        if let Some(registry) = self.tenants.as_mut() {
            registry.begin_epoch();
        }
        let tenancy = match (self.tenants.as_mut(), shares) {
            (Some(registry), Some(shares)) => Some((registry, shares)),
            _ => None,
        };
        let grid = if detached { None } else { Some(self.fabricator.grid()) };
        let (orders, stats) = self.handler.issue_epoch_orders(grid, &demands, tenancy);
        let charges = self.tenants.as_ref().map_or_else(Vec::new, |t| t.epoch_charges());
        IssuedDispatch { orders, stats, charges }
    }

    /// The ingest stage's head for one slot: fold the executed `sent`
    /// into the dispatch stats and the handler's counter, apply the
    /// hook's actions from the previous slot (after this slot's orders
    /// already executed, before the next slot's are issued), and feed
    /// the retry shortfall from the drained responses. Returns the
    /// report metadata, `stale_actions` included.
    pub(crate) fn begin_slot(
        &mut self,
        epoch: u64,
        issued: IssuedDispatch,
        batch: &DrainedBatch,
        actions: &[ControlAction],
    ) -> SlotMeta {
        let mut dispatch = issued.stats;
        dispatch.sent = batch.sent;
        self.handler.record_sent(batch.sent);
        let stale_actions = self.apply_actions(actions);
        // Shortfall feedback for bounded retry (when configured) counts
        // the drained responses per chain.
        if self.handler.retry_enabled() {
            let grid = self.fabricator.grid();
            let mut counts: HashMap<(craqr_geom::CellId, AttributeId), u64> = HashMap::new();
            for r in &batch.responses {
                if let Some(cell) = grid.cell_of(r.measurement.point.x, r.measurement.point.y) {
                    *counts.entry((cell, r.measurement.attr)).or_insert(0) += 1;
                }
            }
            self.handler.observe_responses(&counts);
        }
        SlotMeta {
            epoch,
            now: batch.epoch_end,
            dispatch,
            responses: batch.responses.len(),
            faults: batch.faults,
            charges: issued.charges,
            stale_actions,
        }
    }

    /// The ingest stage's tail for one slot: snapshot the raw responses
    /// into `raw` for the tap (before error injection mutates them in
    /// place), absorb them, tune budgets and assemble the report, then
    /// snapshot the hook's observation (only when one is listening) and
    /// bank the fresh tuples into the per-query output buffers.
    /// Returns the finished slot and the spent response buffer for
    /// recycling.
    pub(crate) fn finish_slot(
        &mut self,
        meta: SlotMeta,
        batch: DrainedBatch,
        mut raw: Option<Vec<SensorResponse>>,
        want_obs: bool,
    ) -> (IngestedSlot, Vec<SensorResponse>) {
        if let Some(buf) = &mut raw {
            buf.clear();
            buf.extend_from_slice(&batch.responses);
        }
        let (ing, spent) = self.absorb(batch.responses);
        let (report, fresh) = self.finish_report(meta, ing);
        let obs = want_obs.then(|| {
            EpochObservation::capture(
                &report,
                &fresh,
                self.fabricator,
                self.handler,
                self.tenants.as_ref(),
                batch.epoch_start,
                batch.epoch_end,
            )
        });
        for (qid, out) in fresh {
            self.outputs.entry(qid).or_default().extend(out);
        }
        (IngestedSlot { slot: batch.slot, report, raw, obs }, spent)
    }

    /// Applies a hook's actions, returning how many were stale (targeted
    /// a chain retired since the observation).
    pub(crate) fn apply_actions(&mut self, actions: &[ControlAction]) -> u64 {
        let mut stale = 0u64;
        for action in actions {
            match *action {
                ControlAction::SetBudget { cell, attr, requests_per_epoch } => {
                    if !self.handler.set_budget(cell, attr, requests_per_epoch) {
                        stale += 1;
                    }
                }
                ControlAction::RebuildChain { cell, attr } => {
                    if let Some(leftovers) = self.fabricator.rebuild_chain(cell, attr) {
                        // The merge drains every sink before actions can
                        // run, so the leftovers are empty; they flow into
                        // the output buffers anyway so no tuple can ever
                        // be lost. If an operator starts buffering output
                        // across epochs this trips: such tuples would
                        // bypass `delivered` accounting and hook
                        // observation, and that needs a conscious design
                        // decision.
                        debug_assert!(
                            leftovers.iter().all(|(_, buf)| buf.is_empty()),
                            "rebuild leftovers bypass delivered accounting"
                        );
                        for (qid, buf) in leftovers {
                            self.outputs.entry(qid).or_default().extend(buf);
                        }
                    } else {
                        stale += 1;
                    }
                }
            }
        }
        stale
    }

    /// Error injection → mitigation → id assignment → map/process →
    /// per-query merge, consuming one epoch's drained responses. Returns
    /// the merge outcome and the spent response buffer (retained in place
    /// through mitigation) for recycling. The mitigation region comes
    /// from the grid, which stores the crowd's region verbatim — the
    /// ingest stage never needs the crowd.
    fn absorb(&mut self, mut responses: Vec<SensorResponse>) -> (Ingested, Vec<SensorResponse>) {
        self.config.error_model.corrupt_batch(&mut responses, self.error_rng);
        let region = self.fabricator.grid().region();
        let (responses, rejected) = self.config.mitigation.apply(responses, &region);
        let tuples = self.idgen.ingest(&responses);
        let ingested = tuples.len();
        let exec = self.fabricator.ingest_batch_mode(&tuples, self.config.exec);
        let mut fresh: Vec<(QueryId, Vec<CrowdTuple>)> = Vec::new();
        let mut delivered = Vec::new();
        for qid in self.fabricator.query_ids() {
            let out = self.fabricator.collect_output(qid).expect("standing query");
            delivered.push((qid, out.len()));
            fresh.push((qid, out));
        }
        (Ingested { fresh, delivered, exec, ingested, rejected }, responses)
    }

    /// Budget tuning from flatten telemetry + report assembly. Returns
    /// the report and the fresh per-query tuples.
    fn finish_report(
        &mut self,
        meta: SlotMeta,
        ing: Ingested,
    ) -> (EpochReport, Vec<(QueryId, Vec<CrowdTuple>)>) {
        let tuning = self.handler.tune(&self.fabricator.flatten_reports());
        let report = EpochReport {
            epoch: meta.epoch,
            now: meta.now,
            dispatch: meta.dispatch,
            responses: meta.responses,
            mitigation_rejected: ing.rejected,
            ingested: ing.ingested,
            exec: ing.exec,
            delivered: ing.delivered,
            tuning,
            tenant_charges: meta.charges,
            stale_actions: meta.stale_actions,
            faults: meta.faults,
        };
        (report, ing.fresh)
    }
}

/// The control stage: the hook observes one slot and emits its actions
/// (none without a hook).
pub(crate) fn control(
    hook: Option<&mut (dyn ControlHook + '_)>,
    obs: Option<&EpochObservation>,
) -> Vec<ControlAction> {
    match (hook, obs) {
        (Some(hook), Some(obs)) => hook.on_epoch(obs),
        _ => Vec::new(),
    }
}

/// The render stage: the tap records one slot — its report, the raw
/// responses (the ingest stage's snapshot, or the recorded inputs under
/// replay), and the actions the hook just emitted.
pub(crate) fn render(
    tap: Option<&mut (dyn EpochTap + '_)>,
    input: Option<&ReplayInputs<'_>>,
    slot: &IngestedSlot,
    actions: &[ControlAction],
) {
    let Some(tap) = tap else { return };
    let responses: &[SensorResponse] = match (input, &slot.raw) {
        (Some(inputs), _) => inputs.responses,
        (None, Some(raw)) => raw,
        (None, None) => &[],
    };
    tap.on_epoch(&EpochInputsRecord { report: &slot.report, responses, actions });
}

/// Buffer-recycling counters for a horizon run — the observable half of
/// the [`BatchPool`]-backed response/raw buffer recycling. Timing- and
/// allocation-free runs are not part of the byte contract; these counters
/// exist so tests can pin the *steady state*: after warm-up, every epoch
/// reuses pooled buffers and `fresh_allocations` stops growing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers newly allocated because the pool was empty.
    pub fresh_allocations: u64,
    /// Buffers served from the pool (allocation-free epochs).
    pub recycled: u64,
    /// Buffers parked in the pools when the run ended.
    pub pooled: usize,
}

impl PoolStats {
    /// Takes a buffer from `pool`, counting whether it was recycled or
    /// freshly allocated.
    pub(crate) fn take<T>(&mut self, pool: &mut BatchPool<T>) -> Vec<T> {
        if pool.retained() > 0 {
            self.recycled += 1;
        } else {
            self.fresh_allocations += 1;
        }
        pool.take()
    }
}

/// What a horizon run ([`EpochDriver::run`] and friends) produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOutcome {
    /// One report per completed epoch, in epoch order. A crashed run
    /// holds exactly the epochs whose render stage fired — the same set a
    /// salvaged run log records as durable.
    pub reports: Vec<EpochReport>,
    /// `false` when an armed in-loop [`CrashPoint`] abandoned the run.
    pub completed: bool,
    /// Buffer-recycling counters (see [`PoolStats`]).
    pub pool: PoolStats,
}

impl RunOutcome {
    /// Buffers parked in the driver's pools when the run ended —
    /// non-zero once recycling reached steady state.
    pub fn pooled_buffers(&self) -> usize {
        self.pool.pooled
    }
}

/// A per-epoch crowd mutation applied before dispatch (regime shifts,
/// churn, fault-window updates) — see [`EpochDriver::prologue`].
pub(crate) type Prologue<'a> = Box<dyn FnMut(u64, &mut Crowd) + Send + 'a>;

/// The builder-style epoch executor over one [`CraqrServer`] — see the
/// [module docs](crate::driver) for the schedule and its semantics.
/// Build one with [`CraqrServer::driver`], chain the optional seams, then
/// run a horizon:
///
/// ```text
/// server.driver().hook(&mut h).run(16);          // staged 16-epoch horizon
/// server.driver().tap(&mut t).run_pipelined(16); // same bytes, 4 threads
/// ```
pub struct EpochDriver<'a> {
    pub(crate) server: &'a mut CraqrServer,
    pub(crate) hook: Option<&'a mut dyn ControlHook>,
    pub(crate) tap: Option<&'a mut dyn EpochTap>,
    pub(crate) timer: Option<&'a mut dyn PhaseTimer>,
    pub(crate) prologue: Option<Prologue<'a>>,
    pub(crate) crash: Option<(u64, CrashPoint)>,
}

impl<'a> EpochDriver<'a> {
    /// A bare driver: no seams, no crash.
    pub fn new(server: &'a mut CraqrServer) -> Self {
        Self { server, hook: None, tap: None, timer: None, prologue: None, crash: None }
    }

    /// Installs the control seam: the hook observes every epoch and its
    /// actions are applied one slot later (see the module docs).
    pub fn hook(mut self, hook: &'a mut dyn ControlHook) -> Self {
        self.hook = Some(hook);
        self
    }

    /// Installs the recording seam: the tap observes every completed
    /// epoch's inputs, in strict epoch order.
    pub fn tap(mut self, tap: &'a mut dyn EpochTap) -> Self {
        self.tap = Some(tap);
        self
    }

    /// Installs the timing seam. Without one, the loop reads no clock at
    /// all; with one, only the timer sees the readings — every
    /// checksummed artifact is bit-identical either way.
    pub fn timer(mut self, timer: &'a mut dyn PhaseTimer) -> Self {
        self.timer = Some(timer);
        self
    }

    /// Installs a pre-epoch prologue: called with the slot index and the
    /// crowd at the top of each slot's drain stage (scripted world
    /// shifts, churn, fault windows). Crowd-only by construction — the
    /// planner half is mid-flight on another epoch when the pipelined
    /// executor runs this.
    pub fn prologue(mut self, f: impl FnMut(u64, &mut Crowd) + Send + 'a) -> Self {
        self.prologue = Some(Box::new(f));
        self
    }

    /// Arms a crash: the horizon run dies at `point` of slot `slot`,
    /// exactly as a process kill there would (see the module docs).
    pub fn crash_at(mut self, slot: u64, point: CrashPoint) -> Self {
        self.crash = Some((slot, point));
        self
    }

    /// Runs `epochs` slots of the staged schedule single-threaded — the
    /// serial executor of the dataflow the pipelined executor spreads
    /// across worker threads, byte-identical to it by construction.
    pub fn run(self, epochs: u64) -> RunOutcome {
        self.run_horizon(epochs, None)
    }

    /// Runs the staged schedule across four worker threads (drain,
    /// ingest, control, render) connected by bounded channels — see
    /// [`crate::pipeline`]. Byte-identical to [`EpochDriver::run`].
    pub fn run_pipelined(self, epochs: u64) -> RunOutcome {
        crate::pipeline::run_pipelined(self, epochs, None)
    }

    /// [`EpochDriver::run`] from recorded inputs instead of the live
    /// crowd (one [`ReplayInputs`] per slot, the horizon is the slice
    /// length): dispatch draws the budgets but sends nothing, the crowd
    /// is only stepped to advance the simulation clock (use a detached —
    /// zero-sensor — crowd), and the recorded responses take the place of
    /// the drained ones. Everything downstream runs exactly as live.
    pub fn run_replayed(self, inputs: &[ReplayInputs<'_>]) -> RunOutcome {
        self.run_horizon(inputs.len() as u64, Some(inputs))
    }

    /// [`EpochDriver::run_pipelined`] from recorded inputs — replays a
    /// log across the four stage workers, byte-identical to
    /// [`EpochDriver::run_replayed`].
    pub fn run_replayed_pipelined(self, inputs: &[ReplayInputs<'_>]) -> RunOutcome {
        crate::pipeline::run_pipelined(self, inputs.len() as u64, Some(inputs))
    }

    /// The staged schedule, single-threaded: the slot functions called in
    /// schedule order, with the timer observing each stage span inline.
    fn run_horizon(self, n: u64, replay: Option<&[ReplayInputs<'_>]>) -> RunOutcome {
        let EpochDriver { server, mut hook, mut tap, mut timer, prologue, crash } = self;
        let detached = replay.is_some();
        let (mut crowd, epoch_counter, mut core) = split(server, prologue);
        let base = *epoch_counter;
        let mut outcome =
            RunOutcome { reports: Vec::with_capacity(n as usize), ..Default::default() };
        if n == 0 {
            outcome.completed = true;
            return outcome;
        }
        // Response and raw-snapshot buffers recycle through pools, the
        // serial twin of the pipeline's return channels. Pooling only
        // reuses capacity — contents are cleared on every cycle — so it
        // is byte-inert.
        let mut pool: BatchPool<SensorResponse> = BatchPool::default();
        let mut raw_pool: BatchPool<SensorResponse> = BatchPool::default();

        // Per-stage spans (timing tier only; zero clock reads untimed).
        // craqr-lint: allow(R1): stage spans feed Timing-tier metrics only, never canonical_events
        let mut span_clock = timer.as_ref().map(|_| thread_busy_ns());
        let mut span = |stage: PipelineStage, slot: u64, phase: EpochPhase| {
            if let Some(t) = timer.as_deref_mut() {
                // craqr-lint: allow(R1): same Timing-tier stage span; excluded from checksummed artifacts
                let now = thread_busy_ns();
                let start = span_clock.expect("clock anchored when timer installed");
                t.observe_stage(stage, slot, phase, now.saturating_sub(start));
                span_clock = Some(now);
            }
        };

        let mut pending = Some(core.issue(detached));
        span(PipelineStage::Ingest, 0, EpochPhase::Dispatch);
        let mut pending_actions: Vec<ControlAction> = Vec::new();
        for t in 0..n {
            // ── drain stage ────────────────────────────────────────────
            // A restarted process observes the epoch counter advanced as
            // soon as the slot began, crashed or not.
            *epoch_counter = base + t + 1;
            let input = replay.map(|inputs| &inputs[t as usize]);
            let issued = pending.take().expect("orders issued by the previous slot");
            let mut batch = crowd.execute(t, &issued.orders, input);
            span(PipelineStage::Drain, t, EpochPhase::Dispatch);
            if crash == Some((t, CrashPoint::PostDispatch)) {
                return outcome;
            }
            crowd.drain(&mut batch, input, outcome.pool.take(&mut pool));
            span(PipelineStage::Drain, t, EpochPhase::Drain);
            if crash == Some((t, CrashPoint::PostDrain)) {
                return outcome;
            }

            // ── ingest stage ───────────────────────────────────────────
            let meta = core.begin_slot(base + t, issued, &batch, &pending_actions);
            span(PipelineStage::Ingest, t, EpochPhase::Ingest);
            if t + 1 < n {
                pending = Some(core.issue(detached));
            }
            span(PipelineStage::Ingest, t, EpochPhase::Dispatch);
            let raw = (tap.is_some() && !detached).then(|| outcome.pool.take(&mut raw_pool));
            let (slot, spent) = core.finish_slot(meta, batch, raw, hook.is_some());
            pool.put(spent);
            span(PipelineStage::Ingest, t, EpochPhase::Ingest);

            // ── control stage ──────────────────────────────────────────
            let actions = control(hook.as_deref_mut(), slot.obs.as_ref());
            span(PipelineStage::Control, t, EpochPhase::Control);
            if crash == Some((t, CrashPoint::PostControl)) {
                return outcome;
            }

            // ── render stage ───────────────────────────────────────────
            render(tap.as_deref_mut(), input, &slot, &actions);
            if let Some(buf) = slot.raw {
                raw_pool.put(buf);
            }
            span(PipelineStage::Render, t, EpochPhase::LogAppend);
            outcome.reports.push(slot.report);
            pending_actions = actions;
        }
        // The final epoch's actions land on a server no further epoch
        // reads; applied anyway so a full-horizon rerun (resume) and the
        // original leave bit-identical final state. Their stale count has
        // no report to live in.
        let _ = core.apply_actions(&pending_actions);
        outcome.pool.pooled = pool.retained() + raw_pool.retained();
        outcome.completed = true;
        outcome
    }
}
