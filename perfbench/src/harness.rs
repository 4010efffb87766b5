//! Building a workload's server, driving one horizon through the public
//! epoch driver, and checking what came out.
//!
//! Every clock read lives here, in the benchmark, around the calls into
//! each layer: a [`PhaseTimer`] that reads the wall clock at each stage
//! boundary the serial driver reports, and wrappers around the control
//! hook, the recording tap and the prologue. The program itself is not
//! instrumented.

use crate::workload::{region, Params, Shift, REGION_KM};
use craqr_adaptive::{AdaptiveConfig, AdaptiveController};
use craqr_core::{
    ControlAction, ControlHook, CraqrServer, EpochInputsRecord, EpochObservation, EpochPhase,
    EpochReport, EpochTap, PhaseTimer, PipelineStage, QueryId, ReplayInputs,
};
use craqr_runlog::{RunLog, StreamingRecorder};
use craqr_sensing::{AttrValue, Crowd, CrowdConfig, RainFront, SensorResponse, TemperatureField};
use std::path::Path;
use std::time::Instant;

/// A built server and what building it cost.
pub struct Setup {
    /// The server, queries admitted, no epoch run.
    pub server: CraqrServer,
    /// Query ids in submission order.
    pub qids: Vec<QueryId>,
    /// `Crowd::new` (s).
    pub population_s: f64,
    /// Server construction, attribute registration, tenant registration
    /// and query planning/admission (s).
    pub plan_s: f64,
}

/// Builds the server `params` describe; `detached` gives it an empty
/// crowd for log replay.
pub fn build(params: &Params, detached: bool) -> Result<Setup, String> {
    let t0 = Instant::now();
    let crowd = Crowd::new(CrowdConfig {
        region: region(),
        population: params.population(detached),
        seed: params.seed,
    });
    let t1 = Instant::now();
    let mut server = CraqrServer::new(crowd, params.server_config());
    server.register_attribute(
        "rain",
        true,
        Box::new(RainFront::new(0.0, REGION_KM / 200.0, REGION_KM / 3.0)),
    );
    server.register_attribute("temp", false, Box::new(TemperatureField::city_default()));
    let tenants: Vec<_> =
        params.tenants.iter().map(|(name, cap)| server.register_tenant(name, *cap)).collect();
    let mut qids = Vec::with_capacity(params.queries.len());
    for q in &params.queries {
        let submitted = match q.tenant {
            Some(i) => server.submit_for(tenants[i], &q.text),
            None => server.submit(&q.text),
        };
        qids.push(submitted.map_err(|e| format!("query '{}': {e}", q.text))?);
    }
    let t2 = Instant::now();
    Ok(Setup {
        server,
        qids,
        population_s: (t1 - t0).as_secs_f64(),
        plan_s: (t2 - t1).as_secs_f64(),
    })
}

/// A run log read back for replay, with the recorded crowd responses
/// decoded once so every replayed horizon borrows them.
pub struct Recorded {
    /// The parsed log.
    pub log: RunLog,
    /// Per-epoch responses, decoded.
    pub responses: Vec<Vec<SensorResponse>>,
}

impl Recorded {
    /// Reads and parses the log at `path`.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let log = RunLog::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let responses = log
            .epochs
            .iter()
            .map(|r| r.responses.iter().map(|resp| resp.to_response()).collect())
            .collect();
        Ok(Self { log, responses })
    }

    /// The driver's replay inputs, one per recorded epoch.
    pub fn inputs(&self) -> Vec<ReplayInputs<'_>> {
        self.log
            .epochs
            .iter()
            .zip(&self.responses)
            .map(|(r, resp)| ReplayInputs { sent: r.sent, responses: resp, faults: r.faults() })
            .collect()
    }

    /// Requests the recording run sent, summed over epochs.
    pub fn sent(&self) -> u64 {
        self.log.epochs.iter().map(|r| r.sent).sum()
    }
}

/// Applies the scripted shifts and fault windows of epoch `e`.
fn prologue(params: &Params, e: u64, crowd: &mut Crowd) {
    for (_, shift) in params.shifts.iter().filter(|(at, _)| *at == e) {
        match *shift {
            Shift::Participation { factor } => crowd.scale_participation(factor),
            Shift::Migrate { probability, rect } => crowd.migrate(probability, &rect),
        }
    }
    if !params.faults.is_empty() {
        crowd.set_faults(params.faults_at(e));
    }
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Wall-clock spans keyed by (stage, phase), read at every stage boundary
/// the serial horizon driver reports. The thread-CPU nanoseconds the
/// driver passes in are ignored, so the whole breakdown stays in one
/// clock domain with the horizon's wall time.
struct WallTimer {
    last: Instant,
    spans: [[u64; 5]; 4],
}

impl WallTimer {
    fn span(&self, stage: PipelineStage, phase: EpochPhase) -> u64 {
        self.spans[stage_index(stage)][phase_index(phase)]
    }
}

fn stage_index(stage: PipelineStage) -> usize {
    PipelineStage::ALL.iter().position(|s| *s == stage).expect("listed stage")
}

fn phase_index(phase: EpochPhase) -> usize {
    EpochPhase::ALL.iter().position(|p| *p == phase).expect("listed phase")
}

impl PhaseTimer for WallTimer {
    // Single-epoch classic steps report phases without a stage; the
    // benchmark drives whole horizons, which report stages, so a bare
    // phase is filed under the stage that owns it in the staged schedule.
    fn observe(&mut self, phase: EpochPhase, nanos: u64) {
        let stage = match phase {
            EpochPhase::Dispatch | EpochPhase::Drain => PipelineStage::Drain,
            EpochPhase::Ingest => PipelineStage::Ingest,
            EpochPhase::Control => PipelineStage::Control,
            EpochPhase::LogAppend => PipelineStage::Render,
        };
        self.observe_stage(stage, 0, phase, nanos);
    }

    fn observe_stage(&mut self, stage: PipelineStage, _slot: u64, phase: EpochPhase, _: u64) {
        let now = Instant::now();
        self.spans[stage_index(stage)][phase_index(phase)] += (now - self.last).as_nanos() as u64;
        self.last = now;
    }
}

/// Times the control hook and counts the actions it returns.
struct TimedHook<'a> {
    inner: &'a mut dyn ControlHook,
    traced: bool,
    ns: u64,
    actions: u64,
}

impl ControlHook for TimedHook<'_> {
    fn on_epoch(&mut self, obs: &EpochObservation) -> Vec<ControlAction> {
        let start = self.traced.then(Instant::now);
        let actions = self.inner.on_epoch(obs);
        if let Some(start) = start {
            self.ns += ns_since(start);
        }
        self.actions += actions.len() as u64;
        actions
    }
}

/// The last seam the driver calls in each epoch: it times the recorder it
/// wraps (if any) and reads the wall clock once to close the epoch.
struct EpochClock<'a> {
    inner: Option<&'a mut dyn EpochTap>,
    traced: bool,
    last: Instant,
    epoch_s: Vec<f64>,
    append_ns: u64,
    rss_kb: Vec<f64>,
}

impl EpochTap for EpochClock<'_> {
    fn on_epoch(&mut self, record: &EpochInputsRecord<'_>) {
        if let Some(inner) = self.inner.as_deref_mut() {
            if self.traced {
                let start = Instant::now();
                inner.on_epoch(record);
                self.append_ns += ns_since(start);
            } else {
                inner.on_epoch(record);
            }
        }
        if self.traced {
            self.rss_kb.push(crate::host::rss_kb().unwrap_or(0.0));
        }
        let now = Instant::now();
        self.epoch_s.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Where one traced horizon's wall time went (ns). Each field is a span
/// taken around a call into one layer; `wall` is the whole horizon.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Drain-stage dispatch span minus the prologue: executing the
    /// issued orders against the crowd.
    pub dispatch: u64,
    /// Scripted shifts and fault-window updates.
    pub prologue: u64,
    /// Drain-stage drain span: mobility sub-steps, maturing, drain.
    pub step: u64,
    /// Ingest-stage dispatch spans: budget draws, tenant clamp/charge.
    pub issue: u64,
    /// Ingest-stage ingest spans: actions, shortfall feedback, error
    /// model, mitigation, the operator chains, merge, tuning, report.
    pub ingest: u64,
    /// Inside the control hook.
    pub control: u64,
    /// Inside the run-log recorder.
    pub append: u64,
    /// The horizon's wall time.
    pub wall: u64,
}

impl Layers {
    /// Sum of the named layer spans.
    pub fn attributed(&self) -> u64 {
        self.dispatch
            + self.prologue
            + self.step
            + self.issue
            + self.ingest
            + self.control
            + self.append
    }

    /// Adds another horizon's spans.
    pub fn absorb(&mut self, o: &Layers) {
        self.dispatch += o.dispatch;
        self.prologue += o.prologue;
        self.step += o.step;
        self.issue += o.issue;
        self.ingest += o.ingest;
        self.control += o.control;
        self.append += o.append;
        self.wall += o.wall;
    }
}

/// What one horizon produced.
pub struct Horizon {
    /// Per-epoch wall times, end of epoch to end of epoch (s).
    pub epoch_s: Vec<f64>,
    /// The driver's reports, one per completed epoch.
    pub reports: Vec<EpochReport>,
    /// Whether the driver ran the whole horizon.
    pub completed: bool,
    /// Layer spans (traced horizons only).
    pub layers: Option<Layers>,
    /// `VmRSS` at each epoch's end (kB; traced horizons only).
    pub rss_kb: Vec<f64>,
    /// Control actions the hook returned.
    pub actions: u64,
    /// Size of the sealed run log (bytes; recorded horizons only).
    pub log_bytes: u64,
}

/// The live or replayed source of a horizon's crowd-side inputs.
pub enum Source<'a> {
    /// A live crowd; a recorded workload streams its run log to the path.
    Live(&'a Path),
    /// Recorded inputs on a detached server.
    Replay(&'a [ReplayInputs<'a>]),
}

/// Runs one horizon of `params.epochs` epochs on the serial executor.
pub fn drive(
    params: &Params,
    server: &mut CraqrServer,
    source: Source<'_>,
    traced: bool,
) -> Result<Horizon, String> {
    let mut controller =
        params.adaptive.then(|| AdaptiveController::new(AdaptiveConfig::default()));
    let log_path = match source {
        Source::Live(path) if params.recorded => Some(path),
        _ => None,
    };
    let mut recorder = match log_path {
        Some(path) => {
            let mut rec =
                StreamingRecorder::new(path, "perfbench", params.seed, &spec_text(params));
            rec.record_admissions(server.admissions());
            rec.begin().map_err(|e| format!("{}: {e}", path.display()))?;
            Some(rec)
        }
        None => None,
    };

    let mut hook = controller.as_mut().map(|c| TimedHook {
        inner: c as &mut dyn ControlHook,
        traced,
        ns: 0,
        actions: 0,
    });
    let start = Instant::now();
    let mut clock = EpochClock {
        inner: recorder.as_mut().map(|r| r as &mut dyn EpochTap),
        traced,
        last: start,
        epoch_s: Vec::with_capacity(params.epochs as usize),
        append_ns: 0,
        rss_kb: Vec::new(),
    };
    let mut timer = WallTimer { last: start, spans: [[0; 5]; 4] };
    let mut prologue_ns = 0u64;
    let outcome = {
        let mut d = server.driver().tap(&mut clock);
        if let Some(h) = hook.as_mut() {
            d = d.hook(h);
        }
        if traced {
            d = d.timer(&mut timer);
        }
        match source {
            Source::Live(_) => {
                let pro = &mut prologue_ns;
                d.prologue(move |e, crowd| {
                    if traced {
                        let t = Instant::now();
                        prologue(params, e, crowd);
                        *pro += ns_since(t);
                    } else {
                        prologue(params, e, crowd);
                    }
                })
                .run(params.epochs)
            }
            Source::Replay(inputs) => d.run_replayed(inputs),
        }
    };
    let wall = start.elapsed();

    let EpochClock { epoch_s, append_ns, rss_kb, .. } = clock;
    let (control_ns, actions) = hook.map_or((0, 0), |h| (h.ns, h.actions));
    let layers = traced.then(|| Layers {
        dispatch: timer
            .span(PipelineStage::Drain, EpochPhase::Dispatch)
            .saturating_sub(prologue_ns),
        prologue: prologue_ns,
        step: timer.span(PipelineStage::Drain, EpochPhase::Drain),
        issue: timer.span(PipelineStage::Ingest, EpochPhase::Dispatch),
        ingest: timer.span(PipelineStage::Ingest, EpochPhase::Ingest),
        control: control_ns,
        append: append_ns,
        wall: wall.as_nanos() as u64,
    });
    let mut log_bytes = 0;
    if let (Some(rec), Some(path)) = (recorder, log_path) {
        // The seal slot holds a scenario report checksum; the benchmark
        // checks its own digest instead, so it seals with 0.
        rec.finish(0, None).map_err(|e| format!("{}: {e}", path.display()))?;
        log_bytes = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?.len();
    }
    Ok(Horizon {
        epoch_s,
        reports: outcome.reports,
        completed: outcome.completed,
        layers,
        rss_kb,
        actions,
        log_bytes,
    })
}

/// The header text a recorded run log carries: the workload's parameters.
fn spec_text(params: &Params) -> String {
    format!("# perfbench drift_recorded\nseed = {}\n# {}\n", params.seed, params.describe())
}

/// 64-bit FNV-1a, fed field by field.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// The outputs of a horizon, reduced and checked.
#[derive(Debug, Clone, Default)]
pub struct Settled {
    /// Digest of every report's counters and every delivered tuple.
    pub digest: u64,
    /// Epochs that failed a check (all of them when a run-level check
    /// failed).
    pub failed_epochs: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// Σ requests sent ÷ Σ tuples delivered.
    pub requests_per_tuple: f64,
    /// Mean over queries of |achieved λ − requested λ| ÷ requested λ.
    pub rate_error: f64,
    /// Mean over queries of achieved λ ÷ requested λ.
    pub rate_attained: f64,
    /// Per-horizon counts for the trace.
    pub counts: Counts,
}

/// Deterministic per-horizon counts.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    /// Standing (cell, attribute) chains × epochs.
    pub orders: u64,
    /// Requests sent.
    pub sent: u64,
    /// Responses drained.
    pub responses: u64,
    /// Requests withheld by tenant pools.
    pub throttled: u64,
    /// Retry requests issued.
    pub retries: u64,
    /// Tuples ingested.
    pub ingested: u64,
    /// Tuples delivered.
    pub delivered: u64,
    /// Operator counters by kind: (kind, tuples in, tuples out, batches).
    pub operators: Vec<(String, u64, u64, u64)>,
}

/// Checks a finished horizon and reduces it to its digest and figures.
/// `expected_sent` is the crowd-side send total the dispatch statistics
/// must add up to: the live crowd's counter, or the recorded log's.
pub fn settle(
    params: &Params,
    server: &mut CraqrServer,
    qids: &[QueryId],
    h: &Horizon,
    expected_sent: u64,
) -> Settled {
    let mut s = Settled::default();
    let mut fnv = Fnv::new();
    let capacity = |t| server.tenants().and_then(|r| r.pool_of(t)).map(|p| p.capacity);
    let mut failed = vec![false; params.epochs as usize];
    if !h.completed || h.reports.len() as u64 != params.epochs {
        s.failures.push(format!("horizon ended after {} epochs", h.reports.len()));
    }
    for (i, r) in h.reports.iter().enumerate() {
        let mut fail = |why: String| {
            failed[i] = true;
            s.failures.push(format!("epoch {}: {why}", r.epoch));
        };
        if r.epoch != i as u64 {
            fail(format!("reported as epoch {}", r.epoch));
        }
        if r.ingested + r.mitigation_rejected != r.responses {
            fail(format!(
                "ingested {} + rejected {} != responses {}",
                r.ingested, r.mitigation_rejected, r.responses
            ));
        }
        for &(t, charge) in &r.tenant_charges {
            match capacity(t) {
                Some(cap) if charge <= cap + 1e-9 => {}
                cap => fail(format!("tenant {t} charged {charge} against pool {cap:?}")),
            }
        }
        for v in [
            r.epoch,
            r.dispatch.requested,
            r.dispatch.sent,
            r.dispatch.throttled,
            r.responses as u64,
            r.mitigation_rejected as u64,
            r.ingested as u64,
            r.exec.routed as u64,
            r.exec.dropped as u64,
            r.stale_actions,
            r.faults.dropped,
            r.faults.delayed,
            r.faults.duplicated,
        ] {
            fnv.u64(v);
        }
        fnv.f64(r.now);
        for &(q, n) in &r.delivered {
            fnv.u64(q.0);
            fnv.u64(n as u64);
        }
        for t in &r.tuning {
            fnv.u64(u64::from(t.cell.q) << 32 | u64::from(t.cell.r));
            fnv.u64(u64::from(t.attr.0));
            fnv.u64(t.outcome as u64);
            fnv.f64(t.budget_after);
        }
        for &(t, charge) in &r.tenant_charges {
            fnv.u64(u64::from(t.0));
            fnv.f64(charge);
        }
        s.counts.sent += r.dispatch.sent;
        s.counts.responses += r.responses as u64;
        s.counts.throttled += r.dispatch.throttled;
        s.counts.ingested += r.ingested as u64;
        s.counts.delivered += r.delivered.iter().map(|(_, n)| *n as u64).sum::<u64>();
    }
    if s.counts.sent != expected_sent {
        s.failures.push(format!("dispatch stats sent {} != crowd {expected_sent}", s.counts.sent));
    }

    let minutes = server.now();
    let mut taken = 0u64;
    let mut attained = Vec::with_capacity(qids.len());
    for &qid in qids {
        let (rate, area) = match server.fabricator().query_plan(qid) {
            Some(plan) => (plan.query.rate, plan.footprint.area()),
            None => {
                s.failures.push(format!("query {qid} lost its plan"));
                continue;
            }
        };
        let tuples = server.take_output(qid);
        taken += tuples.len() as u64;
        attained.push(tuples.len() as f64 / (area * minutes) / rate);
        fnv.u64(qid.0);
        for t in &tuples {
            fnv.u64(t.id);
            fnv.u64(u64::from(t.attr.0));
            fnv.f64(t.point.t);
            fnv.f64(t.point.x);
            fnv.f64(t.point.y);
            match t.value {
                AttrValue::Bool(b) => fnv.u64(u64::from(b)),
                AttrValue::Float(v) => fnv.f64(v),
            }
            fnv.u64(t.sensor.0);
        }
    }
    if taken != s.counts.delivered {
        s.failures.push(format!("reports delivered {} != outputs {taken}", s.counts.delivered));
    }
    s.digest = fnv.0;
    s.requests_per_tuple = s.counts.sent as f64 / s.counts.delivered.max(1) as f64;
    let n = attained.len().max(1) as f64;
    s.rate_error = attained.iter().map(|a| (a - 1.0).abs()).sum::<f64>() / n;
    s.rate_attained = attained.iter().sum::<f64>() / n;
    s.counts.orders = server.fabricator().demands().len() as u64 * params.epochs;
    s.counts.retries = server.handler().retries_requested();
    s.counts.operators = server
        .fabricator()
        .chain_metrics()
        .by_kind()
        .into_iter()
        .map(|(kind, m)| (kind, m.tuples_in, m.tuples_out, m.batches))
        .collect();
    let run_level = s.failures.iter().any(|f| !f.starts_with("epoch "));
    s.failed_epochs =
        if run_level { params.epochs } else { failed.iter().filter(|f| **f).count() as u64 };
    s
}

/// Marks a settled horizon failed because its digest differs from the
/// reference the workload and seed must reproduce.
pub fn require_digest(s: &mut Settled, reference: u64, epochs: u64) {
    if s.digest != reference {
        s.failures.push(format!("digest {:#018x} != reference {reference:#018x}", s.digest));
        s.failed_epochs = epochs;
    }
}
