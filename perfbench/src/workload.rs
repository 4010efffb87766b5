//! The four seeded workloads: what each one feeds CrAQR and why.
//!
//! A workload is a fixed shape (crowd size, grid, queries, shift and fault
//! schedule) plus a seed. The seed drives every random stream the program
//! has — sensor placement, mobility, participation, faults, the planner —
//! so the same seed gives the same inputs and the same outputs, and a
//! second seed gives an independent sample of the same shape.

use craqr_core::handler::RetryPolicy;
use craqr_core::{ExecMode, PlannerConfig, ServerConfig};
use craqr_geom::Rect;
use craqr_sensing::{CrowdFaults, Mobility, Placement, PopulationConfig};

/// Side of the square region every workload runs on (km).
pub const REGION_KM: f64 = 4.0;

/// The seed the benchmark uses when none is given. The held-out seed for
/// confirming a claimed gain, 424242, is named in `README.md`.
pub const DEFAULT_SEED: u64 = 7;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 10⁵ sensors on a 16² grid: the crowd simulator's dispatch scan.
    CityDense,
    /// Six overlapping high-rate queries: the engine's operator chains.
    IngestHeavy,
    /// Tenants, adaptive control, shifts, faults and a fsynced run log.
    DriftRecorded,
    /// Parse the run log `DriftRecorded` writes and re-drive it detached.
    ReplayDrift,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::CityDense,
        Workload::IngestHeavy,
        Workload::DriftRecorded,
        Workload::ReplayDrift,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CityDense => "city_dense",
            Workload::IngestHeavy => "ingest_heavy",
            Workload::DriftRecorded => "drift_recorded",
            Workload::ReplayDrift => "replay_drift",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The generated inputs of this workload under `seed`. `ReplayDrift`
    /// replays exactly what `DriftRecorded` produces, so it shares its
    /// parameters.
    pub fn params(self, seed: u64) -> Params {
        let city = Placement::city(&region());
        let waypoint = Mobility::random_waypoint(0.08, 5.0);
        match self {
            Workload::CityDense => Params {
                seed,
                sensors: 100_000,
                placement: city,
                mobility: waypoint,
                human_fraction: 0.4,
                grid_side: 16,
                initial_budget: 20.0,
                epochs: 12,
                queries: vec![
                    Query::new("ACQUIRE rain FROM RECT(0,0,4,4) RATE 0.2", None),
                    Query::new("ACQUIRE temp FROM RECT(1,1,3,3) RATE 0.5", None),
                ],
                tenants: Vec::new(),
                shifts: Vec::new(),
                faults: Vec::new(),
                retry: None,
                adaptive: false,
                recorded: false,
            },
            Workload::IngestHeavy => Params {
                seed,
                sensors: 2_000,
                placement: city,
                mobility: waypoint,
                human_fraction: 0.4,
                grid_side: 8,
                initial_budget: 150.0,
                epochs: 30,
                queries: vec![
                    Query::new("ACQUIRE temp FROM RECT(0,0,4,4) RATE 4", None),
                    Query::new("ACQUIRE temp FROM RECT(0,0,2,4) RATE 3", None),
                    Query::new("ACQUIRE temp FROM RECT(1,1,3,3) RATE 2.5", None),
                    Query::new("ACQUIRE rain FROM RECT(0,0,4,4) RATE 2", None),
                    Query::new("ACQUIRE rain FROM RECT(2,0,4,4) RATE 1.5", None),
                    Query::new("ACQUIRE rain FROM RECT(1,1,4,3) RATE 3.5", None),
                ],
                tenants: Vec::new(),
                shifts: Vec::new(),
                faults: Vec::new(),
                retry: None,
                adaptive: false,
                recorded: false,
            },
            Workload::DriftRecorded | Workload::ReplayDrift => Params {
                seed,
                sensors: 5_000,
                placement: city,
                mobility: waypoint,
                human_fraction: 0.4,
                grid_side: 8,
                initial_budget: 20.0,
                epochs: 160,
                queries: vec![
                    Query::new("ACQUIRE temp FROM RECT(0,0,4,4) RATE 0.5", Some(0)),
                    Query::new("ACQUIRE rain FROM RECT(0,0,2,2) RATE 0.5", Some(0)),
                    Query::new("ACQUIRE temp FROM RECT(2,2,4,4) RATE 1", Some(1)),
                ],
                tenants: vec![("city".into(), 400.0), ("lab".into(), 120.0)],
                shifts: vec![
                    (40, Shift::Participation { factor: 2.0 }),
                    (90, Shift::Migrate { probability: 0.3, rect: Rect::new(0.0, 0.0, 1.5, 1.5) }),
                ],
                faults: vec![
                    FaultWindow { from: 20, to: 35, kind: FaultKind::Drop { p: 0.3 } },
                    FaultWindow {
                        from: 60,
                        to: 75,
                        kind: FaultKind::Delay { p: 0.4, minutes: 2.0 },
                    },
                    FaultWindow { from: 0, to: u64::MAX, kind: FaultKind::Duplicate { p: 0.05 } },
                ],
                retry: Some(RetryPolicy {
                    shortfall_threshold: 0.85,
                    backoff: 0.5,
                    max_attempts: 3,
                }),
                adaptive: true,
                recorded: self == Workload::DriftRecorded,
            },
        }
    }
}

/// The workload region.
pub fn region() -> Rect {
    Rect::with_size(REGION_KM, REGION_KM)
}

/// One standing query: its text and the index of its owning tenant
/// (`None` on single-owner servers).
#[derive(Debug, Clone)]
pub struct Query {
    /// Declarative query text.
    pub text: String,
    /// Index into [`Params::tenants`].
    pub tenant: Option<usize>,
}

impl Query {
    fn new(text: &str, tenant: Option<usize>) -> Self {
        Self { text: text.into(), tenant }
    }
}

/// A scripted world change applied before an epoch.
#[derive(Debug, Clone, Copy)]
pub enum Shift {
    /// Every sensor's participation scales by `factor`.
    Participation {
        /// Scale factor.
        factor: f64,
    },
    /// Each sensor moves into `rect` with `probability`.
    Migrate {
        /// Per-sensor probability.
        probability: f64,
        /// Destination.
        rect: Rect,
    },
}

/// One crowd-fault kind with its parameters.
#[derive(Debug, Clone, Copy)]
pub enum FaultKind {
    /// Responses vanish with probability `p`.
    Drop {
        /// Probability.
        p: f64,
    },
    /// Responses are held back `minutes` with probability `p`.
    Delay {
        /// Probability.
        p: f64,
        /// Deferral.
        minutes: f64,
    },
    /// Responses arrive twice with probability `p`.
    Duplicate {
        /// Probability.
        p: f64,
    },
}

/// A fault active on epochs `from..=to`.
#[derive(Debug, Clone, Copy)]
pub struct FaultWindow {
    /// First epoch.
    pub from: u64,
    /// Last epoch (inclusive).
    pub to: u64,
    /// What fails.
    pub kind: FaultKind,
}

/// Everything the program receives for one workload run.
#[derive(Debug, Clone)]
pub struct Params {
    /// Seed for every random stream.
    pub seed: u64,
    /// Crowd size.
    pub sensors: usize,
    /// Initial placement law.
    pub placement: Placement,
    /// Mobility template.
    pub mobility: Mobility,
    /// Fraction of human sensors.
    pub human_fraction: f64,
    /// Cells per grid side.
    pub grid_side: u32,
    /// Initial requests/epoch per (cell, attribute).
    pub initial_budget: f64,
    /// Epochs per horizon.
    pub epochs: u64,
    /// Standing queries, in submission order.
    pub queries: Vec<Query>,
    /// Tenant pools `(name, requests/epoch)`; empty for single-owner.
    pub tenants: Vec<(String, f64)>,
    /// Scripted shifts `(epoch, shift)`.
    pub shifts: Vec<(u64, Shift)>,
    /// Crowd-fault windows.
    pub faults: Vec<FaultWindow>,
    /// Dispatch retry policy.
    pub retry: Option<RetryPolicy>,
    /// Whether the adaptive controller closes the loop.
    pub adaptive: bool,
    /// Whether a streaming run log is written and fsynced every epoch.
    pub recorded: bool,
}

impl Params {
    /// The server configuration these parameters imply.
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            initial_budget: self.initial_budget,
            planner: PlannerConfig {
                grid_side: self.grid_side,
                seed: self.seed,
                ..Default::default()
            },
            exec: ExecMode::Serial,
            retry: self.retry,
            ..Default::default()
        }
    }

    /// The population these parameters imply; `detached` builds an empty
    /// crowd for log replay.
    pub fn population(&self, detached: bool) -> PopulationConfig {
        PopulationConfig {
            size: if detached { 0 } else { self.sensors },
            placement: self.placement.clone(),
            mobility: self.mobility.clone(),
            human_fraction: self.human_fraction,
        }
    }

    /// The crowd faults active on epoch `e`.
    pub fn faults_at(&self, e: u64) -> CrowdFaults {
        let mut f = CrowdFaults::default();
        for w in self.faults.iter().filter(|w| (w.from..=w.to).contains(&e)) {
            match w.kind {
                FaultKind::Drop { p } => f.drop_probability = p,
                FaultKind::Delay { p, minutes } => {
                    f.delay_probability = p;
                    f.delay_minutes = minutes;
                }
                FaultKind::Duplicate { p } => f.duplicate_probability = p,
            }
        }
        f
    }

    /// A copy with the crowd and horizon divided by `factor` — the
    /// benchmark's own tests run every workload's code path at this
    /// reduced size.
    pub fn scaled_down(mut self, factor: usize) -> Self {
        self.sensors = (self.sensors / factor).max(50);
        let epochs = (self.epochs / factor as u64).max(4);
        let ratio = epochs as f64 / self.epochs as f64;
        let rescale = |e: u64| (e as f64 * ratio) as u64;
        for (e, _) in &mut self.shifts {
            *e = rescale(*e);
        }
        for w in &mut self.faults {
            w.from = rescale(w.from);
            w.to = if w.to == u64::MAX { u64::MAX } else { rescale(w.to) };
        }
        self.epochs = epochs;
        self
    }

    /// One-line description of the parameters for the result record.
    pub fn describe(&self) -> String {
        format!(
            "sensors={} grid={}x{} budget={} epochs={} queries={} tenants={} shifts={} \
             fault_windows={} retry={} adaptive={} recorded={}",
            self.sensors,
            self.grid_side,
            self.grid_side,
            self.initial_budget,
            self.epochs,
            self.queries.len(),
            self.tenants.len(),
            self.shifts.len(),
            self.faults.len(),
            self.retry.is_some(),
            self.adaptive,
            self.recorded
        )
    }
}
