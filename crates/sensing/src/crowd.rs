//! The simulated world: sensors, phenomena, and in-flight responses.

use crate::fields::Field;
use crate::population::PopulationConfig;
use crate::sensor::MobileSensor;
use crate::types::{AttributeId, SensorId, SensorResponse};
use craqr_geom::Rect;
use craqr_stats::sub_rng;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};

/// Configuration of a [`Crowd`].
#[derive(Debug, Clone)]
pub struct CrowdConfig {
    /// The geographical region `R`.
    pub region: Rect,
    /// Sensor population.
    pub population: PopulationConfig,
    /// Master seed; mobility, participation, and placement derive
    /// independent sub-streams from it.
    pub seed: u64,
}

/// Crowd-side delivery faults, applied independently to every maturing
/// response: message **drop** (the answer never arrives), **delay** (the
/// answer is held back a fixed number of minutes — the sensor re-measures
/// at the *new* delivery time, so a delayed answer carries a genuinely
/// staler position), and **duplication** (the transport delivers the same
/// answer twice). All probabilities default to zero; a default-faults
/// crowd draws nothing from the fault RNG stream and behaves
/// byte-identically to a fault-free one.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CrowdFaults {
    /// Probability that a maturing response is silently dropped.
    pub drop_probability: f64,
    /// Probability that a maturing response is deferred by
    /// [`delay_minutes`](Self::delay_minutes).
    pub delay_probability: f64,
    /// Deferral applied to delayed responses, in minutes. Must be `> 0`
    /// whenever `delay_probability > 0` (a zero delay would re-mature the
    /// response in the same instant, forever).
    pub delay_minutes: f64,
    /// Probability that a delivered response is delivered twice.
    pub duplicate_probability: f64,
}

impl CrowdFaults {
    /// True when any fault has a non-zero probability.
    pub fn is_active(&self) -> bool {
        self.drop_probability > 0.0
            || self.delay_probability > 0.0
            || self.duplicate_probability > 0.0
    }
}

/// An in-flight (accepted but not yet delivered) response.
#[derive(Debug, Clone, Copy)]
struct Pending {
    sensor: SensorId,
    attr: AttributeId,
    issued_at: f64,
}

/// A heap entry: one [`Pending`] response keyed by its due time and its
/// push sequence (the order its request was accepted in). The entry owns
/// its response, so the heap holds only what is in flight. A delayed
/// re-push keeps its sequence.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    due: f64,
    seq: u64,
    pending: Pending,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for InFlight {}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for InFlight {
    /// Max-heap order: the earliest due time pops first, and among equal
    /// due times the latest push pops first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.due.total_cmp(&self.due).then_with(|| self.seq.cmp(&other.seq))
    }
}

/// The simulated mobile crowd.
///
/// Time is explicit and advances only through [`Crowd::step`]. The
/// request/response contract mirrors Section IV-A exactly:
///
/// 1. The server calls [`Crowd::dispatch_requests`] for an attribute, a
///    target rectangle (a grid cell), a request count (the budget share for
///    this batch) and an incentive. Requests go to *randomly selected*
///    sensors currently inside the rectangle — sampled without replacement
///    when enough sensors are available, with replacement otherwise (the
///    paper's rule).
/// 2. Each targeted sensor independently decides *whether* and *when* to
///    answer (its [`crate::response::ResponseModel`]).
/// 3. As simulation time passes the due answers materialize: the sensor
///    measures the registered ground-truth field at its position *at answer
///    time* — so a slow human reports a location the query may no longer
///    care about, reproducing the paper's motivating failure mode.
/// 4. [`Crowd::drain_responses`] hands the matured responses to the server.
pub struct Crowd {
    region: Rect,
    sensors: Vec<MobileSensor>,
    fields: HashMap<AttributeId, Box<dyn Field>>,
    pending: BinaryHeap<InFlight>,
    /// Push sequence of the next accepted request.
    next_seq: u64,
    ready: Vec<SensorResponse>,
    now: f64,
    mobility_rng: StdRng,
    participation_rng: StdRng,
    fault_rng: StdRng,
    faults: CrowdFaults,
    requests_sent: u64,
    responses_delivered: u64,
    responses_dropped: u64,
    responses_delayed: u64,
    responses_duplicated: u64,
}

impl Crowd {
    /// Builds the crowd from a config.
    pub fn new(config: CrowdConfig) -> Self {
        let mut placement_rng = sub_rng(config.seed, 0);
        let sensors = config.population.build(&config.region, &mut placement_rng);
        Self {
            region: config.region,
            sensors,
            fields: HashMap::new(),
            pending: BinaryHeap::new(),
            next_seq: 0,
            ready: Vec::new(),
            now: 0.0,
            mobility_rng: sub_rng(config.seed, 1),
            participation_rng: sub_rng(config.seed, 2),
            // Stream 3 is reserved for faults. The stream is always built
            // (construction draws nothing) but only touched when a fault
            // probability is non-zero, so fault-free runs are unchanged.
            fault_rng: sub_rng(config.seed, 3),
            faults: CrowdFaults::default(),
            requests_sent: 0,
            responses_delivered: 0,
            responses_dropped: 0,
            responses_delayed: 0,
            responses_duplicated: 0,
        }
    }

    /// Registers the ground-truth field behind an attribute. Requests for
    /// unregistered attributes panic — a configuration bug.
    pub fn register_field(&mut self, attr: AttributeId, field: Box<dyn Field>) {
        self.fields.insert(attr, field);
    }

    /// Current simulation time (minutes).
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The region `R`.
    #[inline]
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Number of sensors `m`.
    #[inline]
    pub fn sensor_count(&self) -> usize {
        self.sensors.len()
    }

    /// Read access to the sensors (for diagnostics and tests).
    pub fn sensors(&self) -> &[MobileSensor] {
        &self.sensors
    }

    /// Ids of sensors currently inside `rect`.
    pub fn sensors_in(&self, rect: &Rect) -> Vec<SensorId> {
        self.sensors
            .iter()
            .filter(|s| {
                let (x, y) = s.position();
                rect.contains(x, y)
            })
            .map(|s| s.id())
            .collect()
    }

    /// Replaces the crowd-side delivery faults. The faults apply to every
    /// response maturing from the next [`Crowd::step`] onward; already
    /// delivered responses are unaffected. Call with
    /// `CrowdFaults::default()` to clear.
    ///
    /// # Panics
    /// Panics when any probability is outside `[0, 1]`, or when
    /// `delay_probability > 0` with a non-positive or non-finite
    /// `delay_minutes`.
    #[track_caller]
    pub fn set_faults(&mut self, faults: CrowdFaults) {
        for (name, p) in [
            ("drop_probability", faults.drop_probability),
            ("delay_probability", faults.delay_probability),
            ("duplicate_probability", faults.duplicate_probability),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be in [0,1], got {p}");
        }
        if faults.delay_probability > 0.0 {
            assert!(
                faults.delay_minutes.is_finite() && faults.delay_minutes > 0.0,
                "delay_minutes must be finite and > 0 when delays are active, got {}",
                faults.delay_minutes
            );
        }
        self.faults = faults;
    }

    /// The currently active crowd-side delivery faults.
    #[inline]
    pub fn faults(&self) -> CrowdFaults {
        self.faults
    }

    /// Advances the world by `dt` minutes: moves every sensor, then matures
    /// every pending response due by the new time, applying the active
    /// [`CrowdFaults`] to each maturing response.
    ///
    /// # Panics
    /// Panics when `dt <= 0`.
    pub fn step(&mut self, dt: f64) {
        assert!(dt > 0.0, "dt must be > 0");
        self.now += dt;
        for s in &mut self.sensors {
            s.advance(dt, &self.region, &mut self.mobility_rng);
        }
        // Mature due responses at post-move positions (answer-time position).
        // Fault draws are strictly conditional on a non-zero probability so
        // inactive fault kinds consume nothing from the fault stream.
        while let Some(&entry) = self.pending.peek() {
            let InFlight { due, pending: info, .. } = entry;
            if due > self.now {
                break;
            }
            self.pending.pop();
            if self.faults.drop_probability > 0.0
                && self.fault_rng.gen::<f64>() < self.faults.drop_probability
            {
                self.responses_dropped += 1;
                continue;
            }
            if self.faults.delay_probability > 0.0
                && self.fault_rng.gen::<f64>() < self.faults.delay_probability
            {
                // Re-queue at a strictly later due time; the sensor will
                // re-measure there, so the delay is observable staleness.
                // Terminates: each deferral moves `due` forward by a fixed
                // positive amount, so it eventually passes `now`.
                self.responses_delayed += 1;
                self.pending.push(InFlight { due: due + self.faults.delay_minutes, ..entry });
                continue;
            }
            let field = self
                .fields
                .get(&info.attr)
                .unwrap_or_else(|| panic!("no field registered for {}", info.attr));
            let sensor = &mut self.sensors[info.sensor.0 as usize];
            let measurement = sensor.observe(info.attr, field.as_ref(), due);
            let response =
                SensorResponse { sensor: info.sensor, measurement, issued_at: info.issued_at };
            self.ready.push(response);
            self.responses_delivered += 1;
            if self.faults.duplicate_probability > 0.0
                && self.fault_rng.gen::<f64>() < self.faults.duplicate_probability
            {
                self.ready.push(response);
                self.responses_delivered += 1;
                self.responses_duplicated += 1;
            }
        }
    }

    /// Sends `count` acquisition requests for `attr` to randomly selected
    /// sensors inside `target`, offering `incentive` each. Returns the
    /// number of requests actually sent (0 when the cell is empty).
    ///
    /// Sensors are sampled **without replacement** when at least `count`
    /// sensors are present, **with replacement** otherwise (Section IV-A).
    ///
    /// # Panics
    /// Panics when no field is registered for `attr`.
    pub fn dispatch_requests(
        &mut self,
        attr: AttributeId,
        target: &Rect,
        count: usize,
        incentive: f64,
    ) -> usize {
        assert!(self.fields.contains_key(&attr), "no field registered for {attr}");
        if count == 0 {
            return 0;
        }
        let candidates = self.sensors_in(target);
        if candidates.is_empty() {
            return 0;
        }
        let targets: Vec<SensorId> = if candidates.len() >= count {
            candidates.choose_multiple(&mut self.participation_rng, count).copied().collect()
        } else {
            (0..count)
                .map(|_| *candidates.choose(&mut self.participation_rng).expect("non-empty"))
                .collect()
        };
        let sent = targets.len();
        for sid in targets {
            self.requests_sent += 1;
            let sensor = &self.sensors[sid.0 as usize];
            if let Some(latency) = sensor.decide_response(incentive, &mut self.participation_rng) {
                let pending = Pending { sensor: sid, attr, issued_at: self.now };
                self.pending.push(InFlight {
                    due: self.now + latency,
                    seq: self.next_seq,
                    pending,
                });
                self.next_seq += 1;
            }
        }
        sent
    }

    /// Drains all matured responses (ordered by delivery time).
    ///
    /// Ties (identical delivery times — possible with zero-latency
    /// response models) break on `(sensor, attribute, issue time)`, a
    /// total order over distinguishable responses, so the drained
    /// sequence is a pure function of the set of matured responses.
    pub fn drain_responses(&mut self) -> Vec<SensorResponse> {
        self.drain_responses_reusing(Vec::new())
    }

    /// [`Crowd::drain_responses`] into a recycled buffer: `recycled` is
    /// cleared, swapped with the internal ready queue (which inherits the
    /// recycled allocation), and returned sorted. Steady-state epoch
    /// loops recycle their drained batch back through this to keep the
    /// drain allocation-free; the returned sequence is bit-identical to
    /// the plain drain.
    pub fn drain_responses_reusing(
        &mut self,
        mut recycled: Vec<SensorResponse>,
    ) -> Vec<SensorResponse> {
        recycled.clear();
        std::mem::swap(&mut recycled, &mut self.ready);
        recycled.sort_by(response_order);
        recycled
    }

    /// Total requests sent so far.
    #[inline]
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Total responses delivered so far (duplicates count individually).
    #[inline]
    pub fn responses_delivered(&self) -> u64 {
        self.responses_delivered
    }

    /// Responses swallowed by the drop fault.
    #[inline]
    pub fn responses_dropped(&self) -> u64 {
        self.responses_dropped
    }

    /// Deferral events applied by the delay fault (one response deferred
    /// twice counts twice).
    #[inline]
    pub fn responses_delayed(&self) -> u64 {
        self.responses_delayed
    }

    /// Extra copies injected by the duplication fault.
    #[inline]
    pub fn responses_duplicated(&self) -> u64 {
        self.responses_duplicated
    }

    /// Overall response rate (delivered / sent), 0 before any request.
    pub fn response_rate(&self) -> f64 {
        if self.requests_sent == 0 {
            0.0
        } else {
            self.responses_delivered as f64 / self.requests_sent as f64
        }
    }

    /// Replaces every sensor's participation model — the "participation
    /// collapse / recovery" lever used by the budget-tuning experiments.
    pub fn set_all_response_models(&mut self, model: crate::response::ResponseModel) {
        for s in &mut self.sensors {
            s.set_response_model(model);
        }
    }

    /// Scales every sensor's base response probability by `factor`
    /// (clamped to `[0, 1]`) — the "participation surge / fatigue" lever
    /// behind mid-run rate-jump scenarios. Deterministic: no RNG draw.
    ///
    /// # Panics
    /// Panics on a negative or non-finite factor.
    #[track_caller]
    pub fn scale_participation(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factor must be >= 0, got {factor}");
        for s in &mut self.sensors {
            let m = *s.response_model();
            s.set_response_model(crate::response::ResponseModel {
                base_probability: (m.base_probability * factor).clamp(0.0, 1.0),
                ..m
            });
        }
    }

    /// Correlated dropout: every sensor currently inside `rect`
    /// independently goes silent with probability `p` (its response
    /// probability becomes 0; the body keeps moving, so the population
    /// count — and the request fan-out — is unchanged). This is the
    /// failure mode of a regional outage: an app update bricking one
    /// city's fleet, a carrier losing a cell.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`.
    #[track_caller]
    pub fn drop_region(&mut self, rect: &Rect, p: f64) {
        assert!((0.0..=1.0).contains(&p), "dropout probability must be in [0,1], got {p}");
        for s in &mut self.sensors {
            let (x, y) = s.position();
            if rect.contains(x, y) && self.participation_rng.gen::<f64>() < p {
                let m = *s.response_model();
                s.set_response_model(crate::response::ResponseModel {
                    base_probability: 0.0,
                    incentive_sensitivity: 0.0,
                    ..m
                });
            }
        }
    }

    /// Hotspot migration: every sensor independently relocates into
    /// `target` with probability `p` (uniform position inside the target,
    /// mobility and participation models kept). Models the crowd following
    /// an event — a stadium emptying, a festival starting.
    ///
    /// # Panics
    /// Panics when `p` is outside `[0, 1]`, or when `target` is degenerate
    /// (zero width or height — there is nowhere to place a migrant).
    #[track_caller]
    pub fn migrate(&mut self, p: f64, target: &Rect) {
        assert!((0.0..=1.0).contains(&p), "migration probability must be in [0,1], got {p}");
        assert!(
            target.x0 < target.x1 && target.y0 < target.y1,
            "migration target must have positive area, got {target}"
        );
        for s in &mut self.sensors {
            if self.participation_rng.gen::<f64>() < p {
                let pos = (
                    self.participation_rng.gen_range(target.x0..target.x1),
                    self.participation_rng.gen_range(target.y0..target.y1),
                );
                s.set_position(pos);
            }
        }
    }

    /// Injects sensor churn: every sensor independently drops out with
    /// probability `p` (replaced by a fresh sensor at a random position, so
    /// the population size is stable but continuity is broken). Failure
    /// injection for the Section VI error experiments.
    pub fn churn(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "churn probability must be in [0,1]");
        let region = self.region;
        for s in &mut self.sensors {
            if self.participation_rng.gen::<f64>() < p {
                let pos = (
                    self.participation_rng.gen_range(region.x0..region.x1),
                    self.participation_rng.gen_range(region.y0..region.y1),
                );
                *s = MobileSensor::new(
                    s.id(),
                    pos,
                    crate::mobility::Mobility::random_waypoint(0.08, 5.0),
                    *s.response_model(),
                );
            }
        }
    }
}

/// The total order [`Crowd::drain_responses`] sorts by: delivery time,
/// then sensor, attribute, and issue time as tie-breaks. Responses equal
/// under this key are fully interchangeable (same sensor observing the
/// same field at the same instant), so any stream sorted by it is
/// uniquely determined by its response *set*.
fn response_order(a: &SensorResponse, b: &SensorResponse) -> std::cmp::Ordering {
    a.measurement
        .point
        .t
        .total_cmp(&b.measurement.point.t)
        .then_with(|| a.sensor.0.cmp(&b.sensor.0))
        .then_with(|| a.measurement.attr.0.cmp(&b.measurement.attr.0))
        .then_with(|| a.issued_at.total_cmp(&b.issued_at))
}

impl std::fmt::Debug for Crowd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crowd")
            .field("now", &self.now)
            .field("sensors", &self.sensors.len())
            .field("pending", &self.pending.len())
            .field("requests_sent", &self.requests_sent)
            .field("responses_delivered", &self.responses_delivered)
            .field("responses_dropped", &self.responses_dropped)
            .field("responses_delayed", &self.responses_delayed)
            .field("responses_duplicated", &self.responses_duplicated)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fields::{ConstantField, RainFront};
    use crate::mobility::Mobility;
    use crate::population::{Placement, PopulationConfig};
    use crate::types::AttrValue;

    fn crowd(size: usize, seed: u64) -> Crowd {
        let region = Rect::with_size(10.0, 10.0);
        let mut c = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.1 },
                human_fraction: 0.0,
            },
            seed,
        });
        c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Float(1.0))));
        c
    }

    #[test]
    fn in_flight_heap_matures_by_due_time_then_latest_push() {
        let entry = |due: f64, seq: u64| InFlight {
            due,
            seq,
            pending: Pending { sensor: SensorId(seq), attr: AttributeId(0), issued_at: 0.0 },
        };
        let mut heap: BinaryHeap<InFlight> = [(1.0, 0), (1.0, 1), (1.0, 2), (2.0, 3)]
            .into_iter()
            .map(|(d, s)| entry(d, s))
            .collect();
        // Equal due times: the latest push matures first.
        let first = heap.pop().unwrap();
        assert_eq!(first.seq, 2);
        // A delayed re-push keeps its sequence, so at its new due time it
        // ties behind every later push, not ahead of them.
        heap.push(InFlight { due: 2.0, ..first });
        heap.push(entry(2.0, 4));
        let order: Vec<(f64, u64)> =
            std::iter::from_fn(|| heap.pop()).map(|e| (e.due, e.seq)).collect();
        assert_eq!(order, vec![(1.0, 1), (1.0, 0), (2.0, 4), (2.0, 3), (2.0, 2)]);
    }

    #[test]
    fn step_advances_time_and_sensors() {
        let mut c = crowd(10, 1);
        let before: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        c.step(1.0);
        assert_eq!(c.now(), 1.0);
        let after: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        assert_ne!(before, after);
    }

    #[test]
    fn automatic_sensors_answer_quickly() {
        let mut c = crowd(200, 2);
        let sent = c.dispatch_requests(AttributeId(0), &c.region(), 100, 0.0);
        assert_eq!(sent, 100);
        // Automatic sensors: p=0.95, latency mean 0.05 min. One minute is
        // plenty of time for all accepted answers.
        c.step(1.0);
        let responses = c.drain_responses();
        assert!(responses.len() >= 85, "got {}", responses.len());
        assert!(c.response_rate() > 0.85);
        for r in &responses {
            assert!(r.measurement.point.t <= 1.0);
            assert_eq!(r.issued_at, 0.0);
        }
    }

    #[test]
    fn requests_to_empty_cell_send_nothing() {
        let mut c = crowd(5, 3);
        // A rect certainly holding no sensor (outside the region corner).
        let empty = Rect::new(9.99, 9.99, 9.999, 9.999);
        let sent = c.dispatch_requests(AttributeId(0), &empty, 10, 0.0);
        assert_eq!(sent, 0);
    }

    #[test]
    fn oversampling_uses_replacement() {
        let mut c = crowd(3, 4);
        // Ask for many more requests than sensors: all 20 go out (with
        // replacement), targeting the 3 sensors repeatedly.
        let sent = c.dispatch_requests(AttributeId(0), &c.region(), 20, 0.0);
        assert_eq!(sent, 20);
        c.step(1.0);
        let responses = c.drain_responses();
        assert!(responses.len() > 10, "got {}", responses.len());
        // Only three distinct sensors can have answered.
        let mut ids: Vec<u64> = responses.iter().map(|r| r.sensor.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert!(ids.len() <= 3);
    }

    #[test]
    fn responses_carry_answer_time_position_value() {
        let region = Rect::with_size(10.0, 10.0);
        let mut c = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size: 50,
                placement: Placement::Uniform,
                mobility: Mobility::Stationary,
                human_fraction: 0.0,
            },
            seed: 5,
        });
        // Rain front across half the region at all times.
        c.register_field(AttributeId(1), Box::new(RainFront::new(5.0, 0.0, 5.0)));
        c.dispatch_requests(AttributeId(1), &region, 50, 0.0);
        c.step(0.5);
        for r in c.drain_responses() {
            let expect = r.measurement.point.x < 5.0;
            assert_eq!(r.measurement.value, AttrValue::Bool(expect));
        }
    }

    #[test]
    fn slow_responses_arrive_in_later_steps() {
        let region = Rect::with_size(10.0, 10.0);
        let mut c = Crowd::new(CrowdConfig {
            region,
            population: PopulationConfig {
                size: 300,
                placement: Placement::Uniform,
                mobility: Mobility::Stationary,
                human_fraction: 1.0, // humans: mean latency 2 min
            },
            seed: 6,
        });
        c.register_field(AttributeId(0), Box::new(ConstantField(AttrValue::Bool(true))));
        c.dispatch_requests(AttributeId(0), &region, 300, 5.0);
        c.step(0.25);
        let early = c.drain_responses().len();
        for _ in 0..40 {
            c.step(0.5);
        }
        let late = c.drain_responses().len();
        assert!(late > early, "early {early}, late {late}");
    }

    #[test]
    #[should_panic(expected = "no field registered")]
    fn unregistered_attribute_panics() {
        let mut c = crowd(5, 7);
        let region = c.region();
        let _ = c.dispatch_requests(AttributeId(9), &region, 1, 0.0);
    }

    #[test]
    fn same_seed_reproduces_world() {
        let run = |seed| {
            let mut c = crowd(100, seed);
            c.dispatch_requests(AttributeId(0), &c.region(), 50, 0.0);
            c.step(1.0);
            c.drain_responses().len()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn scale_participation_changes_response_volume() {
        let run = |factor: Option<f64>| {
            let mut c = crowd(300, 21);
            if let Some(f) = factor {
                c.scale_participation(f);
            }
            c.dispatch_requests(AttributeId(0), &c.region(), 200, 0.0);
            c.step(1.0);
            c.drain_responses().len()
        };
        let base = run(None);
        assert!(run(Some(0.1)) < base / 2, "fatigue must cut responses");
        // Automatic sensors already answer at 0.95; scaling up saturates.
        assert!(run(Some(2.0)) >= base);
    }

    #[test]
    fn drop_region_silences_only_the_region() {
        let mut c = crowd(400, 22);
        let west = Rect::new(0.0, 0.0, 5.0, 10.0);
        c.drop_region(&west, 1.0);
        c.dispatch_requests(AttributeId(0), &c.region(), 400, 0.0);
        c.step(1.0);
        let responses = c.drain_responses();
        assert!(!responses.is_empty());
        // Stationary-ish walkers: responders overwhelmingly sit east.
        let west_hits = responses.iter().filter(|r| r.measurement.point.x < 5.0).count();
        assert!(
            (west_hits as f64) < responses.len() as f64 * 0.1,
            "west responses {west_hits}/{} after total west dropout",
            responses.len()
        );
    }

    #[test]
    fn migrate_concentrates_the_crowd() {
        let mut c = crowd(500, 23);
        let corner = Rect::new(0.0, 0.0, 2.0, 2.0);
        c.migrate(0.8, &corner);
        let inside = c.sensors_in(&corner).len();
        assert!(inside > 350, "migration left only {inside} sensors in the target");
    }

    #[test]
    fn default_faults_leave_the_world_byte_identical() {
        let run = |set_defaults: bool| {
            let mut c = crowd(200, 31);
            if set_defaults {
                c.set_faults(CrowdFaults::default());
            }
            c.dispatch_requests(AttributeId(0), &c.region(), 150, 0.0);
            c.step(1.0);
            c.drain_responses()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn drop_fault_swallows_everything_at_p1() {
        let mut c = crowd(200, 32);
        c.set_faults(CrowdFaults { drop_probability: 1.0, ..Default::default() });
        c.dispatch_requests(AttributeId(0), &c.region(), 150, 0.0);
        c.step(5.0);
        assert!(c.drain_responses().is_empty());
        assert!(c.responses_dropped() > 100, "dropped {}", c.responses_dropped());
        assert_eq!(c.responses_delivered(), 0);
    }

    #[test]
    fn delay_fault_defers_but_never_loses() {
        let baseline = {
            let mut c = crowd(200, 33);
            c.dispatch_requests(AttributeId(0), &c.region(), 150, 0.0);
            c.step(0.5);
            c.drain_responses().len()
        };
        let mut c = crowd(200, 33);
        c.set_faults(CrowdFaults {
            delay_probability: 0.8,
            delay_minutes: 1.0,
            ..Default::default()
        });
        c.dispatch_requests(AttributeId(0), &c.region(), 150, 0.0);
        c.step(0.5);
        let early = c.drain_responses();
        assert!(early.len() < baseline / 2, "early {} vs baseline {baseline}", early.len());
        assert!(c.responses_delayed() > 0);
        // Delays are finite deferrals: everything eventually arrives. The
        // deferral count per response is geometric (p = 0.8 re-drawn at
        // each re-maturation), so give the tail generous room.
        for _ in 0..150 {
            c.step(1.0);
        }
        let late = c.drain_responses();
        assert_eq!(early.len() + late.len(), baseline, "delay must not lose responses");
        // Delayed answers carry their (later) answer-time measurements.
        assert!(late.iter().all(|r| r.measurement.point.t > 0.5));
    }

    #[test]
    fn duplicate_fault_doubles_delivery_at_p1() {
        let mut c = crowd(200, 34);
        c.set_faults(CrowdFaults { duplicate_probability: 1.0, ..Default::default() });
        c.dispatch_requests(AttributeId(0), &c.region(), 100, 0.0);
        c.step(2.0);
        let responses = c.drain_responses();
        assert!(!responses.is_empty());
        assert_eq!(responses.len() as u64, c.responses_delivered());
        assert_eq!(c.responses_duplicated() * 2, c.responses_delivered());
        // Every response appears exactly twice, adjacent under the order.
        for pair in responses.chunks(2) {
            assert_eq!(pair[0], pair[1]);
        }
    }

    #[test]
    fn faults_are_deterministic_per_seed() {
        let run = || {
            let mut c = crowd(300, 35);
            c.set_faults(CrowdFaults {
                drop_probability: 0.3,
                delay_probability: 0.3,
                delay_minutes: 1.5,
                duplicate_probability: 0.3,
            });
            c.dispatch_requests(AttributeId(0), &c.region(), 200, 0.0);
            for _ in 0..10 {
                c.step(1.0);
            }
            (c.drain_responses(), c.responses_dropped(), c.responses_duplicated())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "delay_minutes must be finite and > 0")]
    fn zero_delay_with_active_probability_is_rejected() {
        let mut c = crowd(5, 36);
        c.set_faults(CrowdFaults { delay_probability: 0.5, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "drop_probability must be in [0,1]")]
    fn out_of_range_probability_is_rejected() {
        let mut c = crowd(5, 37);
        c.set_faults(CrowdFaults { drop_probability: 1.5, ..Default::default() });
    }

    #[test]
    fn churn_replaces_sensors() {
        let mut c = crowd(100, 8);
        let before: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        c.churn(1.0);
        let after: Vec<_> = c.sensors().iter().map(|s| s.position()).collect();
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        assert!(moved > 90, "churn(1.0) must replace nearly all, moved {moved}");
    }
}
