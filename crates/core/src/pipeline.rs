//! The pipelined dataflow executor: the staged epoch schedule of
//! [`crate::driver`] spread across four long-lived worker threads
//! connected by bounded channels, so consecutive epochs overlap while
//! per-epoch ordering — and therefore every checksummed byte — is
//! preserved.
//!
//! # Stage / channel architecture
//!
//! ```text
//!             orders(t+1)                 pooled buffers
//!        ┌─────────────────── S2 ◀──────────────────────┐
//!        ▼                     ▲ │ actions(t-1)          │
//!   S1 drain ── batch(t) ──────┘ │    ▲                  │
//!   (crowd: prologue,            │    │                  │
//!    execute, steps, drain)      ▼    │                  │
//!                        S2 ingest (handler/fabricator:  │
//!                         apply, retry, issue, absorb,   │
//!                         tune, report, observation) ────┘
//!                                │
//!                          obs(t) ▼
//!                        S3 control (hook) ── actions(t) ──▶ back to S2
//!                                │
//!                          tap(t) ▼
//!                        S4 render (tap / log append) ── raw buffers ──▶ S2
//! ```
//!
//! Channels are FIFO, so every message arrives in slot order; data
//! channels are bounded (`sync_channel(2)`) so a fast stage can run at
//! most a couple of epochs ahead, and buffer-return channels flow
//! upstream so the hot path recycles allocations
//! ([`crate::driver::PoolStats`]).
//!
//! # Why the bytes cannot change
//!
//! The stage bodies are the slot functions of [`crate::driver`], the
//! same ones the serial executor calls in schedule order; this module
//! adds only the channels, the threads, the crash wind-down and the span
//! replay. Each stage *owns* its state: S1 the crowd, S2 the planner half
//! ([`crate::driver`]'s `EpochCore`), S3 the hook, S4 the tap. No state
//! is shared, so every mutation happens in the same order as the serial
//! staged schedule — the channels only move owned values forward. The
//! hook observes epochs in strict order on S3 (obs(t) cannot overtake
//! obs(t-1) in a FIFO channel), the tap appends in strict order on S4,
//! and the ingest stage blocks on actions(t-1) before issuing orders for
//! t+1, which pins the control lag to exactly the serial schedule's.
//! Thread scheduling can change only *when* a stage runs, never *what*
//! it computes. The golden corpus identity test and the pipelined chaos
//! matrix enforce this end to end.
//!
//! # Crash wind-down
//!
//! A crash is known when the run starts ([`crate::EpochDriver::crash_at`]),
//! so no runtime stop signal exists: the stage owning the crash point
//! simply exits after its last permitted operation, its channels
//! disconnect, and the neighbours drain in-flight earlier epochs until
//! their `recv` fails. The render stage therefore always records exactly
//! the epochs before the crash — the same durable prefix the serial
//! executor leaves.
//!
//! This module belongs to the **timing** determinism tier: stage workers
//! read the thread-CPU clock for per-stage spans when (and only when) a
//! timer is installed; nothing clock-derived reaches a checksummed
//! artifact.

use crate::driver::{
    control, render, DrainedBatch, EpochDriver, IngestedSlot, PoolStats, RunOutcome,
};
use crate::exec::thread_busy_ns;
use crate::handler::SendOrder;
use crate::phase::{EpochPhase, PipelineStage};
use crate::server::{ControlAction, CrashPoint, ReplayInputs};
use craqr_engine::BatchPool;
use craqr_sensing::SensorResponse;
use std::sync::mpsc::{channel, sync_channel};

/// One epoch's record for the tap, S3 → S4.
struct TapMsg {
    slot: IngestedSlot,
    actions: Vec<ControlAction>,
}

/// Per-stage span recorder: thread-CPU laps tagged with (slot, phase),
/// replayed through [`crate::PhaseTimer::observe_stage`] on the driver
/// thread after the workers join. Inert (zero clock reads) untimed.
struct StageClock {
    last: Option<u64>,
    spans: SpanList,
}

/// One stage's recorded spans: `(slot, phase, busy ns)` in lap order.
type SpanList = Vec<(u64, EpochPhase, u64)>;

impl StageClock {
    fn new(timed: bool) -> Self {
        Self { last: timed.then(thread_busy_ns), spans: Vec::new() }
    }

    /// Re-anchors after a blocking receive so queue-wait cost is not
    /// attributed to the next span.
    fn reset(&mut self) {
        if self.last.is_some() {
            self.last = Some(thread_busy_ns());
        }
    }

    fn lap(&mut self, slot: u64, phase: EpochPhase) {
        if let Some(last) = self.last {
            let now = thread_busy_ns();
            self.spans.push((slot, phase, now.saturating_sub(last)));
            self.last = Some(now);
        }
    }
}

/// Channel depth for the epoch-data channels: a stage can run at most
/// this many epochs ahead of its consumer before blocking.
const STAGE_DEPTH: usize = 2;

/// Runs the staged schedule across four worker threads, live or from
/// recorded inputs. Byte-identical to the serial executor — see the
/// module docs for the argument.
pub(crate) fn run_pipelined(
    driver: EpochDriver<'_>,
    n: u64,
    replay: Option<&[ReplayInputs<'_>]>,
) -> RunOutcome {
    let EpochDriver { server, hook, tap, timer, prologue, crash } = driver;
    let in_loop = crash.filter(|(_, p)| *p != CrashPoint::MidLogAppend);
    let crashes = in_loop.filter(|(slot, _)| *slot < n);
    let detached = replay.is_some();
    let has_hook = hook.is_some();
    let has_tap = tap.is_some();
    let timed = timer.is_some();
    let (crowd, epoch_counter, core) = crate::driver::split(server, prologue);
    let base = *epoch_counter;
    if n == 0 {
        return RunOutcome { completed: true, ..Default::default() };
    }

    let (order_tx, order_rx) = sync_channel::<Vec<SendOrder>>(STAGE_DEPTH);
    let (batch_tx, batch_rx) = sync_channel::<DrainedBatch>(STAGE_DEPTH);
    let (obs_tx, obs_rx) = sync_channel::<IngestedSlot>(STAGE_DEPTH);
    let (act_tx, act_rx) = sync_channel::<Vec<ControlAction>>(STAGE_DEPTH);
    let (tap_tx, tap_rx) = sync_channel::<TapMsg>(STAGE_DEPTH);
    // Buffer-return channels flow upstream, unbounded (returns never
    // block; depth is naturally capped by the data channels).
    let (pool_tx, pool_rx) = channel::<Vec<SensorResponse>>();
    let (raw_tx, raw_rx) = channel::<Vec<SensorResponse>>();

    let (
        (drain_stats, drain_pooled, drain_spans),
        (ingest_stats, ingest_pooled, ingest_spans),
        control_spans,
        (reports, render_spans),
    ) = std::thread::scope(|s| {
        // ── S1: drain — owns the crowd ────────────────────────────────
        let drain_worker = s.spawn(move || {
            let mut crowd = crowd;
            let mut pool: BatchPool<SensorResponse> = BatchPool::default();
            let mut stats = PoolStats::default();
            let mut clock = StageClock::new(timed);
            for t in 0..n {
                let Ok(orders) = order_rx.recv() else { break };
                clock.reset();
                let input = replay.map(|inputs| &inputs[t as usize]);
                let mut batch = crowd.execute(t, &orders, input);
                clock.lap(t, EpochPhase::Dispatch);
                if in_loop == Some((t, CrashPoint::PostDispatch)) {
                    break;
                }
                while let Ok(buf) = pool_rx.try_recv() {
                    pool.put(buf);
                }
                crowd.drain(&mut batch, input, stats.take(&mut pool));
                clock.lap(t, EpochPhase::Drain);
                if in_loop == Some((t, CrashPoint::PostDrain)) {
                    break;
                }
                if batch_tx.send(batch).is_err() {
                    break;
                }
            }
            // Wind-down: S2 returns one spent buffer per absorbed batch
            // and drops its sender on exit, so a *blocking* drain parks
            // every in-flight buffer back in the pool before counting
            // what rests. Dropping our batch sender first lets S2 see
            // the disconnect and exit (no recv cycle: S2's own exit
            // never waits on this stage).
            drop(batch_tx);
            while let Ok(buf) = pool_rx.recv() {
                pool.put(buf);
            }
            (stats, pool.retained(), clock.spans)
        });

        // ── S2: ingest — owns the planner half ────────────────────────
        let ingest_worker = s.spawn(move || {
            let mut core = core;
            let mut raw_pool: BatchPool<SensorResponse> = BatchPool::default();
            let mut stats = PoolStats::default();
            let mut clock = StageClock::new(timed);
            let mut issued0 = core.issue(detached);
            clock.lap(0, EpochPhase::Dispatch);
            let _ = order_tx.send(std::mem::take(&mut issued0.orders));
            let mut pending = Some(issued0);
            let mut actions = Vec::new();
            let mut clean_exit = true;
            for t in 0..n {
                let Ok(batch) = batch_rx.recv() else {
                    clean_exit = false;
                    break;
                };
                debug_assert_eq!(batch.slot, t, "batches arrive in slot order");
                if t >= 1 {
                    let Ok(previous) = act_rx.recv() else {
                        clean_exit = false;
                        break;
                    };
                    actions = previous;
                }
                clock.reset();
                let issued = pending.take().expect("orders issued by the previous slot");
                let meta = core.begin_slot(base + t, issued, &batch, &actions);
                clock.lap(t, EpochPhase::Ingest);
                if t + 1 < n {
                    let mut next = core.issue(detached);
                    clock.lap(t, EpochPhase::Dispatch);
                    let _ = order_tx.send(std::mem::take(&mut next.orders));
                    pending = Some(next);
                }
                let raw = (has_tap && !detached).then(|| {
                    while let Ok(buf) = raw_rx.try_recv() {
                        raw_pool.put(buf);
                    }
                    stats.take(&mut raw_pool)
                });
                let (slot, spent) = core.finish_slot(meta, batch, raw, has_hook);
                let _ = pool_tx.send(spent);
                clock.lap(t, EpochPhase::Ingest);
                if obs_tx.send(slot).is_err() {
                    clean_exit = false;
                    break;
                }
            }
            // The final epoch's actions apply only on normal completion —
            // a crashed run abandons them exactly like the serial
            // executor.
            if clean_exit {
                if let Ok(last) = act_rx.recv() {
                    core.apply_actions(&last);
                }
            }
            // Wind-down mirror of S1: drop the observation sender so the
            // control and render stages drain out and disconnect the raw
            // return channel, then park every raw buffer still in flight.
            drop(obs_tx);
            while let Ok(buf) = raw_rx.recv() {
                raw_pool.put(buf);
            }
            (stats, raw_pool.retained(), clock.spans)
        });

        // ── S3: control — owns the hook ───────────────────────────────
        let control_worker = s.spawn(move || {
            let mut hook = hook;
            let mut clock = StageClock::new(timed);
            while let Ok(slot) = obs_rx.recv() {
                clock.reset();
                let t = slot.slot;
                let actions = control(hook.as_deref_mut(), slot.obs.as_ref());
                clock.lap(t, EpochPhase::Control);
                if in_loop == Some((t, CrashPoint::PostControl)) {
                    // Die before anything downstream observes epoch t:
                    // no actions back, no record forward.
                    break;
                }
                let _ = act_tx.send(actions.clone());
                if tap_tx.send(TapMsg { slot, actions }).is_err() {
                    break;
                }
            }
            clock.spans
        });

        // ── S4: render — owns the tap ─────────────────────────────────
        let render_worker = s.spawn(move || {
            let mut tap = tap;
            let mut reports = Vec::with_capacity(n as usize);
            let mut clock = StageClock::new(timed);
            while let Ok(TapMsg { slot, actions }) = tap_rx.recv() {
                clock.reset();
                let t = slot.slot;
                render(
                    tap.as_deref_mut(),
                    replay.map(|inputs| &inputs[t as usize]),
                    &slot,
                    &actions,
                );
                if let Some(buf) = slot.raw {
                    let _ = raw_tx.send(buf);
                }
                clock.lap(t, EpochPhase::LogAppend);
                reports.push(slot.report);
            }
            (reports, clock.spans)
        });

        (
            drain_worker.join().expect("drain stage"),
            ingest_worker.join().expect("ingest stage"),
            control_worker.join().expect("control stage"),
            render_worker.join().expect("render stage"),
        )
    });

    // A restarted process observes the crashed slot's counter advance,
    // exactly like the serial executor.
    *epoch_counter = base + crashes.map_or(n, |(slot, _)| slot + 1);

    if let Some(timer) = timer {
        // Replay the stage-local spans in (slot, stage) order on the
        // driver thread — stage-aware timers see the same stream the
        // serial staged run produces. The sort is stable, so each stage
        // keeps its lap order within a slot.
        let mut spans: Vec<(u64, PipelineStage, EpochPhase, u64)> = [
            (PipelineStage::Drain, drain_spans),
            (PipelineStage::Ingest, ingest_spans),
            (PipelineStage::Control, control_spans),
            (PipelineStage::Render, render_spans),
        ]
        .into_iter()
        .flat_map(|(stage, spans)| spans.into_iter().map(move |(t, p, ns)| (t, stage, p, ns)))
        .collect();
        spans.sort_by_key(|span| span.0);
        for (slot, stage, phase, ns) in spans {
            timer.observe_stage(stage, slot, phase, ns);
        }
    }

    RunOutcome {
        reports,
        completed: crashes.is_none(),
        pool: PoolStats {
            fresh_allocations: drain_stats.fresh_allocations + ingest_stats.fresh_allocations,
            recycled: drain_stats.recycled + ingest_stats.recycled,
            pooled: drain_pooled + ingest_pooled,
        },
    }
}

#[cfg(test)]
mod tests {
    use crate::server::{CraqrServer, ServerConfig};
    use craqr_geom::Rect;
    use craqr_sensing::{
        fields::ConstantField, AttrValue, Crowd, CrowdConfig, Mobility, Placement,
        PopulationConfig, RainFront,
    };

    fn server(size: usize) -> CraqrServer {
        let crowd = Crowd::new(CrowdConfig {
            region: Rect::with_size(4.0, 4.0),
            population: PopulationConfig {
                size,
                placement: Placement::Uniform,
                mobility: Mobility::RandomWalk { sigma: 0.2 },
                human_fraction: 0.0,
            },
            seed: 11,
        });
        let mut s = CraqrServer::new(crowd, ServerConfig::default());
        s.register_attribute("rain", true, Box::new(RainFront::new(2.0, 0.0, 2.0)));
        s.register_attribute("temp", false, Box::new(ConstantField(AttrValue::Float(21.0))));
        s.submit("ACQUIRE rain FROM RECT(0,0,2,2) RATE 1").unwrap();
        s.submit("ACQUIRE temp FROM RECT(1,1,3,3) RATE 0.5").unwrap();
        s
    }

    /// Zeroes the timing-tier `busy_ns` fields — they are thread-CPU
    /// measurements, excluded from every checksummed artifact, and the
    /// only report bytes allowed to differ across executors.
    fn untimed(mut reports: Vec<crate::server::EpochReport>) -> Vec<crate::server::EpochReport> {
        for r in &mut reports {
            for s in &mut r.exec.shards {
                s.busy_ns = 0;
            }
        }
        reports
    }

    #[test]
    fn pipelined_reports_equal_serial_reports() {
        let mut serial = server(400);
        let mut piped = server(400);
        let want = untimed(serial.driver().run(12).reports);
        let got = untimed(piped.driver().run_pipelined(12).reports);
        assert_eq!(want, got, "pipelined run diverged from the serial staged schedule");
        assert_eq!(serial.epochs(), piped.epochs());
        assert!((serial.now() - piped.now()).abs() < 1e-12);
    }

    #[test]
    fn pipelined_pool_reaches_allocation_steady_state() {
        // Once the bounded channels are primed, every response batch the
        // drain stage fills must come back through the return channel:
        // fresh allocations are a function of the channel depth, not of
        // the horizon.
        // A buffer not in the pool is in the batch channel (≤ depth) or
        // in the ingest stage's hands (1), so fresh allocations can never
        // exceed depth + 2 — no matter how long the horizon runs. The
        // serial executor recycles each slot's buffer within the slot,
        // so the same bound holds for it a fortiori.
        let cap = super::STAGE_DEPTH as u64 + 2;
        for pipelined in [false, true] {
            let mut s = server(400);
            let long = if pipelined { s.driver().run_pipelined(48) } else { s.driver().run(48) };
            assert!(long.pool.fresh_allocations > 0, "the first epochs must allocate");
            assert!(
                long.pool.fresh_allocations <= cap,
                "allocations must not scale with the horizon (pipelined={pipelined}): {:?} (cap {cap})",
                long.pool
            );
            assert!(
                long.pool.recycled >= 48 - cap,
                "every steady-state epoch recycles (pipelined={pipelined}): {:?}",
                long.pool
            );
            // Every buffer ever allocated comes back to rest in a pool —
            // none leak into the closed channels or the dropped slots.
            assert_eq!(
                long.pooled_buffers() as u64,
                long.pool.fresh_allocations,
                "all allocated buffers come to rest (pipelined={pipelined}): {:?}",
                long.pool
            );
        }
    }
}
