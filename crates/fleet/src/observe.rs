//! The shadow-plane observer: telemetry (with its health plane), the energy
//! meter, and the trace bookkeeping they need, behind one type.
//!
//! [`FleetSim::step_once`](crate::FleetSim::step_once) runs its simulation
//! phases without mentioning any shadow plane.  After each phase it hands
//! the [`Observer`] a view of what the phase did, beside read-only
//! references to the simulation state ([`Observing`]).  Views capture
//! values as they were when the phase ran — a placement carries its
//! server's resident count at the moment it was placed.  Nothing here feeds
//! back into the simulation, which keeps observed and unobserved runs of
//! one seed bit-identical; with every plane off each hook returns at once.
//!
//! A step's trace events are committed to the flight recorder once, stably
//! sorted by simulated time (leaf events carry mid-step window times, fleet
//! events the step's end), so the stream is non-decreasing in `t`.

use heracles_energy::{joules_to_dollars, EnergyMeter};
use heracles_sim::{SimDuration, SimTime, WakeReason};
use heracles_telemetry::{AlertKind, Telemetry, TraceEvent};
use heracles_workloads::LcKind;

use crate::fleet::{
    Advanced, Capped, Dispatched, FleetConfig, Recorded, Settlement, SimCore, StepFrame,
};
use crate::generation::Generation;
use crate::job::{JobId, JobQueue};
use crate::metrics::FleetStep;
use crate::store::{PlacementStore, ServerEntry, ServerId, ServerState};
use crate::traffic::TrafficPlane;

/// The shadow planes and the state only they need.
pub(crate) struct Observer {
    /// The telemetry plane (`None` when `config.telemetry` is disabled):
    /// the flight recorder, the metrics registry and the health plane.
    pub(crate) telemetry: Option<Telemetry>,
    /// The energy meter's ledgers (`None` unless `config.energy.metering`),
    /// charged from the same per-leaf observations the always-on step
    /// columns sum.
    pub(crate) meter: Option<EnergyMeter>,
    /// Per-server admission verdicts after the previous step (telemetry
    /// only): the baseline the next step diffs so only verdict flips reach
    /// the recorder.
    admission_baseline: Vec<bool>,
    /// Per-server clock offset (telemetry only; zero past the end): a leaf
    /// commissioned mid-run starts its local clock at zero, so its trace
    /// events are rebased by its commissioning time onto the fleet clock.
    runner_epochs: Vec<SimDuration>,
    /// Why each leaf woke (traced event-core runs only).
    wakes: Wakes,
    /// The current step's events, committed once by
    /// [`Observing::recorded`].
    events: Vec<TraceEvent>,
}

/// Wake attribution for traced event-core runs.  Attribution only: each
/// runner's fast path decides for itself whether its leaf may fast-forward.
#[derive(Default)]
struct Wakes {
    /// Off unless the run is traced on the event core.
    enabled: bool,
    /// Reasons per server id since the last advance phase, as bitmasks over
    /// [`WakeReason::index`].
    pending: Vec<u8>,
    /// Each leaf's routed load at its previous step, as exact bits: any
    /// change is a load-delta wake — no epsilon.
    load_bits: Vec<Option<u64>>,
}

impl Wakes {
    /// Notes that leaf `id` wakes this step for `reason`.
    fn note(&mut self, id: ServerId, reason: WakeReason) {
        if self.enabled {
            if id >= self.pending.len() {
                self.pending.resize(id + 1, 0);
            }
            self.pending[id] |= 1 << reason.index();
        }
    }
}

/// The observer beside a read-only view of the simulation state — what
/// every hook runs on.
pub(crate) struct Observing<'a> {
    pub(crate) observer: &'a mut Observer,
    pub(crate) config: &'a FleetConfig,
    pub(crate) store: &'a PlacementStore,
    pub(crate) plane: &'a TrafficPlane,
    pub(crate) queue: &'a JobQueue,
    pub(crate) steps: &'a [FleetStep],
    /// The fleet clock: the end of the last completed step.
    pub(crate) now: SimTime,
}

impl Observer {
    /// The shadow planes `config` asks for, baselined against `store`.
    pub(crate) fn new(config: &FleetConfig, store: &PlacementStore) -> Self {
        let telemetry = Telemetry::new(config.telemetry);
        let traced = telemetry.is_some();
        Observer {
            admission_baseline: if traced { store.admission_verdicts() } else { Vec::new() },
            runner_epochs: Vec::new(),
            wakes: Wakes {
                enabled: traced && config.sim_core == SimCore::EventDriven,
                ..Wakes::default()
            },
            telemetry,
            meter: config.energy.metering.then(EnergyMeter::new),
            events: Vec::new(),
        }
    }

    /// True when the telemetry plane is collecting.
    pub(crate) fn tracing(&self) -> bool {
        self.telemetry.is_some()
    }

    /// Records `event` straight into the flight recorder (a no-op when
    /// telemetry is off).
    pub(crate) fn emit(&mut self, event: TraceEvent) {
        if let Some(t) = self.telemetry.as_mut() {
            t.recorder.record(event);
        }
    }

    /// Records the health plane's end-of-run summary at `now`.
    pub(crate) fn health_summary(&mut self, now: SimTime) {
        if let Some(t) = self.telemetry.as_mut() {
            if let Some(h) = t.health.as_ref() {
                t.recorder.extend(h.summary_events(now));
            }
        }
    }

    /// Records the energy plane's end-of-run summary at `now`: the fleet
    /// ledger with its conservation residual, one event per (service ×
    /// generation) pool, and the top-5 energy-hungriest leaves.
    pub(crate) fn energy_summary(&mut self, now: SimTime) {
        let (Some(meter), Some(t)) = (self.meter.as_ref(), self.telemetry.as_mut()) else {
            return;
        };
        let fleet = meter.fleet();
        t.recorder.record(
            TraceEvent::new(now, "energy", "summary")
                .f64("fleet_joules", fleet.joules)
                .f64("fleet_dollars", fleet.dollars)
                .u64("observations", meter.observations())
                .f64("conservation_error_j", meter.conservation_error()),
        );
        for ((service, generation), ledger) in meter.pools() {
            t.recorder.record(
                TraceEvent::new(now, "energy", "pool")
                    .str("service", service)
                    .str("generation", generation)
                    .f64("joules", ledger.joules)
                    .f64("dollars", ledger.dollars),
            );
        }
        for (leaf, ledger) in meter.top_leaves(5) {
            t.recorder.record(
                TraceEvent::new(now, "energy", "top_leaf")
                    .u64("server", leaf)
                    .f64("joules", ledger.joules)
                    .f64("dollars", ledger.dollars),
            );
        }
    }
}

/// The lifecycle hooks, called between steps at the fleet clock.
impl Observing<'_> {
    /// A purchased server joined the fleet.
    pub(crate) fn server_added(self, id: ServerId) {
        self.observer.wakes.note(id, WakeReason::Lifecycle);
        let Some(t) = self.observer.telemetry.as_mut() else { return };
        let now = self.now;
        // A purchased box joins admitting, matching its cold-start verdict.
        self.observer.admission_baseline.push(true);
        self.observer.runner_epochs.resize(id, SimDuration::ZERO);
        self.observer.runner_epochs.push(now.saturating_since(SimTime::ZERO));
        let entry = self.store.server(id);
        t.recorder.record(
            TraceEvent::new(now, "store", "server_added")
                .u64("server", id as u64)
                .u64("generation", entry.generation as u64)
                .str("service", entry.service.name())
                .u64("cores", entry.cores as u64),
        );
    }

    /// A server changed lifecycle state: `kind` is `drain_started`,
    /// `reactivated` or `retired` (a retired leaf never steps again, so
    /// only the first two wake it).
    pub(crate) fn lifecycle(self, kind: &'static str, id: ServerId) {
        if kind != "retired" {
            self.observer.wakes.note(id, WakeReason::Lifecycle);
        }
        if self.observer.tracing() {
            let mut event = TraceEvent::new(self.now, "store", kind).u64("server", id as u64);
            if kind == "drain_started" {
                event = event.u64("residents", self.store.server(id).resident.len() as u64);
            }
            self.observer.emit(event);
        }
    }

    /// A resident job live-migrated.
    pub(crate) fn migrated(self, job: JobId, from: ServerId, to: ServerId, cost_core_s: f64) {
        self.observer.wakes.note(from, WakeReason::JobCompletion);
        self.observer.wakes.note(to, WakeReason::JobArrival);
        let Some(t) = self.observer.telemetry.as_mut() else { return };
        t.metrics.inc("fleet.jobs_migrated");
        t.recorder.record(
            TraceEvent::new(self.now, "fleet", "migrate")
                .u64("job", job as u64)
                .u64("from", from as u64)
                .u64("to", to as u64)
                .f64("cost_core_s", cost_core_s),
        );
    }

    /// A resident job was preempted back to the queue by the drain pricer.
    pub(crate) fn requeued(self, job: JobId, from: ServerId) {
        self.observer.wakes.note(from, WakeReason::JobCompletion);
        let Some(t) = self.observer.telemetry.as_mut() else { return };
        t.metrics.inc("fleet.jobs_preempted");
        t.recorder.record(
            TraceEvent::new(self.now, "fleet", "requeue")
                .u64("job", job as u64)
                .u64("from", from as u64),
        );
    }
}

/// The per-phase hooks of [`FleetSim::step_once`](crate::FleetSim::step_once).
impl Observing<'_> {
    /// After the cap phase: the throttle flip and every changed leaf cap.
    pub(crate) fn capped(self, frame: &StepFrame, capped: Option<Capped>) {
        let (Some(capped), true) = (capped, self.observer.tracing()) else { return };
        if let Some(throttled) = capped.throttle_flip {
            self.observer.events.push(
                TraceEvent::new(frame.now, "energy", "be_throttle")
                    .bool("throttled", throttled)
                    .f64("budget_w", capped.budget_w)
                    .f64("total_tdp_w", capped.total_tdp_w),
            );
        }
        for (id, cap) in capped.changed {
            self.observer.wakes.note(id, WakeReason::Lifecycle);
            self.observer.events.push(
                TraceEvent::new(frame.now, "energy", "cap")
                    .u64("server", id as u64)
                    .bool("capped", cap.is_some())
                    .f64("cap_w", cap.unwrap_or(0.0))
                    .f64("budget_w", capped.budget_w),
            );
        }
    }

    /// After the route phase: the plane's routing events and the health
    /// plane's divert-storm signal.
    pub(crate) fn routed(self, frame: &StepFrame, trace: Vec<TraceEvent>) {
        let Some(t) = self.observer.telemetry.as_mut() else { return };
        self.observer.events.extend(trace);
        if let Some(h) = t.health.as_mut() {
            let (shed, _) = self.plane.divert_counts();
            h.observe_signal(
                AlertKind::DivertStorm,
                shed as f64 / frame.in_service.len().max(1) as f64,
            );
        }
    }

    /// After the dispatch phase: one event per placement outcome, then the
    /// round summary.
    pub(crate) fn dispatched(self, frame: &StepFrame, dispatched: Dispatched) {
        let Some(t) = self.observer.telemetry.as_mut() else { return };
        let events = &mut self.observer.events;
        let mut placed = 0u64;
        for &(job, outcome) in &dispatched.outcomes {
            match outcome {
                Some((server, residents)) => {
                    placed += 1;
                    self.observer.wakes.note(server, WakeReason::JobArrival);
                    t.metrics.inc("fleet.jobs_placed");
                    let entry = self.store.server(server);
                    events.push(
                        TraceEvent::new(frame.now, "fleet", "place")
                            .u64("job", job as u64)
                            .u64("server", server as u64)
                            .str("service", entry.service.name())
                            .u64("generation", entry.generation as u64)
                            .f64("load", entry.lc_load)
                            .f64("slack", entry.slack)
                            .u64("residents", residents as u64),
                    );
                }
                None => {
                    t.metrics.inc("fleet.jobs_unplaced");
                    events.push(
                        TraceEvent::new(frame.now, "fleet", "unplaced").u64("job", job as u64),
                    );
                }
            }
        }
        let jobs = dispatched.outcomes.len() as u64;
        if jobs > 0 {
            let mut event = TraceEvent::new(frame.now, "fleet", "dispatch_round")
                .u64("jobs", jobs)
                .u64("placed", placed)
                .u64("unplaced", jobs - placed);
            if let Some(candidates) = dispatched.plan_candidates {
                event = event.u64("plan_candidates", candidates as u64);
            }
            events.push(event);
        }
    }

    /// After the advance phase: each traced leaf's controller events
    /// (rebased onto the fleet clock and tagged with the server id), then
    /// — on the event core — why each woken leaf woke.
    pub(crate) fn advanced(
        self,
        frame: &StepFrame,
        loads: &[f64],
        advanced: &Advanced,
        leaf_traces: Vec<(ServerId, Vec<TraceEvent>)>,
    ) {
        let Some(t) = self.observer.telemetry.as_mut() else { return };
        let Observer { events, runner_epochs, wakes, .. } = self.observer;
        for (id, leaf_events) in leaf_traces {
            let epoch = runner_epochs.get(id).copied().unwrap_or(SimDuration::ZERO);
            events
                .extend(leaf_events.into_iter().map(|e| e.shifted(epoch).u64("server", id as u64)));
        }
        if !wakes.enabled {
            return;
        }
        for (&id, &load) in frame.in_service.iter().zip(loads) {
            if id >= wakes.load_bits.len() {
                wakes.load_bits.resize(id + 1, None);
            }
            if wakes.load_bits[id].replace(load.to_bits()) != Some(load.to_bits()) {
                wakes.note(id, WakeReason::LoadDelta);
            }
        }
        // A leaf that ran a full window with no noted reason woke on its
        // controller's own poll cadence (steady-state recertification, SLO
        // deque warm-up, a sub-controller changing an allocation), so every
        // woken leaf carries at least one reason — the trace report's
        // invariant.
        for (&id, obs) in frame.in_service.iter().zip(&advanced.observations) {
            if obs.full_windows == 0 {
                continue;
            }
            let mask = match wakes.pending.get(id).copied().unwrap_or(0) {
                0 => 1 << WakeReason::ControllerPoll.index(),
                mask => mask,
            };
            let names: Vec<&'static str> = WakeReason::ALL
                .iter()
                .filter(|r| mask & (1 << r.index()) != 0)
                .map(|r| r.name())
                .collect();
            events.push(
                TraceEvent::new(frame.now, "fleet", "wake")
                    .u64("server", id as u64)
                    .str("reasons", &names.join("+"))
                    .u64("full_windows", obs.full_windows)
                    .u64("fast_windows", obs.fast_windows),
            );
        }
        wakes.pending.fill(0);
        t.metrics.add("fleet.woken_leaf_steps", advanced.woken);
        t.metrics.add("fleet.quiescent_leaf_steps", advanced.quiescent);
        if let Some(h) = t.health.as_mut() {
            let leaves = (advanced.woken + advanced.quiescent).max(1);
            h.observe_signal(AlertKind::WakeStorm, advanced.woken as f64 / leaves as f64);
        }
    }

    /// After the settle phase: every completion and preemption, in order.
    pub(crate) fn settled(self, frame: &StepFrame, settlements: Vec<Settlement>) {
        let Some(t) = self.observer.telemetry.as_mut() else { return };
        for settlement in settlements {
            let event = match settlement {
                Settlement::Completed { job, server } => {
                    t.metrics.inc("fleet.jobs_completed");
                    TraceEvent::new(frame.now, "fleet", "complete")
                        .u64("job", job as u64)
                        .u64("server", server as u64)
                }
                Settlement::Preempted { job, server, disabled_streak } => {
                    t.metrics.inc("fleet.jobs_preempted");
                    TraceEvent::new(frame.now, "fleet", "preempt")
                        .u64("job", job as u64)
                        .u64("server", server as u64)
                        .u64("disabled_streak", disabled_streak as u64)
                }
            };
            self.observer.events.push(event);
        }
    }

    /// After the record phase: per-leaf energy, health and violation
    /// observations, admission flips, the health plane's step, the step
    /// event and metrics — then the step's events are committed.
    pub(crate) fn recorded(
        self,
        frame: &StepFrame,
        loads: &[f64],
        advanced: &Advanced,
        recorded: &Recorded,
    ) {
        let Observing { observer, config, store, plane, queue, steps, .. } = self;
        let Observer { telemetry, meter, admission_baseline, events, .. } = observer;
        if telemetry.is_none() && meter.is_none() {
            return;
        }
        let observations = &advanced.observations;
        let traced = telemetry.is_some();
        let mut health = telemetry.as_mut().and_then(|t| t.health.as_mut());
        for ((&id, obs), &load) in frame.in_service.iter().zip(observations).zip(loads) {
            let entry = store.server(id);
            if let Some(m) = meter.as_mut() {
                let leaf_joules = obs.energy_j * config.time_compression;
                m.observe_leaf(
                    id as u64,
                    entry.service.name(),
                    Generation::all()[entry.generation].name(),
                    leaf_joules,
                    joules_to_dollars(leaf_joules, recorded.energy_price, config.energy.pue),
                );
            }
            if let Some(h) = health.as_mut() {
                h.observe_cell(
                    entry.service.index() as u8,
                    entry.generation as u8,
                    obs.worst_normalized_latency,
                    obs.mean_normalized_latency,
                    load,
                );
                h.observe_leaf(id as u32, obs.worst_normalized_latency, obs.full_windows as f64);
            }
            if traced && obs.worst_normalized_latency > 1.0 {
                // The attribution record the trace report aggregates: every
                // violating server-step names its service, its hardware
                // generation and what the balancer did to it this step —
                // the (service, generation, decision) cause cell.
                events.push(
                    TraceEvent::new(frame.now, "fleet", "violation")
                        .u64("server", id as u64)
                        .str("service", entry.service.name())
                        .u64("generation", entry.generation as u64)
                        .str("balancer", plane.decision(id))
                        .f64("normalized_latency", obs.worst_normalized_latency)
                        .f64("load", load)
                        .u64("residents", entry.resident.len() as u64),
                );
            }
        }
        let Some(t) = telemetry.as_mut() else { return };
        let step = steps.last().expect("the record phase pushed this step");
        // Admission verdicts settle once the settle phase has absorbed the
        // step: record only the flips against the previous step's baseline.
        let verdicts = store.admission_verdicts();
        for (id, &verdict) in verdicts.iter().enumerate() {
            if admission_baseline.get(id).copied().unwrap_or(true) != verdict {
                events.push(admission_event(store.server(id), frame.now));
                t.metrics.inc("fleet.admission_flips");
            }
        }
        *admission_baseline = verdicts;
        if let Some(h) = t.health.as_mut() {
            let leaves = frame.in_service.len().max(1) as f64;
            // SLO burn: the fraction of in-service leaves violating this
            // step — the attainment complement the burn-rate windows watch.
            h.observe_signal(AlertKind::SloBurn, step.violating_servers as f64 / leaves);
            // Queue censorship: pending jobs that have waited beyond the
            // horizon (8 steps) — work the dispatcher keeps skipping.
            let pending = queue.pending_len();
            if pending > 0 {
                let horizon = config.step_duration() * 8;
                let censored = queue
                    .pending_ids()
                    .filter(|&job| frame.now > queue.job(job).arrival + horizon)
                    .count();
                h.observe_signal(AlertKind::QueueCensorship, censored as f64 / pending as f64);
            }
            // Per-service attainment: one event per populated service so a
            // report can draw the attainment curve without re-aggregating
            // violation events (which the recorder may have dropped).
            for (si, &leaves) in step.in_service_by_service.iter().enumerate() {
                if leaves == 0 {
                    continue;
                }
                let violating = step.violating_by_service[si];
                events.push(
                    TraceEvent::new(frame.now, "health", "attainment")
                        .str("service", LcKind::all()[si].name())
                        .u64("leaves", leaves as u64)
                        .u64("violating", violating as u64)
                        .f64("attainment", 1.0 - violating as f64 / leaves as f64),
                );
            }
            let alerts = h.step(frame.now);
            for event in &alerts {
                match event.kind() {
                    "firing" => t.metrics.inc("health.alerts_fired"),
                    "resolved" => t.metrics.inc("health.alerts_resolved"),
                    _ => {}
                }
            }
            events.extend(alerts);
        }
        let step_s = recorded.step_s;
        let mut step_event = TraceEvent::new(frame.now, "fleet", "step")
            .u64("step", frame.idx as u64)
            .u64("in_service", step.in_service_servers as u64)
            .u64("violating", step.violating_servers as u64)
            .f64("mean_load", step.mean_load)
            .f64("fleet_emu", step.fleet_emu)
            .f64("worst_normalized_latency", step.worst_normalized_latency)
            .u64("queued", step.queued_jobs as u64)
            .u64("running", step.running_jobs as u64)
            .u64("completed", step.completed_jobs as u64)
            .u64("migrations", step.migrations as u64)
            .f64("tco_dollars", step.tco_dollars)
            .f64("be_progress_core_s", step.be_progress_core_s)
            .f64("energy_joules", step.energy_joules)
            .f64("energy_dollars", step.energy_dollars)
            .f64("peak_power_w", step.peak_power_w)
            .f64("watts_sandy_bridge", recorded.gen_energy_j[0] / step_s)
            .f64("watts_haswell", recorded.gen_energy_j[1] / step_s)
            .f64("watts_skylake", recorded.gen_energy_j[2] / step_s)
            // The represented step duration the watts are averaged over:
            // trace timestamps tick raw simulation seconds, so a
            // time-compressed run needs this to integrate watts back into
            // joules (the doctor's conservation cross-check).
            .f64("step_represented_s", step_s);
        if config.sim_core == SimCore::EventDriven {
            step_event =
                step_event.u64("woken", advanced.woken).u64("quiescent", advanced.quiescent);
        }
        events.push(step_event);
        t.metrics.add("fleet.violation_server_steps", step.violating_servers as u64);
        t.metrics.set_gauge("fleet.queue_depth", step.queued_jobs as f64);
        t.metrics.set_gauge("fleet.running_jobs", step.running_jobs as f64);
        t.metrics.set_gauge("fleet.in_service_servers", step.in_service_servers as f64);
        t.metrics.observe("fleet.step_tco_dollars", step.tco_dollars);
        t.metrics.set_gauge_with_unit("fleet.peak_power_w", step.peak_power_w, "W");
        t.metrics.set_gauge_with_unit("fleet.mean_power_w", step.energy_joules / step_s, "W");
        t.metrics.observe("fleet.step_energy_joules", step.energy_joules);
        for obs in observations {
            t.metrics.observe("fleet.normalized_latency", obs.worst_normalized_latency);
        }
        events.sort_by_key(|e| e.time());
        t.recorder.extend(events.drain(..));
    }
}

/// A server's admission state for the flight recorder: the verdict plus
/// every input that feeds it (controller permission, slack, load, slots,
/// lifecycle, streak), so a reader sees *why* the verdict flipped.
fn admission_event(entry: &ServerEntry, now: SimTime) -> TraceEvent {
    let state = match entry.state {
        ServerState::Active => "active",
        ServerState::Draining => "draining",
        ServerState::Retired => "retired",
    };
    TraceEvent::new(now, "store", "admission")
        .u64("server", entry.id as u64)
        .str("service", entry.service.name())
        .u64("generation", entry.generation as u64)
        .bool("admits", entry.admits_be())
        .bool("be_admitted", entry.be_admitted)
        .str("state", state)
        .f64("slack", entry.slack)
        .f64("load", entry.lc_load)
        .u64("free_slots", entry.free_slots() as u64)
        .u64("disabled_streak", entry.disabled_streak as u64)
}
