//! A bit-level digest of a whole [`FleetResult`].
//!
//! Every field of every step, job and event is folded in, each `f64` by its
//! bits, so two runs share a digest only if their results are bit-identical.
//! The structs are destructured without `..`: a field added to any of them
//! fails to compile here until the digest covers it.

use heracles_fleet::{BeJob, FleetEvent, FleetEventKind, FleetResult, FleetStep};
use heracles_sim::SimTime;

/// 64-bit FNV-1a over a stream of words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f64(&mut self, value: f64) {
        self.word(value.to_bits());
    }

    fn usize(&mut self, value: usize) {
        self.word(value as u64);
    }

    fn time(&mut self, value: SimTime) {
        self.word(value.as_nanos());
    }

    fn opt_time(&mut self, value: Option<SimTime>) {
        match value {
            None => self.word(u64::MAX),
            Some(t) => {
                self.word(0);
                self.time(t);
            }
        }
    }

    fn bytes(&mut self, value: &str) {
        self.usize(value.len());
        for byte in value.bytes() {
            self.word(u64::from(byte));
        }
    }

    fn usizes(&mut self, values: &[usize]) {
        self.usize(values.len());
        values.iter().for_each(|&v| self.usize(v));
    }

    fn f64s(&mut self, values: &[f64]) {
        self.usize(values.len());
        values.iter().for_each(|&v| self.f64(v));
    }
}

/// The digest of a whole fleet result, as 16 hex digits.
pub fn digest(result: &FleetResult) -> String {
    let FleetResult {
        policy,
        server_cores,
        server_generations,
        server_services,
        steps,
        jobs,
        events,
    } = result;
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.bytes(policy);
    h.usizes(server_cores);
    h.usizes(server_generations);
    h.usizes(server_services);
    h.usize(steps.len());
    steps.iter().for_each(|s| step(&mut h, s));
    h.usize(jobs.len());
    jobs.iter().for_each(|j| job(&mut h, j));
    h.usize(events.len());
    events.iter().for_each(|e| event(&mut h, e));
    format!("{:016x}", h.0)
}

fn step(h: &mut Fnv, s: &FleetStep) {
    let FleetStep {
        time,
        mean_load,
        fleet_emu,
        worst_normalized_latency,
        violating_server_fraction,
        violating_servers,
        in_service_servers,
        in_service_cores,
        in_service_by_generation,
        in_service_by_service,
        offered_qps,
        routed_qps,
        service_load,
        violating_by_service,
        migrations,
        tco_dollars,
        energy_joules,
        energy_dollars,
        peak_power_w,
        queued_jobs,
        running_jobs,
        completed_jobs,
        be_progress_core_s,
    } = s;
    h.time(*time);
    h.f64(*mean_load);
    h.f64(*fleet_emu);
    h.f64(*worst_normalized_latency);
    h.f64(*violating_server_fraction);
    h.usize(*violating_servers);
    h.usize(*in_service_servers);
    h.usize(*in_service_cores);
    h.usizes(in_service_by_generation);
    h.usizes(in_service_by_service);
    h.f64s(offered_qps);
    h.f64s(routed_qps);
    h.f64s(service_load);
    h.usizes(violating_by_service);
    h.usize(*migrations);
    h.f64(*tco_dollars);
    h.f64(*energy_joules);
    h.f64(*energy_dollars);
    h.f64(*peak_power_w);
    h.usize(*queued_jobs);
    h.usize(*running_jobs);
    h.usize(*completed_jobs);
    h.f64(*be_progress_core_s);
}

fn job(h: &mut Fnv, j: &BeJob) {
    let BeJob {
        id,
        workload,
        demand_core_s,
        remaining_core_s,
        arrival,
        first_start,
        completion,
        preemptions,
        migrations,
        migration_overhead_core_s,
    } = j;
    h.usize(*id);
    // A workload profile is a constant per kind; its name identifies it.
    h.bytes(workload.name());
    h.f64(*demand_core_s);
    h.f64(*remaining_core_s);
    h.time(*arrival);
    h.opt_time(*first_start);
    h.opt_time(*completion);
    h.usize(*preemptions);
    h.usize(*migrations);
    h.f64(*migration_overhead_core_s);
}

fn event(h: &mut Fnv, e: &FleetEvent) {
    let FleetEvent { step, job, server, kind } = e;
    h.usize(*step);
    h.usize(*job);
    h.usize(*server);
    h.word(match kind {
        FleetEventKind::Placed => 1,
        FleetEventKind::Preempted => 2,
        FleetEventKind::Migrated => 3,
        FleetEventKind::Completed => 4,
    });
}
