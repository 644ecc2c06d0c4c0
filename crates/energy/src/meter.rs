//! Deterministic energy ledgers: per-leaf, per-(service × generation) pool,
//! and fleet totals.

/// One ledger row: accumulated joules and their dollar cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyLedger {
    /// Accumulated package energy in joules of represented time.
    pub joules: f64,
    /// The same energy priced through the time-of-day schedule, in dollars.
    pub dollars: f64,
}

impl EnergyLedger {
    fn charge(&mut self, joules: f64, dollars: f64) {
        self.joules += joules;
        self.dollars += dollars;
    }
}

/// One (service × generation) pool's ledger and its names.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pool {
    service: &'static str,
    generation: &'static str,
    ledger: EnergyLedger,
}

/// The fleet energy meter.
///
/// Ledgers are stored densely: per leaf id, and per (service index,
/// generation index) pool, so charging a leaf-step costs two index
/// operations.  Leaves iterate in id order and pools in (service name,
/// generation name) order, so every exported summary is deterministic.
/// The meter is a pure observer: the fleet feeds it the per-leaf joules
/// each step already computed by the simulation, so installing it changes
/// no simulated outcome.
///
/// Conservation holds by construction *and* is checked: the fleet total
/// and both ledger families are accumulated from the same per-leaf charges
/// in the same order, so `fleet == Σ pools == Σ leaves` bitwise-exactly
/// never drifts; [`conservation_error`](Self::conservation_error) exposes
/// the residual for the doctor's cross-check.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    /// Per leaf id (`None` for an id never charged).
    leaves: Vec<Option<EnergyLedger>>,
    /// Per service index, then per generation index (`None` for a pool
    /// never charged).
    pools: Vec<Vec<Option<Pool>>>,
    fleet: EnergyLedger,
    /// Leaf-step observations recorded.
    observations: u64,
}

impl EnergyMeter {
    /// An empty meter.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Charges one leaf-step of energy to every ledger level.  The leaf's
    /// pool is named by its service and generation, each as a dense index
    /// with its name; an index always comes with the same name.
    pub fn observe_leaf(
        &mut self,
        leaf: u64,
        (service_index, service): (usize, &'static str),
        (generation_index, generation): (usize, &'static str),
        joules: f64,
        dollars: f64,
    ) {
        dense_slot(&mut self.leaves, leaf as usize)
            .get_or_insert_with(EnergyLedger::default)
            .charge(joules, dollars);
        let pool = dense_slot(dense_slot(&mut self.pools, service_index), generation_index)
            .get_or_insert(Pool { service, generation, ledger: EnergyLedger::default() });
        debug_assert_eq!((pool.service, pool.generation), (service, generation));
        pool.ledger.charge(joules, dollars);
        self.fleet.charge(joules, dollars);
        self.observations += 1;
    }

    /// Fleet-total ledger.
    pub fn fleet(&self) -> EnergyLedger {
        self.fleet
    }

    /// Leaf-step observations recorded so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Per-leaf ledgers in leaf-id order.
    pub fn leaves(&self) -> impl Iterator<Item = (u64, &EnergyLedger)> {
        self.leaves.iter().enumerate().filter_map(|(id, l)| Some((id as u64, l.as_ref()?)))
    }

    /// Per-(service, generation) pool ledgers in (service name, generation
    /// name) order.
    pub fn pools(&self) -> impl Iterator<Item = ((&'static str, &'static str), &EnergyLedger)> {
        let mut pools: Vec<&Pool> = self.pools.iter().flatten().flatten().collect();
        pools.sort_by_key(|p| (p.service, p.generation));
        pools.into_iter().map(|p| ((p.service, p.generation), &p.ledger))
    }

    /// The `k` leaves that burned the most joules, hungriest first (ties
    /// break toward the lower leaf id, so the ranking is deterministic).
    pub fn top_leaves(&self, k: usize) -> Vec<(u64, EnergyLedger)> {
        let mut rows: Vec<(u64, EnergyLedger)> = self.leaves().map(|(id, &l)| (id, l)).collect();
        rows.sort_by(|a, b| b.1.joules.total_cmp(&a.1.joules).then(a.0.cmp(&b.0)));
        rows.truncate(k);
        rows
    }

    /// How far the three ledger levels disagree:
    /// `|fleet − Σ pools| + |fleet − Σ leaves|` in joules.  Zero up to
    /// float summation order; the doctor's conservation cross-check fails
    /// a run whose error exceeds a relative epsilon.
    pub fn conservation_error(&self) -> f64 {
        let pool_sum: f64 = self.pools().map(|(_, l)| l.joules).sum();
        let leaf_sum: f64 = self.leaves().map(|(_, l)| l.joules).sum();
        (self.fleet.joules - pool_sum).abs() + (self.fleet.joules - leaf_sum).abs()
    }
}

/// The slot at `index`, growing `slots` with defaults to reach it.
fn dense_slot<T: Default>(slots: &mut Vec<T>, index: usize) -> &mut T {
    if index >= slots.len() {
        slots.resize_with(index + 1, T::default);
    }
    &mut slots[index]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledgers_accumulate_at_every_level() {
        let mut m = EnergyMeter::new();
        let (websearch, memkeyval) = ((0, "websearch"), (2, "memkeyval"));
        let (haswell, skylake) = ((1, "haswell"), (2, "skylake"));
        m.observe_leaf(0, websearch, haswell, 100.0, 0.01);
        m.observe_leaf(1, websearch, haswell, 50.0, 0.005);
        m.observe_leaf(2, memkeyval, skylake, 25.0, 0.002);
        m.observe_leaf(0, websearch, haswell, 100.0, 0.01);

        assert_eq!(m.fleet().joules, 275.0);
        assert_eq!(m.observations(), 4);
        assert_eq!(m.leaves().count(), 3);
        assert_eq!(m.pools().count(), 2);
        let pool: Vec<_> = m.pools().collect();
        assert_eq!(pool[0].0, ("memkeyval", "skylake"));
        assert_eq!(pool[1].1.joules, 250.0);
    }

    #[test]
    fn top_leaves_rank_by_joules_with_deterministic_ties() {
        let mut m = EnergyMeter::new();
        m.observe_leaf(3, (0, "a"), (0, "g"), 10.0, 0.0);
        m.observe_leaf(1, (0, "a"), (0, "g"), 30.0, 0.0);
        m.observe_leaf(2, (0, "a"), (0, "g"), 30.0, 0.0);
        let top = m.top_leaves(2);
        assert_eq!(top[0].0, 1, "tie must break toward the lower id");
        assert_eq!(top[1].0, 2);
    }

    #[test]
    fn conservation_error_is_zero_for_consistent_ledgers() {
        let mut m = EnergyMeter::new();
        for leaf in 0..50u64 {
            m.observe_leaf(
                leaf,
                if leaf % 2 == 0 { (0, "a") } else { (1, "b") },
                (0, "g"),
                0.1 * leaf as f64,
                0.0,
            );
        }
        assert!(m.conservation_error() < 1e-9, "{}", m.conservation_error());
    }
}
