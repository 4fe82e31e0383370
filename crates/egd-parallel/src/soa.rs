//! Structure-of-arrays population view for the cell-matrix loop.
//!
//! The grouped fitness path used to walk `Agent`/`StrategyKind` values per
//! SSet while reducing the pair-payoff matrix: every SSet re-derived its
//! group, then gathered `G` payoff cells — `O(N·G)` pointer-chasing work
//! even though SSets of the same group compute the *same* total.
//! [`PopulationSoA`] collapses the population once per generation into
//! dense lanes (group membership, representative indices, multiplicities,
//! fingerprints, determinism flags) so the engine streams:
//!
//! * the cell loop reads group fingerprints from a dense `u64` lane (the
//!   payoff-cache keys want exactly those), and
//! * the fitness reduction accumulates **per-group** fitness lanes in one
//!   `O(G²)` sweep over the payoff matrix, then scatters them to SSets
//!   through the `group_of` lane in `O(N)`.
//!
//! The per-group accumulation performs the identical f64 additions in the
//! identical order as the old per-SSet loop (ascending `h`, then the
//! self-play correction), so fitness vectors stay bit-identical — it just
//! computes each group's sum once instead of once per member SSet.

use crate::grouping::StrategyGrouping;
use egd_core::strategy::{Strategy, StrategyKind};

/// A population collapsed to dense per-group and per-SSet lanes.
#[derive(Debug, Clone)]
pub struct PopulationSoA {
    /// `group_of[sset]` — group index of each SSet (per-SSet lane).
    pub group_of: Vec<usize>,
    /// `group_rep[g]` — first SSet index holding group `g`'s strategy.
    pub group_rep: Vec<usize>,
    /// `group_count[g]` — SSets in group `g`, ready for fitness sums.
    pub group_count: Vec<f64>,
    /// `fingerprints[g]` — fingerprint of group `g`'s strategy.
    pub fingerprints: Vec<u64>,
    /// `deterministic[g]` — whether group `g`'s strategy is deterministic.
    pub deterministic: Vec<bool>,
}

impl PopulationSoA {
    /// Collapses `strategies` into the SoA view (first-occurrence group
    /// order, identical to [`StrategyGrouping::of`]).
    pub fn of(strategies: &[StrategyKind]) -> Self {
        let StrategyGrouping {
            group_of,
            group_rep,
            group_count,
        } = StrategyGrouping::of(strategies);
        let fingerprints = group_rep
            .iter()
            .map(|&i| strategies[i].fingerprint())
            .collect();
        let deterministic = group_rep
            .iter()
            .map(|&i| strategies[i].is_deterministic())
            .collect();
        PopulationSoA {
            group_of,
            group_rep,
            group_count,
            fingerprints,
            deterministic,
        }
    }

    /// Number of distinct strategy groups.
    #[inline]
    pub fn num_groups(&self) -> usize {
        self.group_rep.len()
    }

    /// Number of SSets in the population.
    #[inline]
    pub fn num_ssets(&self) -> usize {
        self.group_of.len()
    }

    /// Streams the `G×G` payoff matrix (engine cell order,
    /// `pay[g * G + h]` = payoff to `g` against `h`) into per-group fitness
    /// lanes: `Σ_h count[h]·pay[g][h]`, minus the self-play cell unless
    /// `include_self`. Same additions in the same order as the historical
    /// per-SSet loop.
    pub fn group_fitness(&self, pay: &[f64], include_self: bool) -> Vec<f64> {
        let num_groups = self.num_groups();
        debug_assert_eq!(pay.len(), num_groups * num_groups);
        let mut lanes = Vec::with_capacity(num_groups);
        for g in 0..num_groups {
            let row = &pay[g * num_groups..(g + 1) * num_groups];
            let mut total = 0.0;
            for (h, &p) in row.iter().enumerate() {
                total += self.group_count[h] * p;
            }
            if !include_self {
                total -= row[g];
            }
            lanes.push(total);
        }
        lanes
    }

    /// Scatters per-group fitness lanes back to per-SSet fitness through the
    /// `group_of` lane.
    pub fn scatter(&self, group_fitness: &[f64]) -> Vec<f64> {
        debug_assert_eq!(group_fitness.len(), self.num_groups());
        self.group_of.iter().map(|&g| group_fitness[g]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use egd_core::state::MemoryDepth;
    use egd_core::strategy::{MixedStrategy, PureStrategy};

    fn strategy(bits: &str) -> StrategyKind {
        StrategyKind::Pure(PureStrategy::from_bitstring(MemoryDepth::ONE, bits).unwrap())
    }

    #[test]
    fn soa_view_matches_grouping() {
        let strategies = vec![
            strategy("0110"),
            StrategyKind::Mixed(MixedStrategy::uniform(MemoryDepth::ONE, 0.5).unwrap()),
            strategy("0110"),
            strategy("0000"),
        ];
        let soa = PopulationSoA::of(&strategies);
        assert_eq!(soa.num_groups(), 3);
        assert_eq!(soa.num_ssets(), 4);
        assert_eq!(soa.group_of, vec![0, 1, 0, 2]);
        assert_eq!(soa.group_count, vec![2.0, 1.0, 1.0]);
        assert_eq!(soa.fingerprints[0], strategies[0].fingerprint());
        assert_eq!(soa.fingerprints[1], strategies[1].fingerprint());
        assert!(soa.deterministic[0]);
        assert!(!soa.deterministic[1]);
    }

    #[test]
    fn group_fitness_matches_per_sset_reference() {
        let strategies = vec![
            strategy("0110"),
            strategy("1111"),
            strategy("0110"),
            strategy("0000"),
            strategy("1111"),
        ];
        let soa = PopulationSoA::of(&strategies);
        let num_groups = soa.num_groups();
        let pay: Vec<f64> = (0..num_groups * num_groups)
            .map(|i| (i as f64) * 0.37 + 1.0)
            .collect();
        for include_self in [false, true] {
            let lanes = soa.group_fitness(&pay, include_self);
            let fitness = soa.scatter(&lanes);
            // Reference: the historical per-SSet loop.
            for (i, &g) in soa.group_of.iter().enumerate() {
                let mut total = 0.0;
                for h in 0..num_groups {
                    total += soa.group_count[h] * pay[g * num_groups + h];
                }
                if !include_self {
                    total -= pay[g * num_groups + g];
                }
                assert_eq!(total.to_bits(), fitness[i].to_bits());
            }
        }
    }
}
