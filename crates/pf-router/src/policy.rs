//! Dispatch policies and the consistent-hash ring behind kernel affinity.

use pf_core::{PfError, ROUTER_POLICIES};
use serde::{Deserialize, Serialize};

/// How the router picks a replica for an admitted request.
///
/// Every policy also defines a *fallback order*: if the chosen replica's
/// queue is full, the router spills down that order before rejecting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// Rotate over replicas in admission order. Oblivious to both load and
    /// locality — the baseline the other policies are judged against.
    RoundRobin,
    /// Pick the replica with the fewest outstanding requests — queued,
    /// forming a batch or in service ([`pf_serve::Server::outstanding`]) —
    /// ties to the lowest index. Best instantaneous load spreading,
    /// oblivious to locality.
    LeastLoaded,
    /// Consistent-hash the request's affinity key (its model) onto the
    /// replica ring, so one model's requests land on one replica and its
    /// lowered layers (their prepared kernel spectra) stay resident there.
    /// Fallbacks follow the ring, so a spilled model still concentrates on
    /// few replicas.
    ///
    /// Load-aware among warm replicas (consistent hashing with bounded
    /// loads, restricted to hits): when the home replica has requests
    /// outstanding, the replica that already holds the request
    /// ([`crate::ReplicaEngine::holds`]) with the fewest outstanding goes
    /// first, if that count is strictly below home's. Ties stay home, and
    /// a request never leaves home for a replica where it would miss.
    KernelAffinity,
}

impl Policy {
    /// Parses a policy name from [`ROUTER_POLICIES`].
    ///
    /// # Errors
    ///
    /// Returns [`PfError::InvalidScenario`] for an unknown name.
    pub fn from_name(name: &str) -> Result<Self, PfError> {
        match name {
            "round_robin" => Ok(Policy::RoundRobin),
            "least_loaded" => Ok(Policy::LeastLoaded),
            "kernel_affinity" => Ok(Policy::KernelAffinity),
            other => Err(PfError::invalid_scenario(format!(
                "unknown router policy `{other}` (known: {})",
                ROUTER_POLICIES.join(", ")
            ))),
        }
    }

    /// The scenario-facing name (inverse of [`Policy::from_name`]).
    pub fn name(&self) -> &'static str {
        match self {
            Policy::RoundRobin => "round_robin",
            Policy::LeastLoaded => "least_loaded",
            Policy::KernelAffinity => "kernel_affinity",
        }
    }
}

/// SplitMix64: a cheap, well-mixed 64-bit hash (also the router's
/// backoff jitter). Deterministic across runs and platforms — ring
/// placement is part of the reproducible experiment. The facade's fault
/// plans draw their spike jitter and drift seeds from it too.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps 64 random bits onto `[0, 1)`: the top 53, exactly.
pub fn unit_from_bits(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A consistent-hash ring over replica indices with virtual nodes, so that
/// (a) model keys spread evenly even when there are few replicas, and
/// (b) the fallback order for a key is the ring's natural successor walk.
#[derive(Debug, Clone)]
pub(crate) struct HashRing {
    /// `(point, replica)` sorted by point.
    points: Vec<(u64, usize)>,
    replicas: usize,
}

/// Virtual nodes per replica. 64 keeps the largest/smallest arc ratio low
/// without making ring walks measurable.
const VNODES: usize = 64;

/// Salt separating the vnode point space from the key hash space — without
/// it, replica 0's points are `splitmix64(0..VNODES)`, exactly the hashes
/// of small integer keys, and every small model key homes to replica 0.
const RING_SALT: u64 = 0xA076_1D64_78BD_642F;

impl HashRing {
    pub(crate) fn new(replicas: usize) -> Self {
        assert!(replicas >= 1, "ring needs at least one replica");
        let mut points: Vec<(u64, usize)> = (0..replicas)
            .flat_map(|r| {
                (0..VNODES).map(move |v| (splitmix64(RING_SALT ^ ((r as u64) << 32 | v as u64)), r))
            })
            .collect();
        points.sort_unstable();
        Self { points, replicas }
    }

    /// The distinct replicas a key maps to, in ring-successor order: the
    /// first entry is the key's home, the rest the spill order.
    pub(crate) fn order(&self, key: u64) -> Vec<usize> {
        let start = self
            .points
            .partition_point(|&(point, _)| point < splitmix64(key));
        let mut order = Vec::with_capacity(self.replicas);
        let mut seen = vec![false; self.replicas];
        for i in 0..self.points.len() {
            let (_, replica) = self.points[(start + i) % self.points.len()];
            if !seen[replica] {
                seen[replica] = true;
                order.push(replica);
                if order.len() == self.replicas {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        for name in ROUTER_POLICIES {
            assert_eq!(Policy::from_name(name).unwrap().name(), name);
        }
        assert!(Policy::from_name("random").is_err());
    }

    #[test]
    fn ring_order_is_deterministic_and_complete() {
        let ring = HashRing::new(4);
        for key in 0..100u64 {
            let order = ring.order(key);
            assert_eq!(order.len(), 4, "every replica appears once");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
            assert_eq!(order, HashRing::new(4).order(key), "deterministic");
        }
    }

    #[test]
    fn ring_spreads_keys_over_replicas() {
        let ring = HashRing::new(3);
        let mut counts = [0usize; 3];
        for key in 0..3000u64 {
            counts[ring.order(key)[0]] += 1;
        }
        for &count in &counts {
            // Perfect balance would be 1000; virtual nodes keep the skew
            // well under 2x.
            assert!(
                (400..=1800).contains(&count),
                "home-replica distribution too skewed: {counts:?}"
            );
        }
    }

    #[test]
    fn same_key_same_home() {
        let ring = HashRing::new(5);
        let home = ring.order(77)[0];
        for _ in 0..10 {
            assert_eq!(ring.order(77)[0], home);
        }
        // Different keys do not all share one home.
        let homes: std::collections::BTreeSet<usize> = (0..50).map(|k| ring.order(k)[0]).collect();
        assert!(homes.len() > 1);
    }
}
