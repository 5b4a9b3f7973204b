//! Outside-in layer probes: timed calls into single layers on a
//! workload's end state, made from the benchmark's own code.

use crate::checks::Checks;
use ebs::core::{EnergyAwareBalancer, EnergyBalanceConfig};
use ebs::sched::{LoadBalancer, LoadBalancerConfig};
use ebs::sim::{build_engine, SimEngine, Simulation};
use ebs::topology::CpuId;
use std::time::Instant;

/// Median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Nearest-rank quantile `q` of `xs` (0 for none).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median wall milliseconds of `repeats` calls of `f`.
pub fn time_ms<R>(repeats: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Median microseconds of one full balancing round — a periodic pass
/// on every CPU with every domain level due — by the stock balancer
/// and by the energy-aware one, each replayed `rounds` times on fresh
/// clones of the engine's end-state `System` and `PowerState`.
pub fn balance_rounds_us(sim: &Simulation, rounds: usize) -> (f64, f64) {
    let n = sim.system().topology().n_cpus();
    let mut stock = Vec::with_capacity(rounds);
    let mut energy = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut sys = sim.system().clone();
        // A fresh balancer has every level of every CPU due at once.
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        let t = Instant::now();
        for c in 0..n {
            std::hint::black_box(lb.run(CpuId(c), &mut sys));
        }
        stock.push(t.elapsed().as_secs_f64() * 1e6);

        let mut sys = sim.system().clone();
        let power = sim.power_state().clone();
        let mut eb = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        let t = Instant::now();
        for c in 0..n {
            std::hint::black_box(eb.run(CpuId(c), &mut sys, &power));
        }
        energy.push(t.elapsed().as_secs_f64() * 1e6);
    }
    (median(&stock), median(&energy))
}

/// Costs of the store round trip on one engine.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreProbe {
    /// Milliseconds to serialize the state into an image.
    pub snapshot_ms: f64,
    /// Milliseconds for `state_hash` (serialize and hash).
    pub state_hash_ms: f64,
    /// Milliseconds to restore the image into a fresh engine.
    pub restore_ms: f64,
    /// Image size, KiB.
    pub image_kb: f64,
}

/// Snapshot -> `state_hash` -> restore into engines freshly built from
/// the same config. Every restored engine's hash must equal the
/// original's.
pub fn store_round_trip(engine: &dyn SimEngine, checks: &mut Checks) -> StoreProbe {
    const REPEATS: usize = 5;
    let image = engine.snapshot();
    let hash = engine.state_hash();
    let snapshot_ms = time_ms(REPEATS, || engine.snapshot());
    let state_hash_ms = time_ms(REPEATS, || engine.state_hash());
    let mut restore = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let mut fresh = build_engine(engine.config().clone());
        let t = Instant::now();
        let restored = fresh.restore_snapshot(&image);
        restore.push(t.elapsed().as_secs_f64() * 1e3);
        let restored_hash = fresh.state_hash();
        checks.check(restored.is_ok() && restored_hash == hash, || {
            format!("store: restore {restored:?}, hash {restored_hash:016x} != {hash:016x}")
        });
    }
    StoreProbe {
        snapshot_ms,
        state_hash_ms,
        restore_ms: median(&restore),
        image_kb: image.as_bytes().len() as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.99), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
