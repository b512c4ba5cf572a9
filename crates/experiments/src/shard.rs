//! Deterministic sharding of a latency-run sample budget.
//!
//! The deep-tail experiments (Figures 5–7) need hundreds of thousands to
//! millions of samples to expose the paper's worst cases. One discrete-event
//! simulation is inherently serial, but the *samples* are not: K independent
//! simulations with forked seeds sample the same stationary latency
//! distribution, and their histograms merge exactly (`LatencyHistogram::merge`
//! is lossless). This module holds the seed-forking, budget-splitting and
//! thread fan-out primitives. The crate's `rig` module builds on them: the
//! sharded figure runs (`run_realfeel`, `run_rcim`) and the matrix group
//! engine behind both fault matrices split budgets, fork seeds and fan out
//! through these functions, so every sharded experiment shares one
//! contract.
//!
//! # Determinism contract
//!
//! * Output is bit-for-bit reproducible for a given `(seed, shards)` pair —
//!   shard seeds and per-shard budgets are pure functions of it, and merge
//!   order is shard-index order regardless of thread completion order.
//! * `shards == 1` runs the simulation on `seed` itself, reproducing the
//!   pre-sharding single-simulation output exactly.
//! * Different shard counts sample different (equally valid) draws from the
//!   model, so summaries for K=2 and K=8 differ in the same way two root
//!   seeds differ.
//! * Worker count is *not* part of the contract's key: the fan-out runs on
//!   the `sp-fleet` work-stealing pool, and the pool returns results in
//!   index order whatever `SP_WORKERS` (or `sp_fleet::with_workers`) says.

use simcore::SimRng;
use std::cell::Cell;

/// Clamp a requested shard count so every shard gets at least one sample.
pub fn effective_shards(requested: u32, samples: u64) -> u32 {
    requested.clamp(1, samples.clamp(1, u32::MAX as u64) as u32)
}

/// Per-shard simulator seeds for a root seed.
///
/// A single shard runs on the root seed itself so `shards == 1` is the
/// classic path bit-for-bit. For K > 1, shard i's seed is drawn by forking a
/// root `SimRng::new(seed)` with the shard index as the fork label and taking
/// the fork's first `u64` — the same labelled-fork scheme the simulator uses
/// to give each stochastic component its own stream (see docs/MODELING.md).
pub fn shard_seeds(seed: u64, shards: u32) -> Vec<u64> {
    if shards <= 1 {
        return vec![seed];
    }
    let mut root = SimRng::new(seed);
    (0..shards).map(|i| root.fork(i as u64).next_u64()).collect()
}

/// Split a sample budget across shards: every shard gets `total / shards`,
/// and the first `total % shards` shards get one extra, so the counts sum to
/// `total` exactly.
pub fn split_samples(total: u64, shards: u32) -> Vec<u64> {
    let shards = effective_shards(shards, total) as u64;
    let base = total / shards;
    let extra = total % shards;
    (0..shards).map(|i| base + u64::from(i < extra)).collect()
}

std::thread_local! {
    // Cumulative (busy_ns, span_ns) of fleet fan-outs issued from this
    // thread, for per-figure speedup accounting: busy is the sum of inner
    // job walls, span is the fan-out call's own wall. Serial-equivalent
    // time of a figure ≈ wall − span + busy.
    static FANOUT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Take (and reset) the cumulative `(busy_ns, span_ns)` of every
/// [`run_indexed`] fan-out this thread has issued since the last take.
/// `busy_ns` sums the wall-clock of the individual jobs; `span_ns` sums the
/// wall-clock of the fan-out calls themselves. Their ratio is the effective
/// parallel speedup the fleet delivered to this caller.
pub fn take_fanout() -> (u64, u64) {
    FANOUT.with(|c| c.replace((0, 0)))
}

/// Run `f(0), f(1), …, f(n-1)` on the `sp-fleet` work-stealing pool and
/// return the results in index order, regardless of which worker ran what.
/// Worker count comes from [`sp_fleet::default_workers`] (`SP_WORKERS` env,
/// or a scoped [`sp_fleet::with_workers`] override), capped at `n`.
pub fn run_indexed<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let t0 = std::time::Instant::now();
    let (out, stats) = sp_fleet::run_with(sp_fleet::PoolConfig::auto(sp_fleet::default_workers()), n, f);
    let span = t0.elapsed().as_nanos() as u64;
    FANOUT.with(|c| {
        let (busy, spans) = c.get();
        c.set((busy + stats.busy_ns, spans + span));
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_shard_uses_the_root_seed() {
        assert_eq!(shard_seeds(0xDEAD_BEEF, 1), vec![0xDEAD_BEEF]);
    }

    #[test]
    fn shard_seeds_are_deterministic_and_distinct() {
        let a = shard_seeds(42, 8);
        let b = shard_seeds(42, 8);
        assert_eq!(a, b);
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 8, "seed collision in {a:?}");
        assert_ne!(shard_seeds(42, 8), shard_seeds(43, 8));
    }

    #[test]
    fn split_preserves_totals() {
        for (total, shards) in [(10u64, 3u32), (400_000, 8), (7, 7), (5, 16), (1, 4)] {
            let parts = split_samples(total, shards);
            assert_eq!(parts.iter().sum::<u64>(), total);
            assert!(parts.iter().all(|&p| p >= 1), "{parts:?}");
            assert!(parts.iter().max().unwrap() - parts.iter().min().unwrap() <= 1);
        }
    }

    #[test]
    fn effective_shards_clamps() {
        assert_eq!(effective_shards(0, 100), 1);
        assert_eq!(effective_shards(8, 100), 8);
        assert_eq!(effective_shards(8, 3), 3);
        assert_eq!(effective_shards(4, 0), 1);
    }

    #[test]
    fn run_indexed_is_index_ordered() {
        let out = run_indexed(7, |i| i * i);
        assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn run_indexed_is_worker_count_invariant() {
        let reference = sp_fleet::with_workers(1, || run_indexed(16, |i| i.wrapping_mul(31)));
        for workers in [2, 8] {
            let got = sp_fleet::with_workers(workers, || run_indexed(16, |i| i.wrapping_mul(31)));
            assert_eq!(got, reference, "workers={workers}");
        }
    }

    #[test]
    fn fanout_accumulator_tracks_and_resets() {
        let _ = take_fanout();
        run_indexed(4, std::hint::black_box);
        let (busy, span) = take_fanout();
        assert!(span > 0, "span should cover the fan-out call");
        assert!(busy > 0, "busy should sum the job walls");
        assert_eq!(take_fanout(), (0, 0), "take resets the accumulator");
    }
}
