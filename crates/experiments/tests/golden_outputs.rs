//! Golden digests of the warm-fork outputs that `perfbench/reference.tsv`
//! does not pin: the 24-cell fault matrix, the 60-cell modern matrix and the
//! sharded Figure 6/7 runs.
//!
//! Each digest is an FNV-1a hash over the serialized cells (or histogram)
//! plus the event counts and the captured worst windows' latencies and
//! sizes. The constants were recorded before the measured-path rig and the
//! shared matrix engine replaced the per-experiment builders, so a refactor
//! of either must reproduce them byte for byte.

use sp_experiments::{
    run_fault_matrix_with_flight, run_modern_matrix_with_flight, run_rcim_with_flight,
    run_realfeel_with_flight, FaultMatrixConfig, ModernConfig, RcimConfig, RealfeelConfig,
};
use sp_kernel::WorstCaseTrace;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn num(&mut self, n: u64) -> &mut Self {
        self.put(&n.to_le_bytes())
    }

    fn traces(&mut self, traces: &[WorstCaseTrace]) -> &mut Self {
        self.num(traces.len() as u64);
        for t in traces {
            self.num(t.latency.as_ns()).num(t.events.len() as u64);
        }
        self
    }
}

#[test]
fn fault_matrix_digest() {
    let cfg = FaultMatrixConfig { samples_per_cell: 1_200, shards: 2, seed: 0xFA17_5EED };
    let (report, flights) = run_fault_matrix_with_flight(&cfg, 1);
    assert_eq!(report.cells.len(), 24);
    let mut h = Fnv::new();
    h.put(serde_json::to_string(&report.cells).unwrap().as_bytes());
    h.put(serde_json::to_string(&report.reshield).unwrap().as_bytes());
    for f in &flights {
        h.traces(&f.traces);
    }
    assert_eq!(h.0, 0xce09_dc52_7c99_71ab, "fault matrix digest");
}

#[test]
fn modern_matrix_digest() {
    let cfg = ModernConfig { samples_per_cell: 1_200, shards: 2, seed: 0xA0DE_125EED };
    let (report, flights) = run_modern_matrix_with_flight(&cfg, 1);
    assert_eq!(report.cells.len(), 60);
    let mut h = Fnv::new();
    h.put(serde_json::to_string(&report.cells).unwrap().as_bytes());
    for f in &flights {
        h.traces(&f.traces);
    }
    assert_eq!(h.0, 0xeea0_e801_eccb_8e45, "modern matrix digest");
}

#[test]
fn fig6_realfeel_digest() {
    let cfg = RealfeelConfig::fig6_redhawk_shielded().with_samples(6_000).with_shards(3);
    let (r, traces) = run_realfeel_with_flight(&cfg, 2);
    let mut h = Fnv::new();
    h.put(serde_json::to_string(&r.histogram).unwrap().as_bytes());
    h.num(r.events).num(r.overruns).traces(&traces);
    assert_eq!(h.0, 0x3810_1055_ffeb_9e58, "fig6 digest");
}

#[test]
fn fig7_rcim_digest() {
    let cfg = RcimConfig::fig7_redhawk_shielded().with_samples(6_000).with_shards(2);
    let (r, traces) = run_rcim_with_flight(&cfg, 2);
    let mut h = Fnv::new();
    h.put(serde_json::to_string(&r.histogram).unwrap().as_bytes());
    h.num(r.events).traces(&traces);
    assert_eq!(h.0, 0xc58b_4957_1d78_7f17, "fig7 digest");
}
