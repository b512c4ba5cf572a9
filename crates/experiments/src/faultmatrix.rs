//! The shield-robustness fault matrix: the fig-6 (realfeel/RTC) and fig-7
//! (RCIM/ioctl) measured tasks re-run under each [`sp_inject`] perturbation,
//! shielded and unshielded, plus no-fault baselines.
//!
//! Both cells of a pair bind the measured task and its interrupt to CPU 1 —
//! the *only* difference is whether `/proc/shield/*` covers that CPU. Device
//! faults assert on a free line with default (all-CPU) affinity: round-robin
//! delivery drags them onto the measured CPU in the unshielded cell, while
//! the shield's affinity-stripping keeps them off in the shielded cell. Task
//! faults are pinned onto the measured CPU when unshielded (a rogue you
//! cannot keep off without a shield) and left floating when shielded (the
//! shield strips them automatically).
//!
//! The report asserts the paper's qualitative claim as hard bands: every
//! fault degrades the unshielded worst case ≥ 5× over baseline, the
//! shielded realfeel worst case stays < 1 ms, the shielded RCIM worst case
//! stays < 30 µs, and the mid-run reshield scenario recovers its bound in
//! finite time. Violations are collected, not panicked, so the binary can
//! print the whole matrix before failing.
//!
//! The matrix is a declaration: its four `(path, shielded)` groups are
//! measured-path rigs (shielded, or pinned without a shield), and the
//! crate's shared warm-fork matrix engine (the `rig` module) warms, forks
//! and merges them. This module keeps only its group list, its report and
//! cell types, and its bands.

use crate::rig::{run_matrix, Group, MeasuredPath, Placement, Rig, MATRIX_PACE, MEASURED_CPU};
use crate::scenario::{reshield_transient_scenario, run_scenario, RecoveryReport};
use serde::{Deserialize, Serialize};
use simcore::Nanos;
use sp_core::ShieldPlan;
use sp_inject::{matrix_presets, FaultSpec};
use sp_kernel::{KernelConfig, KernelVariant, WorstCaseTrace};
use sp_metrics::LatencySummary;

/// Acceptance bands (see ISSUE/EXPERIMENTS.md).
const DEGRADATION_FACTOR: u64 = 5;
const SHIELDED_REALFEEL_BOUND: Nanos = Nanos::from_ms(1);
const SHIELDED_RCIM_BOUND: Nanos = Nanos::from_us(30);

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultMatrixConfig {
    /// Latency samples collected per cell.
    pub samples_per_cell: u64,
    /// Shards per cell (same PR-1 determinism contract as the figures).
    pub shards: u32,
    pub seed: u64,
}

impl FaultMatrixConfig {
    pub fn full() -> Self {
        FaultMatrixConfig { samples_per_cell: 40_000, shards: 1, seed: 0xFA17_5EED }
    }

    /// Scale the per-cell sample budget (the bench `scale` argument). The
    /// floor keeps enough faulted samples per cell for the heavy-tailed
    /// injectors (pareto softirq bursts, exponential storm gaps) to express
    /// their worst case, which the degradation band measures.
    pub fn scaled(scale: f64) -> Self {
        let full = Self::full();
        FaultMatrixConfig {
            samples_per_cell: ((full.samples_per_cell as f64 * scale) as u64).max(4_000),
            ..full
        }
    }

    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }
}

/// Which measured path a cell exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixPath {
    /// Fig-6: realfeel blocking in `read(/dev/rtc)` at 2048 Hz.
    Realfeel,
    /// Fig-7: RCIM waiter blocking in a BKL-free `ioctl()` at 1 kHz.
    Rcim,
}

impl MatrixPath {
    pub const ALL: [MatrixPath; 2] = [MatrixPath::Realfeel, MatrixPath::Rcim];

    pub fn name(self) -> &'static str {
        match self {
            MatrixPath::Realfeel => "realfeel",
            MatrixPath::Rcim => "rcim",
        }
    }

    /// The rig path: the fig-6 RTC at 2048 Hz, or the fig-7 RCIM at 1 kHz
    /// behind a BKL-free driver (on the PCIe card when `modern_card`).
    pub(crate) fn measured(self, modern_card: bool) -> MeasuredPath {
        match self {
            MatrixPath::Realfeel => MeasuredPath::Rtc { hz: 2048 },
            MatrixPath::Rcim => {
                MeasuredPath::Rcim { period: Nanos::from_ms(1), bkl_free: true, modern_card }
            }
        }
    }
}

/// One (fault, path, shield) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatrixCell {
    /// Fault name, or `"baseline"`.
    pub fault: String,
    pub path: String,
    pub shielded: bool,
    pub summary: LatencySummary,
    pub events: u64,
}

/// One cell's captured flight traces (worst first), paired with the cell's
/// identity. Kept beside [`MatrixCell`] rather than inside it so the report
/// stays a plain serializable summary.
#[derive(Debug, Clone)]
pub struct CellFlight {
    /// Fault name, or `"baseline"`.
    pub fault: String,
    /// Measured path name (see [`MatrixPath::name`]).
    pub path: String,
    /// Whether the cell's measured CPU was shielded.
    pub shielded: bool,
    /// The cell's worst captured windows, worst first.
    pub traces: Vec<WorstCaseTrace>,
}

/// The full matrix plus its band verdicts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultMatrixReport {
    pub config: FaultMatrixConfig,
    pub cells: Vec<MatrixCell>,
    /// The mid-run reshield transient (from
    /// [`crate::scenario::reshield_transient_scenario`]).
    pub reshield: RecoveryReport,
    /// Human-readable band violations; empty means the paper's claim held.
    pub violations: Vec<String>,
}

impl FaultMatrixReport {
    pub fn cell(&self, fault: &str, path: MatrixPath, shielded: bool) -> &MatrixCell {
        self.cells
            .iter()
            .find(|c| c.fault == fault && c.path == path.name() && c.shielded == shielded)
            .expect("cell exists")
    }

    /// Render the worst-case/percentile matrix as a markdown table.
    pub fn markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "| fault | path | shielded p99.9 | shielded max | unshielded p99.9 | \
             unshielded max | worst vs baseline p99.9 |\n",
        );
        out.push_str("|---|---|---|---|---|---|---|\n");
        let mut names = vec!["baseline".to_string()];
        names.extend(matrix_presets().iter().map(|f| f.name.clone()));
        for path in MatrixPath::ALL {
            let base = self.cell("baseline", path, false).summary.p999;
            for name in &names {
                let s = &self.cell(name, path, true).summary;
                let u = &self.cell(name, path, false).summary;
                let factor = if base.0 > 0 { u.max.0 as f64 / base.0 as f64 } else { f64::NAN };
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {} | {} | {:.1}× |\n",
                    name,
                    path.name(),
                    s.p999,
                    s.max,
                    u.p999,
                    u.max,
                    factor
                ));
            }
        }
        out.push_str(&format!(
            "\nreshield transient: degraded samples before reshield {}, recovery {}, \
             post-recovery worst {}\n",
            self.reshield.out_of_bound_before,
            match self.reshield.recovery_secs {
                Some(s) => format!("{:.1} ms", s * 1e3),
                None => "never".into(),
            },
            match self.reshield.worst_after_us {
                Some(w) => format!("{w:.1} µs"),
                None => "n/a".into(),
            },
        ));
        out
    }
}

/// The rig of one `(path, shielded)` group: the paper workload on RedHawk,
/// the measured task and its interrupt on CPU 1 — shielded, or pinned
/// without a shield — and every matrix fault registered disarmed.
pub(crate) fn rig(path: MatrixPath, shielded: bool) -> Rig {
    Rig {
        path: path.measured(false),
        kernel: KernelConfig::new(KernelVariant::RedHawk),
        faults: matrix_presets(),
        task: "measured",
        placement: if shielded {
            Placement::Shield(ShieldPlan::cpu(MEASURED_CPU))
        } else {
            Placement::Pinned(MEASURED_CPU)
        },
        pace: MATRIX_PACE,
    }
}

/// The matrix's four `(path, shielded)` groups in report order.
fn group_keys() -> impl Iterator<Item = (MatrixPath, bool)> {
    MatrixPath::ALL.into_iter().flat_map(|path| [true, false].map(|shielded| (path, shielded)))
}

/// The matrix's groups, planned from `cfg`.
pub(crate) fn groups(cfg: &FaultMatrixConfig) -> Vec<Group> {
    group_keys()
        .enumerate()
        .map(|(i, (path, shielded))| {
            Group::plan(rig(path, shielded), cfg.seed, i as u64, cfg.samples_per_cell, cfg.shards)
        })
        .collect()
}

/// Run the full matrix: `(1 baseline + 5 faults) × 2 paths × 2 shield
/// states` = 24 cells plus the reshield-transient scenario, then check
/// every band. With `top_k > 0` the flight recorder is armed in every
/// cell's forks and each cell also reports the causal windows behind its
/// `top_k` worst samples *from the forked (faulted) stretch*; the report is
/// bit-identical either way. Warm-up samples still count toward the cell
/// histograms, so a quiet cell's histogram max can predate its capture
/// window.
///
/// Each `(path, shielded)` group warms once per shard, fault-free, to a
/// quarter of the shard budget; every cell forks from that checkpoint, arms
/// its fault (baseline arms nothing) and runs on to the full budget. All
/// groups run flattened through the shared matrix engine, with the
/// reshield scenario riding in the fork batch.
pub fn run_fault_matrix_with_flight(
    cfg: &FaultMatrixConfig,
    top_k: usize,
) -> (FaultMatrixReport, Vec<CellFlight>) {
    let reshield = || {
        run_scenario(&reshield_transient_scenario())
            .expect("reshield scenario runs")
            .recovery
            .expect("reshield scenario requests a transient")
    };
    let (outcomes, reshield) = run_matrix(&groups(cfg), top_k, Some(&reshield));

    let mut cells = Vec::new();
    let mut flights = Vec::new();
    for ((path, shielded), group_cells) in group_keys().zip(outcomes) {
        for c in group_cells {
            let (fault, path) = (c.fault, path.name().to_string());
            cells.push(MatrixCell {
                fault: fault.clone(),
                path: path.clone(),
                shielded,
                summary: c.summary,
                events: c.events,
            });
            flights.push(CellFlight { fault, path, shielded, traces: c.traces });
        }
    }
    let reshield = reshield.expect("reshield job ran");

    let mut report = FaultMatrixReport { config: cfg.clone(), cells, reshield, violations: vec![] };
    report.violations = check_bands(&report, &matrix_presets());
    (report, flights)
}

fn check_bands(report: &FaultMatrixReport, faults: &[FaultSpec]) -> Vec<String> {
    let mut violations = Vec::new();
    for path in MatrixPath::ALL {
        // Degradation is judged against the baseline's 99.9th percentile: the
        // baseline *max* is itself a heavy-tail draw (the stress NIC's rare
        // multi-ms softirq bursts) that grows with sample count, which would
        // make a max-vs-max ratio shrink as runs get deeper.
        let baseline = report.cell("baseline", path, false).summary.p999;
        let shielded_bound = match path {
            MatrixPath::Realfeel => SHIELDED_REALFEEL_BOUND,
            MatrixPath::Rcim => SHIELDED_RCIM_BOUND,
        };
        for f in faults {
            let unshielded = report.cell(&f.name, path, false).summary.max;
            if unshielded < baseline * DEGRADATION_FACTOR {
                violations.push(format!(
                    "{}/{}: unshielded worst {} under {DEGRADATION_FACTOR}x baseline p99.9 {}",
                    f.name,
                    path.name(),
                    unshielded,
                    baseline
                ));
            }
            let shielded = report.cell(&f.name, path, true).summary.max;
            if shielded >= shielded_bound {
                violations.push(format!(
                    "{}/{}: shielded worst {} breaks the {} bound",
                    f.name,
                    path.name(),
                    shielded,
                    shielded_bound
                ));
            }
        }
        let shielded_base = report.cell("baseline", path, true).summary.max;
        if shielded_base >= shielded_bound {
            violations.push(format!(
                "baseline/{}: shielded worst {} breaks the {} bound",
                path.name(),
                shielded_base,
                shielded_bound
            ));
        }
    }
    if report.reshield.recovery_secs.is_none() {
        violations.push("reshield transient: bound never recovered".into());
    }
    if report.reshield.out_of_bound_before == 0 {
        violations.push("reshield transient: fault never degraded the unshielded phase".into());
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rig::{run_group_serial, CellOutcome};

    /// The smoke-scale matrix — the same configuration CI runs via
    /// `fault_matrix -- 0.02` — must hold every band.
    #[test]
    fn smoke_matrix_holds_every_band() {
        let report = run_fault_matrix_with_flight(&FaultMatrixConfig::scaled(0.02), 0).0;
        assert_eq!(report.cells.len(), 24);
        assert!(
            report.violations.is_empty(),
            "band violations:\n{}\n{}",
            report.violations.join("\n"),
            report.markdown()
        );
    }

    /// The warm-fork group path is deterministic: two runs of the same group
    /// produce bit-identical summaries and event counts for all six cells,
    /// with or without flight capture.
    #[test]
    fn forked_groups_are_deterministic_across_runs() {
        let group = Group::plan(rig(MatrixPath::Rcim, true), 0xFA17_5EED, 1, 1_200, 1);
        let a = run_group_serial(&group, 0);
        let b = run_group_serial(&group, 1);
        assert_eq!(b.len(), matrix_presets().len() + 1);
        assert!(b.iter().all(|c| !c.traces.is_empty()), "every cell captured a worst window");
        let rows = |cells: &[CellOutcome]| {
            let rows: Vec<_> = cells.iter().map(|c| (&c.fault, &c.summary, c.events)).collect();
            serde_json::to_string(&rows).unwrap()
        };
        assert_eq!(rows(&a), rows(&b));
    }
}
