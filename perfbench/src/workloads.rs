//! The three workloads: inputs generated from the seed, one pass over the
//! library, and the checks on that pass's outputs.
//!
//! Seed `n` moves every config's seed by `n` golden-ratio steps, so seed 0
//! is the reference: it runs the configs exactly as the repository commits
//! them (`paper_figures` at seed 0 is the scale-1, one-shard figure suite).

use crate::checks::Checks;
use crate::trace::Tracer;
use simcore::Nanos;
use sp_experiments::faultmatrix::MatrixPath;
use sp_experiments::ModernVariant;
use sp_experiments::{
    run_determinism, run_modern_matrix_with_flight, run_rcim_with_flight, run_realfeel_with_flight,
    run_sweep, DeterminismConfig, ModernConfig, RcimConfig, RealfeelConfig, SweepConfig,
};
use sp_inject::matrix_presets;
use sp_kernel::KernelVariant;
use sp_metrics::LatencySummary;

/// Flight-recorder depth `reproduce_all` arms by default.
pub const FLIGHT_TOP_K: usize = 3;
/// Cells per `study_sweep` pass (three groups of 400 seeds).
pub const SWEEP_CELLS: u64 = 1_200;
/// Fleet workers for `study_sweep`; the other workloads use one.
pub const SWEEP_WORKERS: u32 = 2;
/// `ModernConfig::scaled` factor for `modern_faults`: 20,000 samples a cell.
pub const MODERN_SCALE: f64 = 0.5;
/// The sub-0.5 µs budget the `modern-all` RCIM worst case must close.
const MODERN_RCIM_CEILING: Nanos = Nanos(500);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperFigures,
    StudySweep,
    ModernFaults,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFigures,
        Workload::StudySweep,
        Workload::ModernFaults,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFigures => "paper_figures",
            Workload::StudySweep => "study_sweep",
            Workload::ModernFaults => "modern_faults",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Move a committed default seed by `seed` golden-ratio steps.
pub fn derive_seed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The seven figure configs of the scale-1 suite on one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperInputs {
    pub determinism: [DeterminismConfig; 4],
    pub fig5: RealfeelConfig,
    pub fig6: RealfeelConfig,
    pub fig7: RcimConfig,
}

impl PaperInputs {
    /// The suite at the runner's floor sizes (60 iterations, 1,000 samples)
    /// on the committed seeds: a cheap figure-runner probe.
    pub fn floor() -> Self {
        let Inputs::Paper(p) = Inputs::generate(Workload::PaperFigures, 0) else {
            unreachable!("paper inputs")
        };
        PaperInputs {
            determinism: p.determinism.map(|c| c.with_iterations(60)),
            fig5: p.fig5.with_samples(1_000),
            fig6: p.fig6.with_samples(1_000),
            fig7: p.fig7.with_samples(1_000),
        }
    }
}

/// Everything a pass hands the library, generated from the seed alone.
#[derive(Debug, Clone, PartialEq)]
pub enum Inputs {
    Paper(Box<PaperInputs>),
    Sweep(SweepConfig),
    Modern(ModernConfig),
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::PaperFigures => {
                let det = |c: DeterminismConfig| {
                    let s = derive_seed(c.seed, seed);
                    c.with_seed(s)
                };
                let real = |c: RealfeelConfig| {
                    let s = derive_seed(c.seed, seed);
                    c.with_seed(s).with_shards(1)
                };
                let f7 = RcimConfig::fig7_redhawk_shielded();
                let f7_seed = derive_seed(f7.seed, seed);
                Inputs::Paper(Box::new(PaperInputs {
                    determinism: [
                        det(DeterminismConfig::fig1_vanilla_ht()),
                        det(DeterminismConfig::fig2_redhawk_shielded()),
                        det(DeterminismConfig::fig3_redhawk_unshielded()),
                        det(DeterminismConfig::fig4_vanilla_noht()),
                    ],
                    fig5: real(RealfeelConfig::fig5_vanilla()),
                    fig6: real(RealfeelConfig::fig6_redhawk_shielded()),
                    fig7: f7.with_seed(f7_seed).with_shards(1),
                }))
            }
            Workload::StudySweep => {
                let canonical = SweepConfig::canonical(SWEEP_CELLS);
                Inputs::Sweep(
                    SweepConfig {
                        base_seed: derive_seed(canonical.base_seed, seed),
                        ..canonical
                    }
                    .with_workers(SWEEP_WORKERS),
                )
            }
            Workload::ModernFaults => {
                let scaled = ModernConfig::scaled(MODERN_SCALE);
                Inputs::Modern(ModernConfig {
                    seed: derive_seed(scaled.seed, seed),
                    ..scaled
                })
            }
        }
    }

    pub fn workers(&self) -> u32 {
        match self {
            Inputs::Sweep(cfg) => cfg.workers,
            _ => 1,
        }
    }
}

/// What one pass produced, reduced to the numbers the benchmark reports.
#[derive(Debug, Default)]
pub struct Pass {
    /// Simulator events dispatched (exact per seed).
    pub events: u64,
    /// Cells run: study cells, or the seven figures.
    pub cells: u64,
    /// Latency samples recorded and requested across the pass's latency runs.
    pub samples: u64,
    pub samples_requested: u64,
    /// FNV-1a over the serialized results (exact per seed).
    pub digest: u64,
    /// Mean absolute relative error against the paper's point values, %.
    pub paper_error_pct: f64,
    /// Fleet jobs charged to the pass.
    pub fleet_jobs: u64,
    /// Warm-checkpoint cache lookups served / warmed (`study_sweep` only).
    pub warm_hits: u64,
    pub warm_misses: u64,
    /// Per-figure (or per-cell group) events, for the traced decomposition.
    pub events_by_part: Vec<(&'static str, u64)>,
    pub checks: Checks,
}

impl Pass {
    pub fn sample_yield(&self) -> f64 {
        self.samples as f64 / self.samples_requested.max(1) as f64
    }
}

/// FNV-1a, folded over each result's JSON serialization.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, result: &impl serde::Serialize) {
        let json = serde_json::to_string(result).expect("results serialize");
        for b in json.bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Mean of |measured − paper| / paper over the given pairs, in percent.
///
/// The mean, not the median: the median of the figure suite's nine errors
/// flips from seed to seed between fig7's avg error (4.5 %) and the fig3 or
/// fig4 jitter error (6–8 %), so it spreads far more over seeds.
pub fn mean_error_pct(pairs: &[(f64, f64)]) -> f64 {
    let total: f64 = pairs.iter().map(|&(m, p)| ((m - p) / p).abs()).sum();
    total * 100.0 / pairs.len() as f64
}

fn pct_below(count_below: u64, count: u64) -> f64 {
    count_below as f64 * 100.0 / count.max(1) as f64
}

fn us(n: Nanos) -> f64 {
    n.as_ns() as f64 / 1e3
}

/// Run one pass of the workload. Every library call goes through `tracer`,
/// which records a span per call when tracing is on.
pub fn run_pass(inputs: &Inputs, tracer: &mut Tracer) -> Pass {
    let workers = inputs.workers();
    let (mut pass, fleet) = sp_fleet::counter_scope(|| {
        sp_fleet::with_workers(workers, || match inputs {
            Inputs::Paper(p) => paper_pass(p, tracer),
            Inputs::Sweep(cfg) => sweep_pass(cfg, tracer),
            Inputs::Modern(cfg) => modern_pass(cfg, tracer),
        })
    });
    pass.fleet_jobs = fleet.jobs;
    pass
}

fn paper_pass(p: &PaperInputs, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass {
        cells: 7,
        ..Pass::default()
    };
    let mut digest = Digest::default();
    // Jitter bands of the paper's shape verdicts (`reproduce_all`), in %.
    const DET_BANDS: [(f64, f64); 4] = [(16.0, 45.0), (0.2, 4.0), (8.0, 22.0), (8.0, 20.0)];
    const DET_PAPER: [f64; 4] = [26.17, 1.87, 14.82, 13.15];
    const FIGS: [&str; 7] = ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"];
    let mut errors = Vec::new();

    for (i, cfg) in p.determinism.iter().enumerate() {
        let r = tracer.span("experiments", FIGS[i], || run_determinism(cfg));
        let jitter = r.summary.jitter_pct();
        pass.checks
            .band(FIGS[i], jitter, DET_BANDS[i].0, DET_BANDS[i].1, "% jitter");
        errors.push((jitter, DET_PAPER[i]));
        pass.events += r.events;
        pass.events_by_part.push((FIGS[i], r.events));
        digest.add(&r);
    }

    // Figures 5 and 6: max bands from the shape verdicts, % < 0.1 ms against
    // the paper's 99.14 % and ~100 %.
    let realfeel = [
        (
            &p.fig5,
            "fig5",
            (Nanos::from_ms(2), Nanos::from_ms(200)),
            99.14,
        ),
        (
            &p.fig6,
            "fig6",
            (Nanos::from_us(15), Nanos::from_ms(1)),
            100.0,
        ),
    ];
    for (cfg, id, (lo, hi), paper_pct) in realfeel {
        let (r, traces) = tracer.span("experiments", id, || {
            run_realfeel_with_flight(cfg, FLIGHT_TOP_K)
        });
        pass.checks
            .band(id, us(r.summary.max), us(lo), us(hi), "us max");
        check_latency_run(&mut pass, id, cfg.samples, &r.summary);
        check_flight(&mut pass, id, &r.summary, &traces);
        let below = pct_below(
            r.histogram.count_below(Nanos::from_us(100)),
            r.histogram.count(),
        );
        errors.push((below, paper_pct));
        pass.events += r.events;
        pass.events_by_part.push((id, r.events));
        digest.add(&r);
    }

    let (r, traces) = tracer.span("experiments", "fig7", || {
        run_rcim_with_flight(&p.fig7, FLIGHT_TOP_K)
    });
    check_fig7(&mut pass, p.fig7.samples, &r, &traces);
    errors.extend(fig7_pairs(&r.summary));
    pass.events += r.events;
    pass.events_by_part.push(("fig7", r.events));
    digest.add(&r);

    pass.paper_error_pct = mean_error_pct(&errors);
    pass.digest = digest.value();
    pass
}

/// Figure 7's checks: the 15–30 µs max band, the whole sample budget, and
/// the flight window behind the max.
fn check_fig7(
    pass: &mut Pass,
    requested: u64,
    r: &sp_experiments::RcimResult,
    traces: &[sp_kernel::WorstCaseTrace],
) {
    pass.checks
        .band("fig7", us(r.summary.max), 15.0, 30.0, "us max");
    check_latency_run(pass, "fig7", requested, &r.summary);
    check_flight(pass, "fig7", &r.summary, traces);
}

/// Figure 7's point values: min 11 µs, avg 11.3 µs, max 27 µs.
fn fig7_pairs(s: &LatencySummary) -> [(f64, f64); 3] {
    [(us(s.min), 11.0), (us(s.mean), 11.3), (us(s.max), 27.0)]
}

/// A latency run recorded at least the samples it was asked for.
fn check_latency_run(pass: &mut Pass, id: &str, requested: u64, summary: &LatencySummary) {
    pass.samples += summary.count;
    pass.samples_requested += requested;
    pass.checks.check(summary.count >= requested, || {
        format!(
            "{id}: {} samples recorded, {requested} requested",
            summary.count
        )
    });
}

/// The armed flight recorder captured the window behind the figure's max.
fn check_flight(
    pass: &mut Pass,
    id: &str,
    summary: &LatencySummary,
    traces: &[sp_kernel::WorstCaseTrace],
) {
    pass.checks.check(
        traces.first().map(|t| t.latency) == Some(summary.max),
        || {
            format!(
                "{id}: worst flight window does not explain the max {}",
                summary.max
            )
        },
    );
}

fn sweep_pass(cfg: &SweepConfig, tracer: &mut Tracer) -> Pass {
    let (report, telemetry) = tracer.span("experiments", "run_sweep", || run_sweep(cfg));
    let mut pass = Pass {
        events: report.total_events,
        cells: report.cells,
        warm_hits: telemetry.warm_physical_hits,
        warm_misses: telemetry.warm_physical_misses,
        ..Pass::default()
    };
    pass.checks.check(report.cells == cfg.cell_count(), || {
        format!("ran {} of {} cells", report.cells, cfg.cell_count())
    });
    pass.checks
        .check(report.warm_unique == cfg.groups.len() as u64, || {
            format!(
                "{} warm checkpoints for {} groups",
                report.warm_unique,
                cfg.groups.len()
            )
        });
    let mut errors = Vec::new();
    for (group, g) in cfg.groups.iter().zip(&report.groups) {
        let requested = g.cells * cfg.samples_per_cell;
        pass.samples += g.samples;
        pass.samples_requested += requested;
        pass.checks.check(g.samples >= requested, || {
            format!(
                "{}: {} samples recorded, {requested} requested",
                g.label, g.samples
            )
        });
        pass.events_by_part.push((group_part(group), g.events));
        // The groups that reproduce a paper configuration: stock 2.4.18 is
        // Figure 5, RedHawk with CPU 1 shielded is Figure 6 (max 0.565 ms,
        // and the shield must hold the 1 ms band).
        match (group.variant, group.shield) {
            (KernelVariant::Vanilla24, None) => errors.push((us(g.summary.max), 92_300.0)),
            (KernelVariant::RedHawk, Some(_)) => {
                errors.push((us(g.summary.max), 565.0));
                pass.checks
                    .band(&g.label, us(g.summary.max), 0.0, 1_000.0, "us max");
            }
            _ => {}
        }
    }
    pass.events_by_part.push(("warm", report.warm_events));
    pass.paper_error_pct = mean_error_pct(&errors);
    let mut digest = Digest::default();
    digest.add(&report);
    pass.digest = digest.value();
    pass
}

/// Part label of a sweep group, matching the kernel probe that prices it.
fn group_part(group: &sp_experiments::SweepGroup) -> &'static str {
    match (group.variant, group.shield) {
        (KernelVariant::Vanilla24, _) => "vanilla",
        (_, Some(_)) => "redhawk_shielded",
        _ => "redhawk_unshielded",
    }
}

fn modern_pass(cfg: &ModernConfig, tracer: &mut Tracer) -> Pass {
    let (report, _) = tracer.span("experiments", "run_modern_matrix", || {
        run_modern_matrix_with_flight(cfg, FLIGHT_TOP_K)
    });
    let mut pass = Pass {
        cells: report.cells.len() as u64,
        ..Pass::default()
    };
    let expected = ModernVariant::ALL.len() * MatrixPath::ALL.len() * (1 + matrix_presets().len());
    pass.checks.check(report.cells.len() == expected, || {
        format!("{} cells, {expected} expected", report.cells.len())
    });
    let modern_rcim_worst = report
        .cells
        .iter()
        .filter(|c| c.variant == "modern-all" && c.path == "rcim")
        .map(|c| c.summary.max)
        .max()
        .unwrap_or(Nanos(u64::MAX));
    pass.checks
        .band_check(modern_rcim_worst < MODERN_RCIM_CEILING, || {
            format!("modern-all worst RCIM {modern_rcim_worst} not under {MODERN_RCIM_CEILING}")
        });
    let mut errors = Vec::new();
    let mut matched = 0;
    for cell in &report.cells {
        let id = format!("{}/{}/{}", cell.variant, cell.fault, cell.path);
        check_latency_run(&mut pass, &id, cfg.samples_per_cell, &cell.summary);
        // The library lists every cell that breaks its variant's bound.
        let violation = report
            .violations
            .iter()
            .find(|v| v.starts_with(&format!("{id}:")));
        matched += usize::from(violation.is_some());
        pass.checks.band_check(violation.is_none(), || {
            violation.cloned().unwrap_or_default()
        });
        pass.events += cell.events;
        let part = match (cell.variant.as_str(), cell.path.as_str()) {
            ("modern-all", _) => "modern_storm",
            (_, "rcim") => "rcim_shielded",
            _ => "redhawk_shielded",
        };
        pass.events_by_part.push((part, cell.events));
        // The classic-2.4 baseline RCIM cell is Figure 7's configuration.
        // Its realfeel cell is not compared: it is not Figure 6's set-up,
        // and its worst case (~25 µs) is nowhere near the figure's 0.565 ms.
        if cell.variant == "classic-2.4" && cell.fault == "baseline" && cell.path == "rcim" {
            errors.extend(fig7_pairs(&cell.summary));
        }
    }
    pass.checks.check(matched == report.violations.len(), || {
        format!(
            "band violations not tied to a cell: {:?}",
            report.violations
        )
    });
    pass.paper_error_pct = mean_error_pct(&errors);
    let mut digest = Digest::default();
    digest.add(&report);
    pass.digest = digest.value();
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn different_seeds_generate_different_inputs() {
        for w in Workload::ALL {
            assert_eq!(
                Inputs::generate(w, 7),
                Inputs::generate(w, 7),
                "{}",
                w.name()
            );
            assert_ne!(
                Inputs::generate(w, 7),
                Inputs::generate(w, 8),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn seed_zero_runs_the_committed_configs() {
        let Inputs::Paper(p) = Inputs::generate(Workload::PaperFigures, 0) else {
            panic!("paper inputs")
        };
        assert_eq!(p.fig5, RealfeelConfig::fig5_vanilla());
        assert_eq!(p.fig7, RcimConfig::fig7_redhawk_shielded());
        assert_eq!(p.determinism[0], DeterminismConfig::fig1_vanilla_ht());
    }

    /// A result pushed out of its band is a band miss, and a failed check
    /// once the bands are gated (as on the reference seed).
    #[test]
    fn injected_out_of_band_result_is_a_failure() {
        let cfg = RcimConfig::fig7_redhawk_shielded().with_samples(1_000);
        let (mut r, traces) = run_rcim_with_flight(&cfg, FLIGHT_TOP_K);
        let mut clean = Pass::default();
        check_fig7(&mut clean, cfg.samples, &r, &traces);
        r.summary.max = Nanos::from_us(45);
        let mut injected = Pass::default();
        check_fig7(&mut injected, cfg.samples, &r, &traces);
        assert_eq!(
            injected.checks.band_misses.len(),
            clean.checks.band_misses.len() + 1
        );
        clean.checks.gate_bands();
        injected.checks.gate_bands();
        assert_eq!(injected.checks.attempted, clean.checks.attempted);
        assert!(injected.checks.failed() > clean.checks.failed());
        assert!(injected
            .checks
            .failures
            .iter()
            .any(|f| f.contains("fig7: 45")));
    }

    #[test]
    fn paper_error_is_the_mean_relative_error() {
        let e = mean_error_pct(&[(11.0, 10.0), (30.0, 20.0), (8.0, 10.0)]);
        assert!((e - 80.0 / 3.0).abs() < 1e-9, "{e}");
    }
}
