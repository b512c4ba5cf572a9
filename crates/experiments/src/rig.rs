//! The measured-path rig: the one stress-kernel simulation every latency
//! experiment measures, the warm-then-fork step on top of it, and the group
//! engine both fault matrices are declarations over.
//!
//! Every experiment measures one of the paper's two interrupt paths —
//! realfeel blocking in `read(/dev/rtc)` (§6.1–6.2, Figures 5–6) or the
//! RCIM waiter blocking in `ioctl()` (§6.3, Figure 7) — under some kernel,
//! shield and fault. A [`Rig`] declares exactly that: the path, the
//! [`KernelConfig`], the faults registered disarmed, the task name and the
//! [`Placement`]. [`Rig::build`] turns it into a ready-to-sample simulator;
//! two builds with the same seed are interchangeable, which is what lets a
//! [`Warm`] checkpoint taken in one restore into the other.
//!
//! Two kinds of fork leave a warm checkpoint (see [`Fork`]): figure shards
//! and sweep cells reseed every RNG stream and drop the shared warm-up
//! samples; matrix cells keep the warm stream and samples and arm a fault.
//!
//! The matrix engine ([`run_matrix`]) runs any list of [`Group`]s in three
//! flattened fleet phases: A warms every `(group, shard)`, B forks every
//! `(group, cell, shard)` (plus an optional side job riding in the same
//! batch), C merges each group's cells in index order. Output is a pure
//! function of the groups, whatever the worker count.

use simcore::Nanos;
use sp_core::ShieldPlan;
use sp_devices::{DiskDevice, GpuDevice, NicDevice, OnOffPoisson, RcimDevice, RtcDevice};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_inject::{Armory, FaultKind, FaultSpec};
use sp_kernel::{
    Checkpoint, KernelConfig, Op, Pid, Program, SchedPolicy, Simulator, TaskSpec, WaitApi,
    WorstCaseTrace,
};
use sp_metrics::{LatencyHistogram, LatencySummary};
use sp_workloads::{stress_kernel, ttcp_ethernet_profile, x11perf_driver, StressDevices};

/// The interrupt path a rig measures, with its machine and background load.
#[derive(Debug, Clone, Copy)]
pub(crate) enum MeasuredPath {
    /// §6.1: realfeel in `read(/dev/rtc)` at `hz` on the dual P3, under
    /// stress-kernel with the NIC handling broadcast traffic.
    Rtc { hz: u32 },
    /// §6.3: the RCIM waiter in `ioctl()` on the dual P4, under
    /// stress-kernel + X11perf + a ttcp stream. `modern_card` swaps in the
    /// PCIe-attached [`RcimDevice::modern`].
    Rcim { period: Nanos, bkl_free: bool, modern_card: bool },
}

impl MeasuredPath {
    /// The interrupt period: one sample is expected per period.
    fn period(self) -> Nanos {
        match self {
            MeasuredPath::Rtc { hz } => Nanos(1_000_000_000 / hz as u64),
            MeasuredPath::Rcim { period, .. } => period,
        }
    }
}

/// Where the measured task and its interrupt run.
#[derive(Debug)]
pub(crate) enum Placement {
    /// Task and interrupt float (Figure 5).
    Free,
    /// Task and interrupt bound into this shield, applied after start.
    Shield(ShieldPlan),
    /// Task and interrupt affinity pinned to one CPU, no shield.
    Pinned(CpuId),
}

impl Placement {
    /// The figures' placement: a full shield of `cpu` when set, else free.
    pub(crate) fn figure(shield: Option<u32>) -> Placement {
        match shield {
            Some(cpu) => Placement::Shield(ShieldPlan::cpu(CpuId(cpu))),
            None => Placement::Free,
        }
    }
}

/// How `run_for` chunks track the remaining budget and when the waiter
/// counts as starved. The chunk floor and ceiling decide how far a run
/// overshoots its budget, so each caller keeps its own fixed pace.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pace {
    chunk_floor: u64,
    chunk_ceiling: u64,
    /// Starvation deadline, in periods per requested sample.
    starve_factor: f64,
}

/// Figures 5–6 and the sweep.
pub(crate) const REALFEEL_PACE: Pace =
    Pace { chunk_floor: 1_024, chunk_ceiling: 32_768, starve_factor: 4.0 };
/// Figure 7.
pub(crate) const RCIM_PACE: Pace =
    Pace { chunk_floor: 1_024, chunk_ceiling: 16_384, starve_factor: 4.0 };
/// Matrix cells: faulted unshielded cells legitimately lose long stretches
/// to the injector, hence the generous deadline.
pub(crate) const MATRIX_PACE: Pace =
    Pace { chunk_floor: 512, chunk_ceiling: 16_384, starve_factor: 64.0 };

/// The CPU every matrix cell binds its measured task and interrupt to.
pub(crate) const MEASURED_CPU: CpuId = CpuId(1);

/// One measured-path simulation, declared.
#[derive(Debug)]
pub(crate) struct Rig {
    pub(crate) path: MeasuredPath,
    pub(crate) kernel: KernelConfig,
    /// Registered disarmed in every build (adapted by [`cell_fault`]), so a
    /// checkpoint restores into any sibling cell's simulator; a disarmed
    /// injector schedules no events.
    pub(crate) faults: Vec<FaultSpec>,
    pub(crate) task: &'static str,
    pub(crate) placement: Placement,
    pub(crate) pace: Pace,
}

/// Fault adaptation per placement: with the measured CPU pinned but not
/// shielded, task faults pin onto it (nothing keeps a rogue off an
/// unshielded CPU); otherwise they float and the shield strips them. Device
/// faults keep default affinity either way.
pub(crate) fn cell_fault(spec: &FaultSpec, placement: &Placement) -> FaultSpec {
    let mut out = spec.clone();
    if let Placement::Pinned(cpu) = placement {
        if let FaultKind::LockHolder { pin, .. } | FaultKind::CpuHog { pin, .. } = &mut out.kind {
            *pin = Some(CpuMask::single(*cpu).to_string());
        }
    }
    out
}

impl Rig {
    /// Build a ready-to-sample simulation: machine, devices, background
    /// load, disarmed faults, the measured task (watched), then the
    /// placement. Deterministic per `(self, seed)`.
    fn build(&self, seed: u64) -> (Simulator, Armory, Pid) {
        let machine = match self.path {
            MeasuredPath::Rtc { .. } => MachineConfig::dual_xeon_p3(),
            MeasuredPath::Rcim { .. } => MachineConfig::dual_xeon_p4_2ghz(),
        };
        let mut sim = Simulator::new(machine, self.kernel.clone(), seed);
        let (device, api) = match self.path {
            MeasuredPath::Rtc { hz } => {
                let rtc = sim.add_device(RtcDevice::new(hz));
                // §6.1: no generated Ethernet load, but the box stays on a
                // live network segment handling broadcast traffic.
                let nic = sim
                    .add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(20)))));
                let disk = sim.add_device(DiskDevice::new());
                stress_kernel(&mut sim, StressDevices { nic, disk });
                (rtc, WaitApi::ReadDevice)
            }
            MeasuredPath::Rcim { period, bkl_free, modern_card } => {
                let card =
                    if modern_card { RcimDevice::modern(period) } else { RcimDevice::new(period) };
                let rcim = sim.add_device(card);
                // §6.3 load: ttcp across a real 10BaseT link + graphics.
                let nic = sim.add_device(NicDevice::new(Some(ttcp_ethernet_profile())));
                let disk = sim.add_device(DiskDevice::new());
                sim.add_device(GpuDevice::x11perf());
                stress_kernel(&mut sim, StressDevices { nic, disk });
                x11perf_driver(&mut sim);
                (rcim, WaitApi::IoctlWait { driver_bkl_free: bkl_free })
            }
        };

        let mut armory = Armory::new();
        for f in &self.faults {
            armory.register(&mut sim, &cell_fault(f, &self.placement)).expect("fault registers");
        }

        let prog = Program::forever(vec![Op::WaitIrq { device, api }]);
        let mut spec = TaskSpec::new(self.task, SchedPolicy::fifo(90), prog).mlockall();
        match &self.placement {
            Placement::Free => {}
            Placement::Shield(plan) => spec = spec.pinned(plan.shielded_cpus()),
            Placement::Pinned(cpu) => spec = spec.pinned(CpuMask::single(*cpu)),
        }
        let pid = sim.spawn(spec);
        sim.watch_latency(pid);
        sim.start();

        match &self.placement {
            Placement::Free => {}
            Placement::Shield(plan) => {
                plan.clone().bind_task(pid).bind_irq(device).apply(&mut sim).expect("shield plan");
            }
            Placement::Pinned(cpu) => {
                sim.set_irq_affinity(device, CpuMask::single(*cpu)).expect("irq affinity");
            }
        }
        (sim, armory, pid)
    }

    /// Advance `sim` until `pid` has at least `target` latency samples in
    /// total (restored warm-up samples count). Chunks track the remaining
    /// budget at the rig's pace; chunking only decides where the event loop
    /// pauses, never the trajectory.
    fn collect(&self, sim: &mut Simulator, pid: Pid, target: u64) {
        let period = self.path.period();
        let pace = self.pace;
        let deadline = sim.now() + period.scale(pace.starve_factor * target as f64);
        loop {
            let have = sim.obs.latencies(pid).len() as u64;
            if have >= target {
                break;
            }
            assert!(sim.now() < deadline, "{} starved: {have} samples", self.task);
            sim.run_for(period * (target - have).clamp(pace.chunk_floor, pace.chunk_ceiling));
        }
    }

    /// Collect from the current instant to `target` samples and distill the
    /// stretch into a [`Shot`].
    fn shoot(&self, sim: &mut Simulator, pid: Pid, target: u64) -> Shot {
        let (start, start_events) = (sim.now(), sim.events_dispatched());
        self.collect(sim, pid, target);
        let mut histogram = LatencyHistogram::new();
        for &l in sim.obs.latencies(pid) {
            histogram.record(l);
        }
        let periods = sim.now().since(start).as_ns() / self.path.period().as_ns();
        Shot {
            overruns: periods.saturating_sub(histogram.count()),
            events: sim.events_dispatched() - start_events,
            traces: sim.flight.top().to_vec(),
            histogram,
        }
    }

    /// One cold simulation on `seed`, flight recorder armed from the start
    /// when `flight_top_k > 0` (pure observation either way).
    pub(crate) fn run_cold(&self, seed: u64, samples: u64, flight_top_k: usize) -> Shot {
        let (mut sim, _armory, pid) = self.build(seed);
        if flight_top_k > 0 {
            sim.arm_flight(flight_top_k);
        }
        self.shoot(&mut sim, pid, samples)
    }

    /// Build on `seed`, run to `target` samples of steady state, checkpoint.
    /// A pure function of `(self, seed, target)`.
    pub(crate) fn warm(&self, seed: u64, target: u64) -> Warm {
        let (mut sim, _armory, pid) = self.build(seed);
        self.collect(&mut sim, pid, target);
        let samples = sim.obs.latencies(pid).len() as u64;
        Warm { ck: sim.checkpoint(), seed, pid, events: sim.events_dispatched(), samples }
    }

    /// Fork off `warm`: rebuild on the warm seed, restore, depart as `fork`
    /// says, then arm the flight recorder, so captured windows cover only
    /// the forked stretch. Then collect to `target` samples in total.
    pub(crate) fn run_fork(
        &self,
        warm: &Warm,
        fork: Fork<'_>,
        target: u64,
        flight_top_k: usize,
    ) -> Shot {
        let (mut sim, mut armory, pid) = self.build(warm.seed);
        debug_assert_eq!(pid, warm.pid, "warm and fork builds must agree on the measured task");
        sim.restore(&warm.ck);
        match fork {
            Fork::Reseed(seed) => {
                sim.reseed(seed);
                sim.obs.reset_samples();
            }
            Fork::Arm(fault) => {
                if let Some(name) = fault {
                    armory.arm(&mut sim, name).expect("arm");
                }
            }
        }
        if flight_top_k > 0 {
            sim.arm_flight(flight_top_k);
        }
        self.shoot(&mut sim, pid, target)
    }

    /// The sharded figure run: one shard is the cold run on `seed`; K > 1
    /// warms once on `seed` and forks K reseeded shards (seeds from
    /// [`crate::shard::shard_seeds`]) on the fleet, the warm-up's events
    /// accounted once on shard 0. Shards come back in index order.
    pub(crate) fn run_shards(
        &self,
        seed: u64,
        samples: u64,
        shards: u32,
        flight_top_k: usize,
    ) -> Vec<Shot> {
        let shards = crate::shard::effective_shards(shards, samples);
        if shards <= 1 {
            return vec![self.run_cold(seed, samples, flight_top_k)];
        }
        let seeds = crate::shard::shard_seeds(seed, shards);
        let budgets = crate::shard::split_samples(samples, shards);
        let warm = self.warm(seed, (samples / shards as u64 / 8).clamp(256, 4_096));
        let mut outputs = crate::shard::run_indexed(shards as usize, |i| {
            self.run_fork(&warm, Fork::Reseed(seeds[i]), budgets[i], flight_top_k)
        });
        outputs[0].events += warm.events;
        outputs
    }
}

/// A warmed simulation distilled to what a fork needs. Cloning is an `Arc`
/// bump, which lets the sweep's warm cache hand one entry to many cells.
#[derive(Clone)]
pub(crate) struct Warm {
    ck: Checkpoint,
    /// The build seed: forks rebuild on it so their shells match.
    seed: u64,
    pid: Pid,
    /// Events the warm-up dispatched.
    pub(crate) events: u64,
    /// Samples the warm-up collected.
    samples: u64,
}

/// How a fork departs from its warm checkpoint.
pub(crate) enum Fork<'a> {
    /// Reseed every RNG stream and drop the warm-up samples, which were
    /// drawn on shared randomness (figure shards, sweep cells).
    Reseed(u64),
    /// Keep the warm stream and samples and arm this fault; `None` is the
    /// baseline (matrix cells).
    Arm(Option<&'a str>),
}

/// One sampled stretch: from a cold start or from a fork.
pub(crate) struct Shot {
    pub(crate) histogram: LatencyHistogram,
    /// Periods of the stretch without a sample of its own.
    pub(crate) overruns: u64,
    /// Events dispatched during the stretch.
    pub(crate) events: u64,
    /// Worst windows the flight recorder captured (empty when disarmed).
    pub(crate) traces: Vec<WorstCaseTrace>,
}

impl Shot {
    /// Merge shots in order: histograms merge, counts add, traces merge
    /// into one top-K (ties toward the earlier shot).
    pub(crate) fn merge(shots: impl IntoIterator<Item = Shot>, top_k: usize) -> Shot {
        let mut merged =
            Shot { histogram: LatencyHistogram::new(), overruns: 0, events: 0, traces: Vec::new() };
        let mut per_shot = Vec::new();
        for shot in shots {
            merged.histogram.merge(&shot.histogram);
            merged.overruns += shot.overruns;
            merged.events += shot.events;
            per_shot.push(shot.traces);
        }
        merged.traces = crate::flight::merge_top(per_shot, top_k);
        merged
    }
}

/// Deterministic per-group root seed (groups are independent experiments;
/// each then applies the shard-seed contract internally).
fn group_seed(base: u64, index: u64) -> u64 {
    base ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// One matrix group: a rig whose cells are the baseline plus each of its
/// faults, with per-shard seeds and budgets that are pure functions of
/// `(base_seed, index, samples_per_cell, shards)`.
pub(crate) struct Group {
    rig: Rig,
    seeds: Vec<u64>,
    budgets: Vec<u64>,
}

/// One merged matrix cell, in the group's cell order.
pub(crate) struct CellOutcome {
    /// Fault name, or `"baseline"`.
    pub(crate) fault: String,
    pub(crate) summary: LatencySummary,
    pub(crate) events: u64,
    pub(crate) traces: Vec<WorstCaseTrace>,
}

impl Group {
    pub(crate) fn plan(
        rig: Rig,
        base_seed: u64,
        index: u64,
        samples_per_cell: u64,
        shards: u32,
    ) -> Group {
        let shards = crate::shard::effective_shards(shards, samples_per_cell);
        Group {
            rig,
            seeds: crate::shard::shard_seeds(group_seed(base_seed, index), shards),
            budgets: crate::shard::split_samples(samples_per_cell, shards),
        }
    }

    fn shards(&self) -> usize {
        self.seeds.len()
    }

    fn cells(&self) -> usize {
        self.rig.faults.len() + 1
    }

    /// Warm one shard fault-free to a quarter of its budget.
    fn warm(&self, shard: usize) -> Warm {
        self.rig.warm(self.seeds[shard], self.budgets[shard] / 4)
    }

    /// Fork one `(cell, shard)` from its shard's warm checkpoint, arm the
    /// cell's fault (baseline arms nothing) and sample the remaining three
    /// quarters of the budget on top of whatever the warm-up collected, so
    /// every cell samples its faulted regime even when the warm-up
    /// overshot. Warm-up samples count toward every cell; the warm-up's
    /// events count toward the baseline cell only.
    fn run_cell(&self, warm: &Warm, cell: usize, shard: usize, top_k: usize) -> Shot {
        let fault = cell.checked_sub(1).map(|f| self.rig.faults[f].name.as_str());
        let budget = self.budgets[shard];
        let mut shot =
            self.rig.run_fork(warm, Fork::Arm(fault), warm.samples + (budget - budget / 4), top_k);
        if cell == 0 {
            shot.events += warm.events;
        }
        shot
    }

    /// Merge the group's `cells × shards` outputs (laid out `cell * shards
    /// + shard`) into per-cell outcomes, shard order within each cell.
    fn merge(&self, outputs: impl IntoIterator<Item = Shot>, top_k: usize) -> Vec<CellOutcome> {
        let mut outputs = outputs.into_iter();
        (0..self.cells())
            .map(|cell| {
                let shot = Shot::merge(outputs.by_ref().take(self.shards()), top_k);
                CellOutcome {
                    fault: match cell {
                        0 => "baseline".to_string(),
                        _ => self.rig.faults[cell - 1].name.clone(),
                    },
                    summary: LatencySummary::from_histogram(&shot.histogram),
                    events: shot.events,
                    traces: shot.traces,
                }
            })
            .collect()
    }
}

enum MatrixJob<X> {
    Cell(Shot),
    Side(X),
}

/// Run every group's cells, flattened across the whole matrix: phase A
/// warms every `(group, shard)` in one fleet batch; phase B forks every
/// `(group, cell, shard)` in one batch, with `side` (if any) riding as the
/// batch's last job so idle workers pick it up; phase C merges each group's
/// cells in index order. Returns each group's cells in group order, plus
/// the side job's output. Every cell is bit-identical to
/// [`run_group_serial`]'s.
pub(crate) fn run_matrix<X: Send>(
    groups: &[Group],
    top_k: usize,
    side: Option<&(dyn Fn() -> X + Sync)>,
) -> (Vec<Vec<CellOutcome>>, Option<X>) {
    let (shards, cells) = (groups[0].shards(), groups[0].cells());
    debug_assert!(groups.iter().all(|g| g.shards() == shards && g.cells() == cells));

    let warm =
        crate::shard::run_indexed(groups.len() * shards, |j| groups[j / shards].warm(j % shards));

    let per_group = cells * shards;
    let total = groups.len() * per_group;
    let outputs = crate::shard::run_indexed(total + usize::from(side.is_some()), |j| match side {
        Some(side) if j == total => MatrixJob::Side(side()),
        _ => {
            let (group, rem) = (j / per_group, j % per_group);
            let (cell, shard) = (rem / shards, rem % shards);
            MatrixJob::Cell(groups[group].run_cell(
                &warm[group * shards + shard],
                cell,
                shard,
                top_k,
            ))
        }
    });

    let mut side_out = None;
    let mut shots = Vec::with_capacity(total);
    for out in outputs {
        match out {
            MatrixJob::Cell(shot) => shots.push(shot),
            MatrixJob::Side(x) => side_out = Some(x),
        }
    }
    let mut shots = shots.into_iter();
    let cells = groups.iter().map(|g| g.merge(shots.by_ref().take(per_group), top_k)).collect();
    (cells, side_out)
}

/// The serial reference for one group: its warms, then its `cells ×
/// shards` forks, then the merge — the path [`run_matrix`]'s flattened
/// batches must reproduce cell for cell.
#[cfg(test)]
pub(crate) fn run_group_serial(group: &Group, top_k: usize) -> Vec<CellOutcome> {
    let shards = group.shards();
    let warm = crate::shard::run_indexed(shards, |i| group.warm(i));
    let outputs = crate::shard::run_indexed(group.cells() * shards, |j| {
        group.run_cell(&warm[j % shards], j / shards, j % shards, top_k)
    });
    group.merge(outputs, top_k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultmatrix::{self, FaultMatrixConfig, MatrixPath};
    use crate::modernmax::{self, ModernConfig, ModernVariant};

    /// Comparable form of a cell list for the equality tests.
    fn cells_json(cells: &[CellOutcome]) -> String {
        #[derive(serde::Serialize)]
        struct Row<'a>(&'a str, &'a LatencySummary, u64, Vec<(u64, usize)>);
        let rows: Vec<Row<'_>> = cells
            .iter()
            .map(|c| {
                let traces = c.traces.iter().map(|t| (t.latency.as_ns(), t.events.len())).collect();
                Row(&c.fault, &c.summary, c.events, traces)
            })
            .collect();
        serde_json::to_string(&rows).unwrap()
    }

    /// A fork — rebuild, restore, arm the first fault if the rig has any —
    /// is bit-identical to continuing the warm simulation and arming the
    /// same fault there: latencies, clock and event count alike. Covers the
    /// figure rig and both matrices' rigs, every modern variant included.
    #[test]
    fn fork_is_bit_identical_to_continuing_the_warm_sim() {
        let mut rigs = vec![
            ("fig6".to_string(), crate::RealfeelConfig::fig6_redhawk_shielded().rig(), 0xF166_5EED),
            (
                "fault matrix".to_string(),
                faultmatrix::rig(MatrixPath::Realfeel, false),
                0xFA17_5EED,
            ),
        ];
        for variant in ModernVariant::ALL {
            rigs.push((
                variant.name().to_string(),
                modernmax::rig(variant, MatrixPath::Rcim),
                0xA0DE_125EED,
            ));
        }
        for (label, rig, seed) in rigs {
            let (mut warm, mut warm_armory, pid) = rig.build(seed);
            rig.collect(&mut warm, pid, 400);
            let ck = warm.checkpoint();

            let (mut fork, mut fork_armory, fork_pid) = rig.build(seed);
            fork.restore(&ck);
            assert_eq!(fork_pid, pid, "{label}");
            assert_eq!(fork.now(), warm.now(), "{label}");

            if let Some(f) = rig.faults.first() {
                warm_armory.arm(&mut warm, &f.name).expect("arm warm");
                fork_armory.arm(&mut fork, &f.name).expect("arm fork");
            }
            rig.collect(&mut warm, pid, 1_200);
            rig.collect(&mut fork, fork_pid, 1_200);

            assert_eq!(warm.now(), fork.now(), "{label}");
            assert_eq!(warm.events_dispatched(), fork.events_dispatched(), "{label}");
            assert_eq!(warm.obs.latencies(pid), fork.obs.latencies(fork_pid), "{label}");
        }
    }

    /// The flattened batches produce exactly the cells the serial
    /// group-by-group reference produces, for both matrices.
    #[test]
    fn flattened_matrix_matches_group_by_group() {
        let matrices = [
            faultmatrix::groups(&FaultMatrixConfig {
                samples_per_cell: 800,
                shards: 2,
                seed: 0xFA17_5EED,
            }),
            modernmax::groups(&ModernConfig {
                samples_per_cell: 600,
                shards: 2,
                seed: 0xA0DE_125EED,
            }),
        ];
        for groups in &matrices {
            let (flat, side) = run_matrix(groups, 1, Some(&|| 7u8));
            assert_eq!(side, Some(7));
            for (group, cells) in groups.iter().zip(&flat) {
                assert_eq!(cells_json(cells), cells_json(&run_group_serial(group, 1)));
            }
        }
    }
}
