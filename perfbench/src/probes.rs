//! Per-layer probes. Each one times calls into one crate's public functions
//! at the operating point the simulator runs them at. Seeds are fixed, so
//! every exact counter a probe reports repeats run to run; only the host
//! times move.

use crate::stats::median;
use crate::trace::Tracer;
use simcore::{DurationDist, Instant, Nanos, SimRng, WheelQueue};
use sp_core::ShieldPlan;
use sp_devices::{DiskDevice, GpuDevice, NicDevice, OnOffPoisson, RcimDevice, RtcDevice};
use sp_hw::{CpuId, CpuMask, IrqLine, MachineConfig};
use sp_inject::{matrix_presets, Armory, INJECT_LINE_BASE};
use sp_kernel::{
    DeviceId, KernelConfig, KernelVariant, Op, Pid, Program, SchedPolicy, Simulator, TaskSpec,
    WaitApi,
};
use sp_metrics::LatencyHistogram;
use sp_workloads::{stress_kernel, ttcp_ethernet_profile, x11perf_driver, StressDevices};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant as HostInstant;

/// Probe results by metric name.
pub type Values = BTreeMap<String, f64>;

/// Timed rounds per probe; each probe reports the median round.
const ROUNDS: usize = 5;
/// The shielded CPU of every shielded probe (the paper's CPU 1).
const SHIELDED: CpuId = CpuId(1);
/// The simulator draws in chunks of this many values.
const BATCH: usize = 32;

/// The four kernel probes, named for the figure shape they reproduce.
pub const KERNEL_PROBES: [&str; 4] = [
    "vanilla",
    "redhawk_shielded",
    "rcim_shielded",
    "modern_storm",
];

/// Devices whose interrupt counts the kernel probes report.
pub const DEVICES: [&str; 5] = ["rtc", "rcim", "nic", "disk", "gpu"];

/// A probe simulator: started, shielded where its figure is, with the
/// measured task watched.
pub struct ProbeSim {
    pub sim: Simulator,
    pub pid: Pid,
    /// `(device name, id)` for the interrupt counters.
    pub devices: Vec<(&'static str, DeviceId)>,
    /// The measured device's period (one sample per period).
    pub period: Nanos,
    /// The shield this shape applies, bound to the measured task and device.
    pub plan: Option<ShieldPlan>,
}

/// Build the simulator of probe `shape` without applying its shield.
pub fn build(shape: &str, seed: u64) -> ProbeSim {
    let (machine, kernel) = match shape {
        "vanilla" => (
            MachineConfig::dual_xeon_p3(),
            KernelConfig::new(KernelVariant::Vanilla24),
        ),
        "redhawk_shielded" => (
            MachineConfig::dual_xeon_p3(),
            KernelConfig::new(KernelVariant::RedHawk),
        ),
        "rcim_shielded" => (
            MachineConfig::dual_xeon_p4_2ghz(),
            KernelConfig::new(KernelVariant::RedHawk),
        ),
        "modern_storm" => (MachineConfig::dual_xeon_p4_2ghz(), KernelConfig::modern()),
        other => panic!("unknown probe shape {other}"),
    };
    let mut sim = Simulator::new(machine, kernel, seed);
    let realfeel = matches!(shape, "vanilla" | "redhawk_shielded");
    let (measured, nic, disk, mut devices) = if realfeel {
        // Figures 5 and 6: RTC at 2048 Hz, broadcast-only network, disk.
        let rtc = sim.add_device(RtcDevice::new(2048));
        let nic = sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(
            Nanos::from_ms(20),
        ))));
        let disk = sim.add_device(DiskDevice::new());
        (rtc, nic, disk, vec![("rtc", rtc)])
    } else {
        // Figure 7: RCIM at 1 kHz, ttcp over Ethernet, X11perf graphics.
        let rcim = if shape == "modern_storm" {
            sim.add_device(RcimDevice::modern(Nanos::from_ms(1)))
        } else {
            sim.add_device(RcimDevice::new(Nanos::from_ms(1)))
        };
        let nic = sim.add_device(NicDevice::new(Some(ttcp_ethernet_profile())));
        let disk = sim.add_device(DiskDevice::new());
        let gpu = sim.add_device(GpuDevice::x11perf());
        (rcim, nic, disk, vec![("rcim", rcim), ("gpu", gpu)])
    };
    devices.extend([("nic", nic), ("disk", disk)]);
    stress_kernel(&mut sim, StressDevices { nic, disk });
    if !realfeel {
        x11perf_driver(&mut sim);
    }
    let mut armory = Armory::new();
    if shape == "modern_storm" {
        let storm = matrix_presets().into_iter().find(|f| f.name == "irq_storm");
        armory
            .register(&mut sim, &storm.expect("irq_storm preset"))
            .expect("storm registers");
    }

    let api = if realfeel {
        WaitApi::ReadDevice
    } else {
        WaitApi::IoctlWait {
            driver_bkl_free: true,
        }
    };
    let prog = Program::forever(vec![Op::WaitIrq {
        device: measured,
        api,
    }]);
    let mut spec = TaskSpec::new("measured", SchedPolicy::fifo(90), prog).mlockall();
    let shielded = shape != "vanilla";
    if shielded {
        spec = spec.pinned(CpuMask::single(SHIELDED));
    }
    let pid = sim.spawn(spec);
    sim.watch_latency(pid);
    sim.start();
    if shape == "modern_storm" {
        armory.arm(&mut sim, "irq_storm").expect("storm arms");
    }
    let plan = shielded.then(|| {
        let plan = ShieldPlan::cpu(SHIELDED).bind_task(pid).bind_irq(measured);
        match shape {
            "modern_storm" => plan.keep_local_timer().fence_kthreads(),
            _ => plan,
        }
    });
    let period = if realfeel {
        Nanos(1_000_000_000 / 2048)
    } else {
        Nanos::from_ms(1)
    };
    ProbeSim {
        sim,
        pid,
        devices,
        period,
        plan,
    }
}

/// Build probe `shape` with its shield applied.
pub fn build_shielded(shape: &str, seed: u64) -> ProbeSim {
    let mut p = build(shape, seed);
    if let Some(plan) = &p.plan {
        plan.apply(&mut p.sim).expect("probe shield plan");
    }
    p
}

/// Simulated time each kernel probe warms up before its timed rounds.
const KERNEL_WARM: Nanos = Nanos::from_ms(200);
/// Simulated time of one timed round (~0.1 s of host time per round).
const KERNEL_ROUND: Nanos = Nanos::from_ms(3_000);

/// Host ns per event of `p.sim.run_for(KERNEL_ROUND)`, one value per round,
/// plus the events the rounds dispatched.
fn time_rounds(p: &mut ProbeSim, tracer: &mut Tracer, name: &str) -> (Vec<f64>, u64) {
    let first = p.sim.events_dispatched();
    let per_round = (0..ROUNDS)
        .map(|_| {
            let e0 = p.sim.events_dispatched();
            let t = HostInstant::now();
            tracer.span("kernel", name, || p.sim.run_for(KERNEL_ROUND));
            t.elapsed().as_secs_f64() * 1e9 / (p.sim.events_dispatched() - e0).max(1) as f64
        })
        .collect();
    (per_round, p.sim.events_dispatched() - first)
}

/// `kernel.*`, `devices.*` and `inject.*`: host ns per event on each probe
/// shape, and the exact simulated counters the probes accumulate.
pub fn kernel(tracer: &mut Tracer, out: &mut Values) {
    let mut device_irqs: BTreeMap<&str, u64> = DEVICES.iter().map(|d| (*d, 0)).collect();
    for (i, shape) in KERNEL_PROBES.into_iter().enumerate() {
        let mut p = build_shielded(shape, 0x9B0B_0000 + i as u64);
        p.sim.run_for(KERNEL_WARM);
        let (ns, events) = time_rounds(&mut p, tracer, shape);
        out.insert(format!("kernel.ns_per_event.{shape}"), median(&ns));
        let sim_ms = (KERNEL_ROUND.as_ns() * ROUNDS as u64) as f64 / 1e6;
        out.insert(
            format!("kernel.events_per_sim_ms.{shape}"),
            events as f64 / sim_ms,
        );

        let cpu = &p.sim.obs.cpu;
        let sum = |f: &dyn Fn(&sp_kernel::CpuAccounting) -> u64| cpu.iter().map(f).sum::<u64>();
        let occupancy: [(&str, u64); 8] = [
            ("isr_ns", sum(&|c| c.isr.as_ns())),
            ("softirq_ns", sum(&|c| c.softirq.as_ns())),
            ("tick_ns", sum(&|c| c.tick.as_ns())),
            ("spin_ns", sum(&|c| c.spin.as_ns())),
            ("irq_thread_ns", sum(&|c| c.irq_thread.as_ns())),
            ("irqs", sum(&|c| c.irqs)),
            ("switches", sum(&|c| c.switches)),
            ("ticks_elided", sum(&|c| c.ticks_elided)),
        ];
        for (name, v) in occupancy {
            out.insert(format!("kernel.sim.{shape}.{name}"), v as f64);
        }
        let contended: u64 = p
            .sim
            .lock_stats()
            .iter()
            .map(|(_, l)| l.contended_acquisitions)
            .sum();
        out.insert(format!("kernel.lock.contended.{shape}"), contended as f64);
        for (name, dev) in &p.devices {
            *device_irqs.get_mut(name).expect("known device") +=
                p.sim.irq_counts(*dev).iter().sum::<u64>();
        }
        if shape == "modern_storm" {
            let storm = p
                .sim
                .device_by_line(IrqLine(INJECT_LINE_BASE))
                .expect("storm device");
            out.insert(
                "inject.storm.irqs".into(),
                p.sim.irq_counts(storm).iter().sum::<u64>() as f64,
            );
        }
    }
    for (name, n) in device_irqs {
        out.insert(format!("devices.irqs.{name}"), n as f64);
    }
    flight_overhead(tracer, out);
}

/// `kernel.flight_armed_pct`: the same Figure-6 probe run with the top-3
/// flight recorder armed and disarmed, round for round. Arming is pure
/// observation, so both dispatch the same events.
fn flight_overhead(tracer: &mut Tracer, out: &mut Values) {
    let seed = 0xF1_1947;
    let mut off = build_shielded("redhawk_shielded", seed);
    let mut on = build_shielded("redhawk_shielded", seed);
    on.sim.arm_flight(crate::workloads::FLIGHT_TOP_K);
    off.sim.run_for(KERNEL_WARM);
    on.sim.run_for(KERNEL_WARM);
    let pct: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let (t, e) = (HostInstant::now(), off.sim.events_dispatched());
            tracer.span("kernel", "flight_disarmed", || {
                off.sim.run_for(KERNEL_ROUND)
            });
            let disarmed = t.elapsed().as_secs_f64() / (off.sim.events_dispatched() - e) as f64;
            let (t, e) = (HostInstant::now(), on.sim.events_dispatched());
            tracer.span("kernel", "flight_armed", || on.sim.run_for(KERNEL_ROUND));
            let armed = t.elapsed().as_secs_f64() / (on.sim.events_dispatched() - e) as f64;
            (armed / disarmed - 1.0) * 100.0
        })
        .collect();
    assert_eq!(
        on.sim.events_dispatched(),
        off.sim.events_dispatched(),
        "arming the flight recorder changed the trajectory"
    );
    out.insert("kernel.flight_armed_pct".into(), median(&pct));
}

/// Sweep-shaped cells per fork-probe round.
const FORK_CELLS: usize = 24;
/// Samples a sweep cell requests (`SweepConfig::canonical`).
const CELL_SAMPLES: u64 = 1_500;

/// Run a forked cell the way the sweep engine does: chunks of at least
/// 1,024 periods until the requested samples are in.
fn run_cell(p: &mut ProbeSim, samples: u64) {
    loop {
        let have = p.sim.obs.latencies(p.pid).len() as u64;
        if have >= samples {
            break;
        }
        p.sim
            .run_for(p.period * (samples - have).clamp(1_024, 32_768));
    }
}

/// One forked sweep cell: fresh shell, shield, restore, reseed, sample.
/// Returns the host µs of each step and the cell's latency histogram.
fn fork_cell(
    ck: &sp_kernel::Checkpoint,
    seed: u64,
    tracer: &mut Tracer,
) -> ([f64; 5], LatencyHistogram) {
    let us = |t: HostInstant| t.elapsed().as_secs_f64() * 1e6;
    let t = HostInstant::now();
    let mut p = tracer.span("kernel", "build", || build("redhawk_shielded", 0x5EED));
    let build_us = us(t);
    let plan = p.plan.take().expect("shielded shape");
    let t = HostInstant::now();
    tracer
        .span("core", "shield_apply", || plan.apply(&mut p.sim))
        .expect("shield plan");
    let apply_us = us(t);
    let t = HostInstant::now();
    tracer.span("kernel", "restore", || p.sim.restore(ck));
    let restore_us = us(t);
    let t = HostInstant::now();
    tracer.span("kernel", "reseed", || p.sim.reseed(seed));
    let reseed_us = us(t);
    p.sim.obs.reset_samples();
    let t = HostInstant::now();
    tracer.span("kernel", "cell_run_for", || run_cell(&mut p, CELL_SAMPLES));
    let run_us = us(t);
    let mut h = LatencyHistogram::new();
    for &l in p.sim.obs.latencies(p.pid) {
        h.record(l);
    }
    ([build_us, apply_us, restore_us, reseed_us, run_us], h)
}

/// A warm Figure-6 checkpoint, as the sweep's warm cache holds one per
/// group.
fn warm_checkpoint() -> sp_kernel::Checkpoint {
    let mut warm = build_shielded("redhawk_shielded", 0x5EED);
    warm.sim.run_for(warm.period * 512);
    warm.sim.checkpoint()
}

/// `kernel.{build,checkpoint,restore,reseed}_us`, `core.shield_apply_us`
/// and the share of a sweep cell those steps take.
pub fn fork(tracer: &mut Tracer, out: &mut Values) {
    let ck = warm_checkpoint();
    let mut warm = build_shielded("redhawk_shielded", 0x5EED);
    warm.sim.restore(&ck);
    let mut rounds: Vec<[f64; 6]> = Vec::new();
    for round in 0..ROUNDS {
        let mut sum = [0.0; 6];
        for cell in 0..FORK_CELLS {
            let (steps, _) = fork_cell(&ck, (round * FORK_CELLS + cell) as u64, tracer);
            for (s, v) in sum.iter_mut().zip(steps) {
                *s += v;
            }
            // A deep checkpoint: reseeding dirties the warm simulator, so
            // the next checkpoint rebuilds its image instead of sharing it.
            warm.sim.reseed(0x5EED);
            let t = HostInstant::now();
            black_box(tracer.span("kernel", "checkpoint", || warm.sim.checkpoint()));
            sum[5] += t.elapsed().as_secs_f64() * 1e6;
        }
        rounds.push(sum.map(|s| s / FORK_CELLS as f64));
    }
    let col = |i: usize| median(&rounds.iter().map(|r| r[i]).collect::<Vec<_>>());
    out.insert("kernel.build_us".into(), col(0));
    out.insert("core.shield_apply_us".into(), col(1));
    out.insert("kernel.restore_us".into(), col(2));
    out.insert("kernel.reseed_us".into(), col(3));
    out.insert("kernel.checkpoint_us".into(), col(5));
    let overhead: Vec<f64> = rounds
        .iter()
        .map(|r| (r[0] + r[1] + r[2] + r[3]) / (r[0] + r[1] + r[2] + r[3] + r[4]) * 100.0)
        .collect();
    out.insert(
        "experiments.sweep.cell_overhead_pct".into(),
        median(&overhead),
    );
}

/// `simcore.*`: the event wheel at the simulator's live-timer load, batched
/// RNG refills and bounded-Pareto batch draws.
pub fn simcore(tracer: &mut Tracer, out: &mut Values) {
    // A simulation keeps a few dozen timers pending (per-CPU ticks, device
    // periods, task timers) up to one 10 ms jiffy ahead.
    const LIVE: usize = 64;
    const HORIZON_NS: u64 = 10_000_000;
    const OPS: usize = 400_000;
    let mut push_pop = Vec::new();
    let mut cancel = Vec::new();
    let mut fill = Vec::new();
    let mut pareto = Vec::new();
    for round in 0..ROUNDS as u64 {
        let mut rng = SimRng::new(0x51C0 + round);
        let mut q = WheelQueue::new();
        for _ in 0..LIVE {
            q.push(Instant(rng.next_u64() % HORIZON_NS), 0u32);
        }
        let t = HostInstant::now();
        tracer.span("simcore", "wheel_push_pop", || {
            for _ in 0..OPS {
                let (at, _) = q.pop().expect("queue kept full");
                q.push(Instant(at.as_ns() + 1 + rng.next_u64() % HORIZON_NS), 0u32);
            }
        });
        push_pop.push(t.elapsed().as_secs_f64() * 1e9 / OPS as f64);

        // Cancel: arm a batch of timers among the live ones, then cancel
        // them all (the simulator cancels most timers it arms).
        let (spent, cancelled) = tracer.span("simcore", "wheel_cancel", || {
            let mut spent = 0.0;
            let mut cancelled = 0usize;
            for _ in 0..OPS / LIVE {
                let now = q.peek_time().expect("queue kept full").as_ns();
                let keys: Vec<_> = (0..LIVE)
                    .map(|_| q.push(Instant(now + rng.next_u64() % HORIZON_NS), 1))
                    .collect();
                let t = HostInstant::now();
                for k in keys {
                    cancelled += q.cancel(k) as usize;
                }
                spent += t.elapsed().as_secs_f64();
            }
            (spent, cancelled)
        });
        assert_eq!(cancelled, OPS / LIVE * LIVE);
        cancel.push(spent * 1e9 / cancelled as f64);

        let mut words = [0u64; BATCH];
        let t = HostInstant::now();
        tracer.span("simcore", "rng_fill", || {
            for _ in 0..OPS {
                rng.fill_u64(black_box(&mut words));
            }
        });
        fill.push(t.elapsed().as_secs_f64() * 1e9 / OPS as f64);
        black_box(words);

        // The stress kernel's heavy-tailed service times.
        let dist = DurationDist::bounded_pareto(Nanos::from_us(5), Nanos::from_ms(20), 1.2);
        let mut draws = [Nanos(0); BATCH];
        let t = HostInstant::now();
        tracer.span("simcore", "pareto_batch", || {
            for _ in 0..OPS / 4 {
                dist.sample_into(&mut rng, black_box(&mut draws));
            }
        });
        pareto.push(t.elapsed().as_secs_f64() * 1e9 / (OPS / 4) as f64);
        black_box(draws);
    }
    out.insert("simcore.wheel.push_pop_ns".into(), median(&push_pop));
    out.insert("simcore.wheel.cancel_ns".into(), median(&cancel));
    out.insert("simcore.rng.fill_ns".into(), median(&fill));
    out.insert("simcore.dist.pareto_batch_ns".into(), median(&pareto));
}

/// `metrics.histogram.*`: recording latencies across the simulator's range
/// and merging a cell's histogram into a group aggregate.
pub fn histogram(tracer: &mut Tracer, out: &mut Values) {
    const OPS: usize = 400_000;
    const MERGES: usize = 2_000;
    let mut record = Vec::new();
    let mut merge = Vec::new();
    for round in 0..ROUNDS as u64 {
        let mut rng = SimRng::new(0x4157 + round);
        // 1 µs .. ~100 ms, log-uniform-ish: the span of the paper's figures.
        let values: Vec<Nanos> = (0..OPS)
            .map(|_| Nanos(1_000 + (rng.next_u64() >> (rng.next_u64() % 47 + 17))))
            .collect();
        let mut h = LatencyHistogram::new();
        let t = HostInstant::now();
        tracer.span("metrics", "histogram_record", || {
            for &v in &values {
                h.record(v);
            }
        });
        record.push(t.elapsed().as_secs_f64() * 1e9 / OPS as f64);
        assert_eq!(h.count(), OPS as u64);

        let mut agg = LatencyHistogram::new();
        let t = HostInstant::now();
        tracer.span("metrics", "histogram_merge", || {
            for _ in 0..MERGES {
                agg.merge(black_box(&h));
            }
        });
        merge.push(t.elapsed().as_secs_f64() * 1e6 / MERGES as f64);
        assert_eq!(agg.count(), (OPS * MERGES) as u64);
    }
    out.insert("metrics.histogram.record_ns".into(), median(&record));
    out.insert("metrics.histogram.merge_us".into(), median(&merge));
}

/// `fleet.*`: per-job dispatch cost of no-op jobs, and a `run_stream` batch
/// of sweep-shaped cells on two workers — how busy the workers stay and how
/// long finished cells wait in the reorder window for their predecessors.
pub fn fleet(tracer: &mut Tracer, out: &mut Values) {
    const JOBS: usize = 8_192;
    let mut dispatch = Vec::new();
    for _ in 0..ROUNDS {
        let cfg = sp_fleet::PoolConfig::auto(2);
        let t = HostInstant::now();
        let (jobs, _) = tracer.span("fleet", "run_with_noop", || {
            sp_fleet::run_with(cfg, JOBS, |i| i)
        });
        dispatch.push(t.elapsed().as_secs_f64() * 1e9 / JOBS as f64);
        assert_eq!(jobs.len(), JOBS);
    }
    out.insert("fleet.dispatch_ns".into(), median(&dispatch));

    let ck = warm_checkpoint();
    let mut busy = Vec::new();
    let mut wait = Vec::new();
    for round in 0..3u64 {
        let mut waits_ns = 0u128;
        let mut merged = LatencyHistogram::new();
        let t = HostInstant::now();
        let (n, stats) = tracer.span("fleet", "run_stream_cells", || {
            sp_fleet::run_stream(
                sp_fleet::PoolConfig::auto(2),
                0..2 * FORK_CELLS as u64,
                |cell, _| {
                    let (_, h) = fork_cell(&ck, round << 32 | cell, &mut Tracer::off());
                    (h, HostInstant::now())
                },
                |_, (h, done): (LatencyHistogram, HostInstant)| {
                    waits_ns += done.elapsed().as_nanos();
                    merged.merge(&h);
                },
            )
        });
        let wall_ns = t.elapsed().as_nanos() as f64;
        busy.push(stats.busy_ns as f64 / (wall_ns * stats.workers as f64));
        wait.push(waits_ns as f64 / 1e6 / n as f64);
        assert!(merged.count() >= CELL_SAMPLES * n as u64);
    }
    out.insert("fleet.busy_share".into(), median(&busy));
    out.insert("fleet.reorder_wait_ms".into(), median(&wait));
}
