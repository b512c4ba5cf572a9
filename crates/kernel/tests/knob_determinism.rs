//! Determinism properties of the modern-isolation knobs (`threaded_irqs`,
//! `nohz_full`, `kthread_iso`; docs/KERNELS.md §3).
//!
//! Each knob may legitimately change *which* RNG draws happen (that is the
//! documented caveat), but for a fixed configuration the run must stay a
//! pure function of the seed: checkpoint/fork/restore at any split point is
//! bit-identical to running straight through, and `kthread_iso` with an
//! empty fence mask must be byte-identical to the knob-off run.

use proptest::prelude::*;
use simcore::{DurationDist, Instant, Nanos};
use sp_hw::{CpuId, CpuMask, MachineConfig};
use sp_kernel::devices::{NicDevice, OnOffPoisson, RtcDevice};
use sp_kernel::observe::CpuAccounting;
use sp_kernel::{
    KernelConfig, Op, Pid, Program, SchedPolicy, ShieldCtl, Simulator, TaskSpec, WaitApi,
};

/// Build a two-CPU run with the given knob set: shielded RTC waiter on CPU 1
/// (the shield keeps the local timer so `nohz_full` is load-bearing, and
/// fences kthreads so `kthread_iso` is exercised), NIC softirq traffic and
/// churn on CPU 0.
fn build(seed: u64, knobs: u8) -> (Simulator, Pid) {
    let mut cfg = KernelConfig::redhawk();
    cfg.threaded_irqs = knobs & 1 != 0;
    cfg.nohz_full = knobs & 2 != 0;
    cfg.kthread_iso = knobs & 4 != 0;
    let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), cfg, seed);
    let rtc = sim.add_device(RtcDevice::new(2048));
    sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(10)))));

    let waiter = sim.spawn(
        TaskSpec::new(
            "waiter",
            SchedPolicy::fifo(90),
            Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]),
        )
        .pinned(CpuMask::single(CpuId(1)))
        .mlockall(),
    );
    sim.watch_latency(waiter);
    sim.spawn(
        TaskSpec::new(
            "churn",
            SchedPolicy::nice(0),
            Program::forever(vec![
                Op::Compute(DurationDist::uniform(Nanos::from_us(50), Nanos::from_us(900))),
                Op::Sleep(DurationDist::uniform(Nanos::from_us(20), Nanos::from_us(400))),
            ]),
        )
        .pinned(CpuMask::single(CpuId(0))),
    );
    sim.start();
    let shielded = CpuMask::single(CpuId(1));
    let shield = ShieldCtl {
        procs: shielded,
        irqs: shielded,
        ltmrs: CpuMask::EMPTY, // keep the tick: nohz_full does the eliding
        kthreads: shielded,
    };
    sim.set_shield(shield).expect("shield write");
    (sim, waiter)
}

/// Everything observable about a run, for bit-identity comparison.
fn fingerprint(sim: &Simulator, pid: Pid) -> (Instant, u64, Vec<Nanos>, Vec<CpuAccounting>) {
    (
        sim.now(),
        sim.events_dispatched(),
        sim.obs.latencies(pid).to_vec(),
        sim.obs.cpu.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For every knob combination (including all-off and all-on), forking
    /// from a warm checkpoint and continuing is bit-identical to running
    /// straight through — the knobs keep the fork contract.
    #[test]
    fn every_knob_combination_keeps_the_fork_contract(
        seed in 1u64..1_000,
        knobs in 0u8..8,
        warm_ms in 5u64..30,
        run_ms in 5u64..40,
    ) {
        let (mut straight, pid) = build(seed, knobs);
        straight.run_for(Nanos::from_ms(warm_ms + run_ms));

        let (mut warm, _) = build(seed, knobs);
        warm.run_for(Nanos::from_ms(warm_ms));
        let ck = warm.checkpoint();

        let (mut fork, fork_pid) = build(seed, knobs);
        fork.restore(&ck);
        prop_assert_eq!(fork.now(), warm.now());
        fork.run_for(Nanos::from_ms(run_ms));

        prop_assert_eq!(fingerprint(&fork, fork_pid), fingerprint(&straight, pid));
    }

    /// `kthread_iso` with an *empty* fence mask is byte-identical to the
    /// knob being off — the punt path must not perturb anything until a CPU
    /// is actually fenced (docs/KERNELS.md §3).
    #[test]
    fn kthread_iso_with_empty_mask_is_byte_identical_to_off(
        seed in 1u64..1_000,
        run_ms in 10u64..60,
    ) {
        let run = |iso: bool| {
            let mut cfg = KernelConfig::redhawk();
            cfg.kthread_iso = iso;
            let mut sim = Simulator::new(MachineConfig::dual_xeon_p3(), cfg, seed);
            let rtc = sim.add_device(RtcDevice::new(2048));
            sim.add_device(NicDevice::new(Some(OnOffPoisson::continuous(Nanos::from_ms(10)))));
            let waiter = sim.spawn(
                TaskSpec::new(
                    "waiter",
                    SchedPolicy::fifo(90),
                    Program::forever(vec![Op::WaitIrq { device: rtc, api: WaitApi::ReadDevice }]),
                )
                .pinned(CpuMask::single(CpuId(1)))
                .mlockall(),
            );
            sim.watch_latency(waiter);
            sim.start();
            // Shield without a kthreads mask: the knob is on but nothing is
            // fenced, so the punt path must never trigger.
            sim.set_shield(ShieldCtl::full(CpuMask::single(CpuId(1)))).expect("shield write");
            sim.run_for(Nanos::from_ms(run_ms));
            fingerprint(&sim, waiter)
        };
        prop_assert_eq!(run(true), run(false));
    }
}

/// All three knobs default to off in every paper-era preset, so existing
/// configs (and serialized checkpoints of them) reproduce the committed
/// baseline behaviour unchanged.
#[test]
fn paper_presets_have_all_modern_knobs_off() {
    for cfg in [KernelConfig::vanilla(), KernelConfig::redhawk()] {
        assert!(!cfg.threaded_irqs && !cfg.nohz_full && !cfg.kthread_iso);
    }
    // A paper-era serialized config (no knob fields at all) deserializes
    // with every knob off — `#[serde(default)]` compatibility.
    let json = serde_json::to_string(&KernelConfig::redhawk()).expect("serialize");
    let mut stripped = json.clone();
    for field in ["\"threaded_irqs\":false,", "\"nohz_full\":false,", "\"kthread_iso\":false,"] {
        assert!(stripped.contains(field), "expected {field} in {json}");
        stripped = stripped.replacen(field, "", 1);
    }
    let back: KernelConfig = serde_json::from_str(&stripped).expect("deserialize");
    assert_eq!(back, KernelConfig::redhawk());
    // A config saved while the retired `nohz_idle` knob existed (always off)
    // still loads, the stale field ignored.
    let legacy = json.replacen("\"nohz_full\":", "\"nohz_idle\":false,\"nohz_full\":", 1);
    assert!(legacy.contains("\"nohz_idle\":false"), "{legacy}");
    let back: KernelConfig = serde_json::from_str(&legacy).expect("deserialize legacy");
    assert_eq!(back, KernelConfig::redhawk());
}
