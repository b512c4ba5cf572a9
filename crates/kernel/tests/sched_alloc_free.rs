//! The schedulers' hot paths allocate nothing once warm. A counting global
//! allocator (per-thread counts, so parallel tests do not interfere) checks
//! that, after one warm-up cycle has grown every queue to its working size,
//! `on_wake`, `pick`, `on_tick`, `on_preempt` and `on_block` perform zero
//! allocations on both the 2.4 and the O(1) scheduler.

use simcore::{DurationDist, Nanos};
use sp_hw::{CpuId, CpuMask};
use sp_kernel::sched::{CpuView, Linux24Scheduler, O1Scheduler, Scheduler};
use sp_kernel::task::Task;
use sp_kernel::{Op, Pid, Program, SchedPolicy, TaskSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

const CPUS: u32 = 4;

/// A mix of RT and timesharing tasks; three are pinned so picks on the other
/// CPUs have to skip them (and the O(1) scheduler has to steal around them).
fn tasks() -> Vec<Task> {
    let policies = [
        SchedPolicy::fifo(50),
        SchedPolicy::rr(30),
        SchedPolicy::nice(0),
        SchedPolicy::nice(5),
        SchedPolicy::nice(-5),
        SchedPolicy::nice(0),
        SchedPolicy::nice(10),
        SchedPolicy::fifo(10),
    ];
    let online = CpuMask::first_n(CPUS);
    policies
        .iter()
        .enumerate()
        .map(|(i, &policy)| {
            let prog = Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_us(1)))]);
            let mut spec = TaskSpec::new(format!("t{i}"), policy, prog);
            if i % 3 == 1 {
                spec = spec.pinned(CpuMask::single(CpuId(i as u32 % CPUS)));
            }
            let mut task = Task::from_spec(Pid(i as u32), spec, online);
            task.last_cpu = CpuId(i as u32 % CPUS);
            task
        })
        .collect()
}

/// Wake every task, then run rounds of picks on every CPU: the picked task
/// burns down its quantum with ticks and is preempted (requeued, possibly
/// into the expired array) or blocked. Finally block everything.
fn cycle<S: Scheduler>(s: &mut S, tasks: &mut [Task]) -> usize {
    let running = [Some(Pid(0)), None, Some(Pid(1)), None];
    let idle_since = [0, 5, 0, 3];
    let view = CpuView { online: CpuMask::first_n(CPUS), running: &running, idle_since: &idle_since };
    let pids = (0..tasks.len() as u32).map(Pid);
    for pid in pids.clone() {
        s.on_wake(pid, tasks, &view);
    }
    let mut picks = 0;
    for round in 0..6 {
        for cpu in (0..CPUS).map(CpuId) {
            let Some(pid) = s.pick(cpu, tasks) else { continue };
            picks += 1;
            tasks[pid.index()].last_cpu = cpu;
            for _ in 0..12 {
                if s.on_tick(cpu, pid, tasks) {
                    break;
                }
            }
            if round < 4 {
                s.on_preempt(pid, tasks);
            } else {
                s.on_block(pid);
            }
        }
    }
    for pid in pids {
        s.on_block(pid);
    }
    assert_eq!(s.queued_count(), 0);
    picks
}

fn assert_warm_hot_path_allocation_free<S: Scheduler>(mut s: S) {
    let mut tasks = tasks();
    cycle(&mut s, &mut tasks);
    for _ in 0..3 {
        let before = allocs();
        let picks = cycle(&mut s, &mut tasks);
        assert!(picks > tasks.len(), "cycle exercised the pick path ({picks} picks)");
        assert_eq!(allocs() - before, 0, "warm scheduler cycle allocated");
    }
}

#[test]
fn counting_allocator_sees_allocations() {
    let before = allocs();
    let v = std::hint::black_box(vec![0u8; 16]);
    assert_eq!(allocs() - before, 1);
    drop(v);
}

#[test]
fn linux24_hot_path_is_allocation_free() {
    assert_warm_hot_path_allocation_free(Linux24Scheduler::new());
}

#[test]
fn o1_hot_path_is_allocation_free() {
    assert_warm_hot_path_allocation_free(O1Scheduler::new(CPUS));
}
