//! CPU schedulers.
//!
//! Two implementations, matching the kernels the paper compares:
//!
//! * [`Linux24Scheduler`] — the stock 2.4 scheduler: one global runqueue, a
//!   `goodness()` scan over every runnable task on each pick (O(n)), tick
//!   counters with periodic recalculation.
//! * [`O1Scheduler`] — Ingo Molnar's O(1) scheduler as shipped in RedHawk:
//!   per-CPU active/expired priority arrays with bitmap search, constant-time
//!   picks and an index-flip array swap. An idle CPU steals from siblings
//!   with at least two queued tasks, walking each sibling's active then
//!   expired array over the bitmap's set bits; a task must be allowed on the
//!   idle CPU and strictly better than the best so far, and once a candidate
//!   exists each array's walk stops after its first non-empty list. That
//!   early exit can miss a better task deeper in another sibling's array;
//!   it is kept so the committed artifacts stay byte-identical (see `o1.rs`).
//!
//! Neither scheduler allocates on its hot paths once its queues have grown
//! to their working size; wake placement compares tasks through
//! [`Scheduler::preempts`].
//!
//! The simulator is scheduler-agnostic: it talks through [`Scheduler`].

mod linux24;
mod o1;

pub use linux24::Linux24Scheduler;
pub use o1::O1Scheduler;

use crate::ids::Pid;
use crate::params::PreparedCosts;
use crate::task::Task;
use simcore::{Nanos, SimRng};
use sp_hw::{CpuId, CpuMask};

/// Read-only view of per-CPU execution state, for wake-time placement.
pub struct CpuView<'a> {
    pub online: CpuMask,
    /// The task context installed on each CPU (None = idle). A task counts
    /// as "running" here even while its CPU is servicing an interrupt.
    pub running: &'a [Option<Pid>],
    /// When each CPU last ran anything (ns); `reschedule_idle` in 2.4 (and
    /// the O(1) scheduler's idle search) prefer the longest-idle CPU, which
    /// is how background work lands on a hyperthread sibling nobody else
    /// wants — the Figure 1 effect.
    pub idle_since: &'a [u64],
}

impl CpuView<'_> {
    pub fn is_idle(&self, cpu: CpuId) -> bool {
        self.running[cpu.index()].is_none()
    }
}

/// Scheduler interface used by the simulator.
pub trait Scheduler: std::fmt::Debug + Send {
    /// A task became runnable (wakeup). Queue it and return the CPU that
    /// should reschedule now (idle, or running something this task beats) —
    /// or `None` when the task just waits its turn.
    fn on_wake(&mut self, pid: Pid, tasks: &mut [Task], view: &CpuView<'_>) -> Option<CpuId>;

    /// The running task was involuntarily preempted; requeue it so it runs
    /// next among its peers.
    fn on_preempt(&mut self, pid: Pid, tasks: &[Task]);

    /// The running task yielded; requeue it behind its peers.
    fn on_yield(&mut self, pid: Pid, tasks: &[Task]);

    /// The task blocked or exited; remove it from any queue.
    fn on_block(&mut self, pid: Pid);

    /// Choose and dequeue the next task for `cpu`.
    fn pick(&mut self, cpu: CpuId, tasks: &mut [Task]) -> Option<Pid>;

    /// CPU cost of one pick (the O(1)/O(n) distinction the paper leans on).
    fn pick_cost(&self, costs: &PreparedCosts, rng: &mut SimRng) -> Nanos;

    /// Strict "should cand preempt cur".
    fn preempts(&self, cand: Pid, cur: Pid, tasks: &[Task]) -> bool;

    /// Local timer tick accounting for the task running on `cpu`.
    /// Returns true when the task's quantum expired (reschedule).
    fn on_tick(&mut self, cpu: CpuId, running: Pid, tasks: &mut [Task]) -> bool;

    /// The task's effective affinity changed; fix its queue placement.
    /// Returns a CPU to reschedule if the move warrants one.
    fn on_affinity_change(&mut self, pid: Pid, tasks: &mut [Task], view: &CpuView<'_>)
        -> Option<CpuId>;

    /// Number of queued (runnable, not running) tasks.
    fn queued_count(&self) -> usize;
}

/// The closed set of scheduler implementations. The simulator used to hold a
/// `Box<dyn Scheduler>`; every wake/pick/tick in the event hot loop then
/// paid a vtable call. This enum dispatches with a two-way match the
/// compiler can inline, and is `Clone` so a [`crate::Checkpoint`] can carry
/// the full run-queue state.
#[derive(Debug)]
pub enum SchedulerKind {
    Linux24(Linux24Scheduler),
    O1(O1Scheduler),
}

// Manual so restoring a checkpoint into a same-variant scheduler (the only
// case the fork pattern produces) forwards to the variant's allocation-
// reusing `clone_from` instead of rebuilding every run queue.
impl Clone for SchedulerKind {
    fn clone(&self) -> Self {
        match self {
            SchedulerKind::Linux24(s) => SchedulerKind::Linux24(s.clone()),
            SchedulerKind::O1(s) => SchedulerKind::O1(s.clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (SchedulerKind::Linux24(a), SchedulerKind::Linux24(b)) => a.clone_from(b),
            (SchedulerKind::O1(a), SchedulerKind::O1(b)) => a.clone_from(b),
            (dst, src) => *dst = src.clone(),
        }
    }
}

macro_rules! sched_dispatch {
    ($self:ident, $method:ident ( $($arg:expr),* )) => {
        match $self {
            SchedulerKind::Linux24(s) => s.$method($($arg),*),
            SchedulerKind::O1(s) => s.$method($($arg),*),
        }
    };
}

impl Scheduler for SchedulerKind {
    #[inline]
    fn on_wake(&mut self, pid: Pid, tasks: &mut [Task], view: &CpuView<'_>) -> Option<CpuId> {
        sched_dispatch!(self, on_wake(pid, tasks, view))
    }

    #[inline]
    fn on_preempt(&mut self, pid: Pid, tasks: &[Task]) {
        sched_dispatch!(self, on_preempt(pid, tasks))
    }

    #[inline]
    fn on_yield(&mut self, pid: Pid, tasks: &[Task]) {
        sched_dispatch!(self, on_yield(pid, tasks))
    }

    #[inline]
    fn on_block(&mut self, pid: Pid) {
        sched_dispatch!(self, on_block(pid))
    }

    #[inline]
    fn pick(&mut self, cpu: CpuId, tasks: &mut [Task]) -> Option<Pid> {
        sched_dispatch!(self, pick(cpu, tasks))
    }

    #[inline]
    fn pick_cost(&self, costs: &PreparedCosts, rng: &mut SimRng) -> Nanos {
        sched_dispatch!(self, pick_cost(costs, rng))
    }

    #[inline]
    fn preempts(&self, cand: Pid, cur: Pid, tasks: &[Task]) -> bool {
        sched_dispatch!(self, preempts(cand, cur, tasks))
    }

    #[inline]
    fn on_tick(&mut self, cpu: CpuId, running: Pid, tasks: &mut [Task]) -> bool {
        sched_dispatch!(self, on_tick(cpu, running, tasks))
    }

    #[inline]
    fn on_affinity_change(
        &mut self,
        pid: Pid,
        tasks: &mut [Task],
        view: &CpuView<'_>,
    ) -> Option<CpuId> {
        sched_dispatch!(self, on_affinity_change(pid, tasks, view))
    }

    #[inline]
    fn queued_count(&self) -> usize {
        sched_dispatch!(self, queued_count())
    }
}

/// Build the scheduler named by the kernel configuration.
pub fn build_scheduler(o1: bool, cpus: u32) -> SchedulerKind {
    if o1 {
        SchedulerKind::O1(O1Scheduler::new(cpus))
    } else {
        SchedulerKind::Linux24(Linux24Scheduler::new())
    }
}

/// Shared wake-placement helper: prefer the last CPU if it's idle or loses
/// to the candidate, then any idle allowed CPU, then the allowed CPU whose
/// current task is weakest (if the candidate beats it).
fn place_for_wake(
    pid: Pid,
    tasks: &[Task],
    view: &CpuView<'_>,
    beats: impl Fn(Pid, Pid) -> bool,
) -> (CpuId, bool) {
    let task = &tasks[pid.index()];
    let allowed = task.effective_affinity & view.online;
    debug_assert!(!allowed.is_empty(), "task with no allowed online cpu");
    let last = task.last_cpu;

    if allowed.contains(last) && view.is_idle(last) {
        return (last, true);
    }
    // Longest-idle allowed CPU, as reschedule_idle's "has been idle the
    // longest" scan does.
    if let Some(idle) = allowed
        .iter()
        .filter(|&c| view.is_idle(c))
        .min_by_key(|c| view.idle_since[c.index()])
    {
        return (idle, true);
    }
    if allowed.contains(last) {
        if let Some(cur) = view.running[last.index()] {
            if beats(pid, cur) {
                return (last, true);
            }
        }
    }
    // Weakest current among allowed CPUs.
    let mut best: Option<(CpuId, Pid)> = None;
    for c in allowed.iter() {
        if let Some(cur) = view.running[c.index()] {
            let weaker = match best {
                None => true,
                Some((_, b)) => beats(b, cur),
            };
            if weaker {
                best = Some((c, cur));
            }
        }
    }
    if let Some((c, cur)) = best {
        if beats(pid, cur) {
            return (c, true);
        }
    }
    // No preemption; keep cache-affine placement.
    let home = if allowed.contains(last) { last } else { allowed.first().expect("non-empty") };
    (home, false)
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::program::{Op, Program};
    use crate::task::{SchedPolicy, TaskSpec};
    use simcore::DurationDist;

    /// Build a set of tasks with the given policies, affinity = all.
    pub fn make_tasks(policies: &[SchedPolicy]) -> Vec<Task> {
        policies
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                let prog =
                    Program::forever(vec![Op::Compute(DurationDist::constant(Nanos::from_us(1)))]);
                Task::from_spec(
                    Pid(i as u32),
                    TaskSpec::new(format!("t{i}"), p, prog),
                    CpuMask::first_n(4),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::make_tasks;
    use super::*;
    use crate::task::SchedPolicy;

    #[test]
    fn place_prefers_idle_last_cpu() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0)]);
        tasks[0].last_cpu = CpuId(1);
        let running = [None, None];
        let idle = [0, 0];
        let view = CpuView { online: CpuMask::first_n(2), running: &running, idle_since: &idle };
        let (cpu, resched) = place_for_wake(Pid(0), &tasks, &view, |_, _| false);
        assert_eq!(cpu, CpuId(1));
        assert!(resched);
    }

    #[test]
    fn place_finds_other_idle_cpu() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0)]);
        tasks[0].last_cpu = CpuId(0);
        let running = [Some(Pid(1)), None];
        let idle = [0, 0];
        let view = CpuView { online: CpuMask::first_n(2), running: &running, idle_since: &idle };
        let (cpu, resched) = place_for_wake(Pid(0), &tasks, &view, |_, _| false);
        assert_eq!(cpu, CpuId(1));
        assert!(resched);
    }

    #[test]
    fn place_preempts_weakest_when_stronger() {
        let mut tasks =
            make_tasks(&[SchedPolicy::fifo(50), SchedPolicy::nice(0), SchedPolicy::nice(10)]);
        tasks[0].last_cpu = CpuId(0);
        let running = [Some(Pid(1)), Some(Pid(2))];
        let idle = [0, 0];
        let view = CpuView { online: CpuMask::first_n(2), running: &running, idle_since: &idle };
        let beats = |a: Pid, b: Pid| {
            tasks[a.index()].effective_prio() < tasks[b.index()].effective_prio()
        };
        let (cpu, resched) = place_for_wake(Pid(0), &tasks, &view, beats);
        // pid2 (nice 10) is weaker than pid1 (nice 0): preempt on cpu1...
        // unless last_cpu wins first — pid0 beats pid1 on cpu0, which the
        // cache-affine rule prefers.
        assert_eq!(cpu, CpuId(0));
        assert!(resched);
    }

    #[test]
    fn place_prefers_longest_idle_cpu() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0)]);
        tasks[0].last_cpu = CpuId(0);
        let running = [Some(Pid(9)), None, None, None];
        // cpu3 has been idle since t=5, cpu1 since t=90, cpu2 since t=40.
        let idle = [0, 90, 40, 5];
        let view = CpuView { online: CpuMask::first_n(4), running: &running, idle_since: &idle };
        let (cpu, resched) = place_for_wake(Pid(0), &tasks, &view, |_, _| false);
        assert_eq!(cpu, CpuId(3), "longest-idle wins");
        assert!(resched);
    }

    #[test]
    fn place_queues_without_preemption_among_equals() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0), SchedPolicy::nice(0)]);
        tasks[0].last_cpu = CpuId(1);
        let running = [Some(Pid(1)), Some(Pid(2))];
        let idle = [0, 0];
        let view = CpuView { online: CpuMask::first_n(2), running: &running, idle_since: &idle };
        let (cpu, resched) = place_for_wake(Pid(0), &tasks, &view, |_, _| false);
        assert_eq!(cpu, CpuId(1), "stays cache-affine");
        assert!(!resched);
    }
}
