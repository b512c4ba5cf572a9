//! The stock Linux 2.4 scheduler.
//!
//! One global runqueue. Every `schedule()` walks all runnable tasks and
//! computes `goodness()`: real-time tasks get `1000 + rt_priority`,
//! timesharing tasks get their remaining tick counter plus a nice weight and
//! a +1 bonus for cache affinity. When every runnable SCHED_OTHER task has
//! exhausted its counter, counters are recalculated (`counter/2 + quantum`).
//! The O(n) scan is the "scheduling overhead grows with load" behaviour the
//! O(1) scheduler replaced.

use super::{place_for_wake, CpuView, Scheduler};
use crate::ids::Pid;
use crate::params::PreparedCosts;
use crate::task::{SchedPolicy, Task};
use simcore::{Nanos, SimRng};
use sp_hw::CpuId;
use std::collections::VecDeque;

#[derive(Debug, Default)]
pub struct Linux24Scheduler {
    /// Queued runnable tasks (global, unordered: order only breaks goodness
    /// ties, where FIFO insertion order applies).
    queue: VecDeque<Pid>,
    /// Tasks whose quantum just ran out (requeue behind peers).
    just_expired: Vec<bool>,
}

// Manual so checkpoint restores reuse the queue allocations via `clone_from`.
impl Clone for Linux24Scheduler {
    fn clone(&self) -> Self {
        Linux24Scheduler { queue: self.queue.clone(), just_expired: self.just_expired.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.queue.clone_from(&source.queue);
        self.just_expired.clone_from(&source.just_expired);
    }
}

/// Tick quantum from nice: `(20 - nice) / 4 + 1` jiffies, the 2.4 formula
/// (6 ticks ≈ 60 ms at nice 0, HZ=100).
fn quantum_ticks(nice: i8) -> i32 {
    (20 - nice as i32) / 4 + 1
}

fn goodness(task: &Task, cpu: Option<CpuId>) -> i32 {
    match task.policy {
        SchedPolicy::Fifo { rt_prio } | SchedPolicy::RoundRobin { rt_prio } => {
            1000 + rt_prio as i32
        }
        SchedPolicy::Other { nice } => {
            if task.counter <= 0 {
                0
            } else {
                let mut g = task.counter + 20 - nice as i32;
                if cpu == Some(task.last_cpu) {
                    g += 1;
                }
                g
            }
        }
    }
}

impl Linux24Scheduler {
    pub fn new() -> Self {
        Self::default()
    }

    fn recalculate(&mut self, tasks: &mut [Task]) {
        // 2.4 recalculates every task in the system; sleeping tasks bank up
        // to double quantum. We apply the same formula to all live tasks.
        for t in tasks.iter_mut() {
            if let SchedPolicy::Other { nice } = t.policy {
                t.counter = t.counter / 2 + quantum_ticks(nice);
            }
        }
    }
}

impl Scheduler for Linux24Scheduler {
    fn on_wake(&mut self, pid: Pid, tasks: &mut [Task], view: &CpuView<'_>) -> Option<CpuId> {
        debug_assert!(!self.queue.contains(&pid), "{pid} double-enqueued");
        if tasks[pid.index()].counter <= 0 {
            if let SchedPolicy::Other { nice } = tasks[pid.index()].policy {
                // A task that slept through a recalculation cycle starts with
                // a fresh quantum rather than a zero counter.
                tasks[pid.index()].counter = quantum_ticks(nice);
            }
        }
        let (cpu, resched) = place_for_wake(pid, tasks, view, |a, b| self.preempts(a, b, tasks));
        self.queue.push_back(pid);
        resched.then_some(cpu)
    }

    fn on_preempt(&mut self, pid: Pid, _tasks: &[Task]) {
        debug_assert!(!self.queue.contains(&pid));
        if self.just_expired.get(pid.index()).copied().unwrap_or(false) {
            self.just_expired[pid.index()] = false;
            self.queue.push_back(pid);
        } else {
            self.queue.push_front(pid);
        }
    }

    fn on_yield(&mut self, pid: Pid, _tasks: &[Task]) {
        debug_assert!(!self.queue.contains(&pid));
        self.queue.push_back(pid);
    }

    fn on_block(&mut self, pid: Pid) {
        if let Some(idx) = self.queue.iter().position(|&p| p == pid) {
            self.queue.remove(idx);
        }
    }

    fn pick(&mut self, cpu: CpuId, tasks: &mut [Task]) -> Option<Pid> {
        for _attempt in 0..2 {
            let mut best: Option<(usize, i32)> = None;
            let mut saw_exhausted_other = false;
            for (idx, &pid) in self.queue.iter().enumerate() {
                let t = &tasks[pid.index()];
                if !t.effective_affinity.contains(cpu) {
                    continue;
                }
                let g = goodness(t, Some(cpu));
                if g == 0 {
                    saw_exhausted_other = true;
                }
                // Strict > keeps FIFO order among ties.
                if best.map_or(g > 0, |(_, bg)| g > bg) {
                    best = Some((idx, g));
                }
            }
            if let Some((idx, _)) = best {
                return self.queue.remove(idx);
            }
            if saw_exhausted_other {
                // All eligible timesharing tasks are out of ticks: recalc and
                // rescan, as schedule() does.
                self.recalculate(tasks);
                continue;
            }
            return None;
        }
        None
    }

    fn pick_cost(&self, costs: &PreparedCosts, rng: &mut SimRng) -> Nanos {
        costs.sched_pick_24_base.sample(rng)
            + Nanos(costs.sched_pick_24_per_task.as_ns() * self.queue.len() as u64)
    }

    fn preempts(&self, cand: Pid, cur: Pid, tasks: &[Task]) -> bool {
        goodness(&tasks[cand.index()], None) > goodness(&tasks[cur.index()], None)
    }

    fn on_tick(&mut self, _cpu: CpuId, running: Pid, tasks: &mut [Task]) -> bool {
        if self.just_expired.len() <= running.index() {
            self.just_expired.resize(running.index() + 1, false);
        }
        let t = &mut tasks[running.index()];
        match t.policy {
            SchedPolicy::Fifo { .. } => false,
            SchedPolicy::RoundRobin { .. } => {
                // 2.4 RR: rotate when the counter runs out.
                t.counter -= 1;
                if t.counter <= 0 {
                    t.counter = quantum_ticks(0);
                    self.just_expired[running.index()] = true;
                    true
                } else {
                    false
                }
            }
            SchedPolicy::Other { .. } => {
                t.counter -= 1;
                if t.counter <= 0 {
                    self.just_expired[running.index()] = true;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_affinity_change(
        &mut self,
        _pid: Pid,
        _tasks: &mut [Task],
        _view: &CpuView<'_>,
    ) -> Option<CpuId> {
        // Global queue: picks re-check affinity every time; nothing to move.
        None
    }

    fn queued_count(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::make_tasks;
    use super::*;
    use sp_hw::CpuMask;

    fn view<'a>(running: &'a [Option<Pid>]) -> CpuView<'a> {
        static ZEROS: [u64; 8] = [0; 8];
        CpuView {
            online: CpuMask::first_n(running.len() as u32),
            running,
            idle_since: &ZEROS[..running.len()],
        }
    }

    #[test]
    fn rt_beats_timesharing() {
        let mut tasks =
            make_tasks(&[SchedPolicy::nice(-20), SchedPolicy::fifo(1), SchedPolicy::fifo(99)]);
        let mut s = Linux24Scheduler::new();
        let running = [Some(Pid(2))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(1)));
    }

    #[test]
    fn higher_rt_prio_wins() {
        let mut tasks =
            make_tasks(&[SchedPolicy::fifo(10), SchedPolicy::fifo(90), SchedPolicy::fifo(99)]);
        let mut s = Linux24Scheduler::new();
        let running = [Some(Pid(2))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(1)));
    }

    #[test]
    fn cache_affinity_bonus_breaks_ties() {
        let mut tasks =
            make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        let mut s = Linux24Scheduler::new();
        let running = [Some(Pid(2)), Some(Pid(2))];
        tasks[0].last_cpu = CpuId(1);
        tasks[1].last_cpu = CpuId(0);
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(1)), "last_cpu bonus");
        assert_eq!(s.pick(CpuId(1), &mut tasks), Some(Pid(0)));
    }

    #[test]
    fn exhausted_counters_trigger_recalculation() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        let mut s = Linux24Scheduler::new();
        let running = [Some(Pid(1))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        tasks[0].counter = 0;
        let picked = s.pick(CpuId(0), &mut tasks);
        assert_eq!(picked, Some(Pid(0)), "recalc resurrects the task");
        assert!(tasks[0].counter > 0);
    }

    #[test]
    fn affinity_respected_by_global_queue() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0)]);
        // Wake placement may return a resched target; the global queue still
        // owns the task, so picks on a disallowed CPU must skip it.
        tasks[0].effective_affinity = CpuMask::single(CpuId(1));
        let mut s = Linux24Scheduler::new();
        let running = [None, None];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        assert_eq!(s.pick(CpuId(0), &mut tasks), None);
        assert_eq!(s.pick(CpuId(1), &mut tasks), Some(Pid(0)));
    }

    #[test]
    fn pick_cost_scales_with_queue_length() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0); 21]);
        let mut s = Linux24Scheduler::new();
        let costs = crate::params::KernelCosts::default().prepare();
        let mut rng = SimRng::new(5);
        let empty_cost = s.pick_cost(&costs, &mut rng);
        let running = [Some(Pid(20))];
        for i in 0..20 {
            s.on_wake(Pid(i), &mut tasks, &view(&running));
        }
        let full_cost = s.pick_cost(&costs, &mut rng);
        assert!(
            full_cost.as_ns() >= empty_cost.as_ns() + 19 * costs.sched_pick_24_per_task.as_ns(),
            "O(n) scan cost: {empty_cost} -> {full_cost}"
        );
    }

    #[test]
    fn rr_counter_rotates() {
        let mut tasks = make_tasks(&[SchedPolicy::rr(5)]);
        let mut s = Linux24Scheduler::new();
        tasks[0].counter = 2;
        assert!(!s.on_tick(CpuId(0), Pid(0), &mut tasks));
        assert!(s.on_tick(CpuId(0), Pid(0), &mut tasks));
        assert!(tasks[0].counter > 0, "fresh quantum");
    }

    #[test]
    fn woken_sleeper_gets_fresh_quantum() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        tasks[0].counter = 0;
        let mut s = Linux24Scheduler::new();
        let running = [Some(Pid(1))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        assert!(tasks[0].counter > 0);
    }
}
