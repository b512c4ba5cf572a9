//! The O(1) scheduler (Ingo Molnar, adopted in 2.5; backported into RedHawk).
//!
//! Per-CPU runqueues, each with *active* and *expired* priority arrays of 140
//! FIFO lists plus a find-first-bit bitmap. Enqueue, dequeue, the local pick
//! and the active/expired swap are constant time: the swap flips an index,
//! and each queued task's slot names its array by index, so no task moves.
//! SCHED_OTHER tasks that exhaust a timeslice move to the expired array; when
//! the active array drains, the arrays swap. Real-time tasks never expire.
//!
//! An idle CPU steals from its siblings. The rule, exactly: visit the other
//! CPUs in index order, skipping any with fewer than two queued tasks; on
//! each, walk the active array and then the expired one, visiting only the
//! non-empty priority lists (the bitmap's set bits, ascending). A task is a
//! candidate if its affinity allows the idle CPU and its priority is strictly
//! better than the best candidate so far (ties keep the earlier one). Once a
//! candidate exists, the walk of an array stops after the first non-empty
//! list it visits. So a steal reads only non-empty lists, and after the
//! first candidate at most one more per array.
//!
//! That early exit can miss a better eligible task deeper in another
//! sibling's array: when that array's first non-empty list holds only tasks
//! pinned elsewhere, the walk stops there. The rule is kept on purpose so the
//! committed artifacts stay byte-identical; changing it changes the model.

use super::{place_for_wake, CpuView, Scheduler};
use crate::ids::Pid;
use crate::params::PreparedCosts;
use crate::task::{SchedPolicy, Task};
use simcore::{Nanos, SimRng};
use sp_hw::CpuId;

const NUM_PRIOS: usize = 140;

#[derive(Debug, Default)]
#[cfg_attr(test, derive(PartialEq))]
struct PrioArray {
    bitmap: [u64; 3],
    queues: Vec<std::collections::VecDeque<Pid>>,
    count: usize,
}

// Manual so `clone_from` reuses the 140 per-priority deques: a derived
// impl's default `clone_from` would reallocate all of them on every
// checkpoint restore (2 arrays × NUM_PRIOS × CPUs deques per fork).
impl Clone for PrioArray {
    fn clone(&self) -> Self {
        PrioArray { bitmap: self.bitmap, queues: self.queues.clone(), count: self.count }
    }

    fn clone_from(&mut self, source: &Self) {
        self.bitmap = source.bitmap;
        self.queues.clone_from(&source.queues);
        self.count = source.count;
    }
}

impl PrioArray {
    fn new() -> Self {
        PrioArray {
            bitmap: [0; 3],
            queues: (0..NUM_PRIOS).map(|_| std::collections::VecDeque::new()).collect(),
            count: 0,
        }
    }

    fn push_back(&mut self, prio: u8, pid: Pid) {
        let p = prio as usize;
        self.queues[p].push_back(pid);
        self.bitmap[p / 64] |= 1 << (p % 64);
        self.count += 1;
    }

    fn push_front(&mut self, prio: u8, pid: Pid) {
        let p = prio as usize;
        self.queues[p].push_front(pid);
        self.bitmap[p / 64] |= 1 << (p % 64);
        self.count += 1;
    }

    /// Highest-priority queued task (lowest index), without removing.
    fn peek_best_prio(&self) -> Option<u8> {
        for (w, &bits) in self.bitmap.iter().enumerate() {
            if bits != 0 {
                return Some((w * 64 + bits.trailing_zeros() as usize) as u8);
            }
        }
        None
    }

    fn pop_front(&mut self, prio: u8) -> Option<Pid> {
        let p = prio as usize;
        let pid = self.queues[p].pop_front()?;
        if self.queues[p].is_empty() {
            self.bitmap[p / 64] &= !(1 << (p % 64));
        }
        self.count -= 1;
        Some(pid)
    }

    fn remove(&mut self, prio: u8, pid: Pid) -> bool {
        let p = prio as usize;
        if let Some(idx) = self.queues[p].iter().position(|&q| q == pid) {
            self.queues[p].remove(idx);
            if self.queues[p].is_empty() {
                self.bitmap[p / 64] &= !(1 << (p % 64));
            }
            self.count -= 1;
            true
        } else {
            false
        }
    }
}

#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
struct Runqueue {
    arrays: [PrioArray; 2],
    /// Index of the active array in `arrays`; the other one is expired.
    active: usize,
}

impl Clone for Runqueue {
    fn clone(&self) -> Self {
        Runqueue { arrays: self.arrays.clone(), active: self.active }
    }

    fn clone_from(&mut self, source: &Self) {
        self.arrays[0].clone_from(&source.arrays[0]);
        self.arrays[1].clone_from(&source.arrays[1]);
        self.active = source.active;
    }
}

impl Runqueue {
    fn new() -> Self {
        Runqueue { arrays: [PrioArray::new(), PrioArray::new()], active: 0 }
    }

    fn len(&self) -> usize {
        self.arrays[0].count + self.arrays[1].count
    }
}

/// Where a queued task currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    cpu: u32,
    prio: u8,
    /// Index into the runqueue's `arrays`, so an array swap moves no slot.
    array: u8,
}

#[derive(Debug)]
#[cfg_attr(test, derive(PartialEq))]
pub struct O1Scheduler {
    rqs: Vec<Runqueue>,
    /// pid -> queue slot, for O(1) removal. Dense by pid.
    slots: Vec<Option<Slot>>,
    /// Tasks whose quantum just expired (routed to the expired array on the
    /// next requeue).
    just_expired: Vec<bool>,
}

impl Clone for O1Scheduler {
    fn clone(&self) -> Self {
        O1Scheduler {
            rqs: self.rqs.clone(),
            slots: self.slots.clone(),
            just_expired: self.just_expired.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.rqs.clone_from(&source.rqs);
        self.slots.clone_from(&source.slots);
        self.just_expired.clone_from(&source.just_expired);
    }
}

impl O1Scheduler {
    pub fn new(cpus: u32) -> Self {
        assert!(cpus > 0);
        O1Scheduler {
            rqs: (0..cpus).map(|_| Runqueue::new()).collect(),
            slots: Vec::new(),
            just_expired: Vec::new(),
        }
    }

    fn ensure(&mut self, pid: Pid) {
        let need = pid.index() + 1;
        if self.slots.len() < need {
            self.slots.resize(need, None);
            self.just_expired.resize(need, false);
        }
    }

    fn enqueue(&mut self, pid: Pid, tasks: &[Task], cpu: CpuId, front: bool, expired: bool) {
        self.ensure(pid);
        debug_assert!(self.slots[pid.index()].is_none(), "{pid} double-enqueued");
        let prio = tasks[pid.index()].effective_prio();
        let rq = &mut self.rqs[cpu.index()];
        let array = rq.active ^ expired as usize;
        if front {
            rq.arrays[array].push_front(prio, pid);
        } else {
            rq.arrays[array].push_back(prio, pid);
        }
        self.slots[pid.index()] = Some(Slot { cpu: cpu.0, prio, array: array as u8 });
    }

    fn dequeue(&mut self, pid: Pid) -> bool {
        self.ensure(pid);
        if let Some(slot) = self.slots[pid.index()].take() {
            let array = &mut self.rqs[slot.cpu as usize].arrays[slot.array as usize];
            let removed = array.remove(slot.prio, pid);
            debug_assert!(removed, "slot desync for {pid}");
            removed
        } else {
            false
        }
    }

    /// Default timeslice by policy (the 2.4-era O(1) constants: 100 ms at
    /// nice 0, scaled by nice; RT round-robin gets a fixed 100 ms).
    fn timeslice_for(policy: SchedPolicy) -> Nanos {
        match policy {
            SchedPolicy::Fifo { .. } => Nanos::MAX,
            SchedPolicy::RoundRobin { .. } => Nanos::from_ms(100),
            SchedPolicy::Other { nice } => Nanos::from_ms((100 - nice as i64 * 5).max(5) as u64),
        }
    }

    /// Requeue target: the last CPU if still allowed, else the first allowed
    /// CPU (a preemption triggered by an affinity change must migrate).
    fn home_cpu(task: &Task) -> CpuId {
        if task.effective_affinity.contains(task.last_cpu) {
            task.last_cpu
        } else {
            task.effective_affinity.first().expect("non-empty affinity")
        }
    }

    /// Pop the best task of `cpu`'s own runqueue, swapping the arrays first
    /// when only the expired one holds tasks.
    fn pop_local(&mut self, cpu: CpuId) -> Option<Pid> {
        let rq = &mut self.rqs[cpu.index()];
        if rq.arrays[rq.active].count == 0 && rq.arrays[rq.active ^ 1].count > 0 {
            rq.active ^= 1;
        }
        let active = &mut rq.arrays[rq.active];
        let prio = active.peek_best_prio()?;
        let pid = active.pop_front(prio).expect("bitmap said so");
        self.slots[pid.index()] = None;
        Some(pid)
    }

    /// The task an idle `cpu` steals, by the rule in the module doc. Only
    /// the bitmap's set bits are visited; the labelled break leaves the
    /// whole array, not just the current 64-bit word.
    fn steal_candidate(&self, cpu: CpuId, tasks: &[Task]) -> Option<Pid> {
        let mut best: Option<(Pid, usize)> = None;
        for (other, rq) in self.rqs.iter().enumerate() {
            if other == cpu.index() || rq.len() <= 1 {
                continue;
            }
            for array in [&rq.arrays[rq.active], &rq.arrays[rq.active ^ 1]] {
                'array: for (w, &word) in array.bitmap.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let p = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        for &pid in &array.queues[p] {
                            if tasks[pid.index()].effective_affinity.contains(cpu)
                                && best.is_none_or(|(_, bp)| p < bp)
                            {
                                best = Some((pid, p));
                            }
                        }
                        if best.is_some() {
                            break 'array;
                        }
                    }
                }
            }
        }
        best.map(|(pid, _)| pid)
    }

    /// `pick` with the steal search passed in, so tests can run the same
    /// pick against a reference search.
    fn pick_with(
        &mut self,
        cpu: CpuId,
        tasks: &mut [Task],
        steal: impl Fn(&Self, CpuId, &[Task]) -> Option<Pid>,
    ) -> Option<Pid> {
        let pid = match self.pop_local(cpu) {
            Some(pid) => pid,
            None => {
                let pid = steal(self, cpu, tasks)?;
                self.dequeue(pid);
                pid
            }
        };
        if tasks[pid.index()].timeslice.is_zero() {
            tasks[pid.index()].timeslice = Self::timeslice_for(tasks[pid.index()].policy);
        }
        Some(pid)
    }
}

impl Scheduler for O1Scheduler {
    fn on_wake(&mut self, pid: Pid, tasks: &mut [Task], view: &CpuView<'_>) -> Option<CpuId> {
        let (cpu, resched) = place_for_wake(pid, tasks, view, |a, b| self.preempts(a, b, tasks));
        if tasks[pid.index()].timeslice.is_zero() {
            tasks[pid.index()].timeslice = Self::timeslice_for(tasks[pid.index()].policy);
        }
        self.enqueue(pid, tasks, cpu, false, false);
        resched.then_some(cpu)
    }

    fn on_preempt(&mut self, pid: Pid, tasks: &[Task]) {
        self.ensure(pid);
        let cpu = Self::home_cpu(&tasks[pid.index()]);
        if self.just_expired[pid.index()] {
            self.just_expired[pid.index()] = false;
            // SCHED_OTHER expiry goes to the expired array; SCHED_RR rotates
            // to the back of its active list.
            let expired = matches!(tasks[pid.index()].policy, SchedPolicy::Other { .. });
            self.enqueue(pid, tasks, cpu, false, expired);
        } else {
            // Still owed the CPU: head of its priority list in the active array.
            self.enqueue(pid, tasks, cpu, true, false);
        }
    }

    fn on_yield(&mut self, pid: Pid, tasks: &[Task]) {
        self.ensure(pid);
        self.just_expired[pid.index()] = false;
        let cpu = Self::home_cpu(&tasks[pid.index()]);
        self.enqueue(pid, tasks, cpu, false, false);
    }

    fn on_block(&mut self, pid: Pid) {
        self.dequeue(pid);
        self.ensure(pid);
        self.just_expired[pid.index()] = false;
    }

    fn pick(&mut self, cpu: CpuId, tasks: &mut [Task]) -> Option<Pid> {
        self.pick_with(cpu, tasks, Self::steal_candidate)
    }

    fn pick_cost(&self, costs: &PreparedCosts, rng: &mut SimRng) -> Nanos {
        costs.sched_pick_o1.sample(rng)
    }

    fn preempts(&self, cand: Pid, cur: Pid, tasks: &[Task]) -> bool {
        tasks[cand.index()].effective_prio() < tasks[cur.index()].effective_prio()
    }

    fn on_tick(&mut self, _cpu: CpuId, running: Pid, tasks: &mut [Task]) -> bool {
        self.ensure(running);
        let jiffy = Nanos::from_ms(10);
        let t = &mut tasks[running.index()];
        match t.policy {
            SchedPolicy::Fifo { .. } => false,
            SchedPolicy::RoundRobin { .. } | SchedPolicy::Other { .. } => {
                t.timeslice = t.timeslice.saturating_sub(jiffy);
                if t.timeslice.is_zero() {
                    t.timeslice = Self::timeslice_for(t.policy);
                    // Quantum exhausted: requeue behind peers (RR rotates in
                    // the active array; OTHER moves to the expired array).
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
        pid: Pid,
        tasks: &mut [Task],
        view: &CpuView<'_>,
    ) -> Option<CpuId> {
        self.ensure(pid);
        if let Some(slot) = self.slots[pid.index()] {
            if !tasks[pid.index()].effective_affinity.contains(CpuId(slot.cpu)) {
                self.dequeue(pid);
                let (cpu, resched) =
                    place_for_wake(pid, tasks, view, |a, b| self.preempts(a, b, tasks));
                self.enqueue(pid, tasks, cpu, false, false);
                return resched.then_some(cpu);
            }
        }
        None
    }

    fn queued_count(&self) -> usize {
        self.rqs.iter().map(|rq| rq.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::make_tasks;
    use super::*;
    use crate::task::SchedPolicy;
    use proptest::prelude::*;
    use sp_hw::CpuMask;

    impl O1Scheduler {
        /// Reference steal search: the linear walk over all 140 lists of
        /// both arrays that the bitmap walk replaced. Same rule, same result.
        fn steal_candidate_linear(&self, cpu: CpuId, tasks: &[Task]) -> Option<Pid> {
            let mut best: Option<(Pid, u8)> = None;
            for (other, rq) in self.rqs.iter().enumerate() {
                if other == cpu.index() || rq.len() <= 1 {
                    continue;
                }
                for array in [&rq.arrays[rq.active], &rq.arrays[rq.active ^ 1]] {
                    for (p, q) in array.queues.iter().enumerate() {
                        for &pid in q {
                            if tasks[pid.index()].effective_affinity.contains(cpu)
                                && best.is_none_or(|(_, bp)| (p as u8) < bp)
                            {
                                best = Some((pid, p as u8));
                            }
                        }
                        if best.is_some() && !q.is_empty() {
                            break; // lists are priority-ordered; first hit per array wins
                        }
                    }
                }
            }
            best.map(|(pid, _)| pid)
        }
    }

    /// A policy whose `effective_prio` is exactly `prio` (0–139). Built
    /// from the variant so list 99 (`rt_prio` 0, which no real task uses)
    /// is reachable too.
    fn policy_at(prio: u8) -> SchedPolicy {
        if prio < 100 {
            SchedPolicy::Fifo { rt_prio: 99 - prio }
        } else {
            SchedPolicy::nice((prio as i16 - 120) as i8)
        }
    }

    /// Queue one task per `(prio, cpu, affinity, expired, front)` entry
    /// directly into the runqueues, after setting each CPU's active index.
    fn build(
        cpus: u32,
        actives: &[usize],
        queued: &[(u8, u32, u8, bool, bool)],
    ) -> (O1Scheduler, Vec<Task>) {
        let policies: Vec<SchedPolicy> = queued.iter().map(|q| policy_at(q.0)).collect();
        let mut tasks = make_tasks(&policies);
        let mut s = O1Scheduler::new(cpus);
        for (rq, &active) in s.rqs.iter_mut().zip(actives) {
            rq.active = active;
        }
        for (i, &(prio, cpu, affinity, expired, front)) in queued.iter().enumerate() {
            let t = &mut tasks[i];
            assert_eq!(t.effective_prio(), prio);
            t.effective_affinity = CpuMask(affinity as u64 & ((1 << cpus) - 1));
            s.enqueue(Pid(i as u32), &tasks, CpuId(cpu), front, expired);
        }
        (s, tasks)
    }

    fn timeslices(tasks: &[Task]) -> Vec<Nanos> {
        tasks.iter().map(|t| t.timeslice).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The bitmap steal picks what the linear walk picks, and leaves the
        /// scheduler and the tasks in the same state, pick after pick. Before
        /// each pick both searches also run for every CPU, busy or not, so
        /// the steal rule is compared on every state the picks pass through.
        #[test]
        fn bitmap_steal_matches_linear_walk(
            cpus in 2u32..=4,
            actives in proptest::collection::vec(0usize..2, 4),
            queued in proptest::collection::vec(
                ((0u8..140, 0u32..4, 1u8..16), (any::<bool>(), any::<bool>())),
                0..24,
            ),
            picks in proptest::collection::vec(0u32..4, 1..32),
        ) {
            let queued: Vec<_> = queued
                .into_iter()
                .map(|((p, c, a), (e, f))| (p, c % cpus, a | 1 << (c % cpus), e, f))
                .collect();
            let (mut fast, mut fast_tasks) = build(cpus, &actives, &queued);
            let (mut slow, mut slow_tasks) = (fast.clone(), fast_tasks.clone());
            for cpu in picks.into_iter().map(|c| CpuId(c % cpus)) {
                for idle in (0..cpus).map(CpuId) {
                    prop_assert_eq!(
                        fast.steal_candidate(idle, &fast_tasks),
                        fast.steal_candidate_linear(idle, &fast_tasks)
                    );
                }
                let got = fast.pick(cpu, &mut fast_tasks);
                let want = slow.pick_with(cpu, &mut slow_tasks, O1Scheduler::steal_candidate_linear);
                prop_assert_eq!(got, want);
                prop_assert_eq!(&fast, &slow);
                prop_assert_eq!(timeslices(&fast_tasks), timeslices(&slow_tasks));
            }
        }
    }

    #[test]
    fn steal_walks_across_a_bitmap_word_boundary() {
        // cpu1's first non-empty list (63, the last bit of word 0) holds
        // only a task pinned to cpu1, so the walk goes on into word 1.
        let (mut s, mut tasks) = build(2, &[0, 0], &[(63, 1, 0b10, false, false), (64, 1, 0b11, false, false)]);
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(1)));
    }

    #[test]
    fn steal_early_exit_leaves_the_whole_array() {
        // cpu1 yields a prio-100 candidate. On cpu2 the first non-empty list
        // (63) holds only a pinned task, so the walk of cpu2's active array
        // stops there: the eligible prio-64 task in the next bitmap word is
        // not considered. A break that left only the word would take it.
        let queued = [
            (100, 1, 0b011, false, false),
            (120, 1, 0b011, false, false),
            (63, 2, 0b100, false, false),
            (64, 2, 0b101, false, false),
        ];
        let (mut s, mut tasks) = build(3, &[0, 0, 0], &queued);
        assert_eq!(s.steal_candidate_linear(CpuId(0), &tasks), Some(Pid(0)));
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)));
    }

    #[test]
    fn steal_walks_the_active_array_before_the_expired_one() {
        // cpu1 (arrays swapped, so expired is index 0): active holds an
        // eligible prio-130 task; expired holds a pinned prio-5 task and an
        // eligible prio-6 one. Walking active first finds 130, and the
        // expired walk then stops at its first non-empty list (5).
        let queued = [
            (130, 1, 0b11, false, false),
            (5, 1, 0b10, true, false),
            (6, 1, 0b11, true, false),
        ];
        let (mut s, mut tasks) = build(2, &[0, 1], &queued);
        assert_eq!(s.rqs[1].arrays[0].count, 2, "expired array is index 0");
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)));
    }

    #[test]
    fn steal_keeps_the_earlier_task_on_a_priority_tie() {
        // Equal priorities on cpu1 and cpu2: strict `<` keeps cpu1's.
        let queued = [
            (120, 1, 0b111, false, false),
            (130, 1, 0b111, false, false),
            (120, 2, 0b111, false, false),
            (130, 2, 0b111, false, false),
        ];
        let (mut s, mut tasks) = build(3, &[0, 0, 0], &queued);
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)));
    }

    /// Two expired SCHED_OTHER tasks on cpu0; one pick swaps the arrays and
    /// runs the first, leaving the second in the array that was expired.
    fn swapped_with_one_queued() -> (O1Scheduler, Vec<Task>) {
        let queued = [(120, 0, 0b11, true, false), (120, 0, 0b11, true, false)];
        let (mut s, mut tasks) = build(2, &[0, 0], &queued);
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)));
        assert_eq!(s.rqs[0].active, 1, "arrays swapped");
        assert_eq!(s.slots[1].map(|slot| slot.array), Some(1));
        (s, tasks)
    }

    #[test]
    fn dequeue_finds_its_task_after_an_array_swap() {
        let (mut s, _) = swapped_with_one_queued();
        assert!(s.dequeue(Pid(1)));
        assert_eq!(s.queued_count(), 0);
    }

    #[test]
    fn block_finds_its_task_after_an_array_swap() {
        let (mut s, mut tasks) = swapped_with_one_queued();
        s.on_block(Pid(1));
        assert_eq!(s.queued_count(), 0);
        assert_eq!(s.pick(CpuId(0), &mut tasks), None);
    }

    #[test]
    fn affinity_change_finds_its_task_after_an_array_swap() {
        let (mut s, mut tasks) = swapped_with_one_queued();
        tasks[1].effective_affinity = CpuMask::single(CpuId(1));
        let running = [Some(Pid(0)), None];
        assert_eq!(s.on_affinity_change(Pid(1), &mut tasks, &view(&running)), Some(CpuId(1)));
        assert_eq!(s.rqs[0].len(), 0);
        assert_eq!(s.pick(CpuId(1), &mut tasks), Some(Pid(1)));
        assert_eq!(s.queued_count(), 0);
    }

    fn view<'a>(running: &'a [Option<Pid>]) -> CpuView<'a> {
        static ZEROS: [u64; 8] = [0; 8];
        CpuView {
            online: CpuMask::first_n(running.len() as u32),
            running,
            idle_since: &ZEROS[..running.len()],
        }
    }

    #[test]
    fn picks_highest_priority_first() {
        let mut tasks =
            make_tasks(&[SchedPolicy::nice(0), SchedPolicy::fifo(10), SchedPolicy::fifo(90)]);
        let mut s = O1Scheduler::new(2);
        let running = [None, None];
        for pid in [Pid(0), Pid(1), Pid(2)] {
            tasks[pid.index()].last_cpu = CpuId(0);
            s.on_wake(pid, &mut tasks, &view(&running));
        }
        // All landed somewhere; collect in pick order from both CPUs.
        let mut order = Vec::new();
        for _ in 0..3 {
            for c in [CpuId(0), CpuId(1)] {
                if let Some(p) = s.pick(c, &mut tasks) {
                    order.push(p);
                }
            }
        }
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], Pid(2), "fifo 90 first, got {order:?}");
        assert_eq!(s.queued_count(), 0);
    }

    #[test]
    fn fifo_same_prio_runs_in_wake_order() {
        let mut tasks = make_tasks(&[SchedPolicy::fifo(50), SchedPolicy::fifo(50)]);
        let mut s = O1Scheduler::new(1);
        let running = [Some(Pid(9))]; // busy: no idle placement
        tasks[0].last_cpu = CpuId(0);
        tasks[1].last_cpu = CpuId(0);
        // Use a fake higher-prio current so no preemption signal matters.
        let mut t = make_tasks(&[
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(50),
            SchedPolicy::fifo(99),
        ]);
        for pid in [Pid(0), Pid(1)] {
            t[pid.index()].last_cpu = CpuId(0);
            s.on_wake(pid, &mut t, &view(&running));
        }
        assert_eq!(s.pick(CpuId(0), &mut t), Some(Pid(0)));
        assert_eq!(s.pick(CpuId(0), &mut t), Some(Pid(1)));
        let _ = tasks;
    }

    #[test]
    fn preempted_task_runs_before_equal_peers() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0)]);
        let mut s = O1Scheduler::new(1);
        let running = [Some(Pid(0))];
        tasks[1].last_cpu = CpuId(0);
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        // pid0 gets preempted (e.g. by an RT wake) and requeued.
        tasks[0].last_cpu = CpuId(0);
        s.on_preempt(Pid(0), &tasks);
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)), "front of its list");
    }

    #[test]
    fn expired_task_waits_for_array_swap() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0)]);
        let mut s = O1Scheduler::new(1);
        let running = [Some(Pid(0))];
        tasks[0].last_cpu = CpuId(0);
        tasks[1].last_cpu = CpuId(0);
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        // Run pid0's whole quantum down.
        tasks[0].timeslice = Nanos::from_ms(10);
        assert!(s.on_tick(CpuId(0), Pid(0), &mut tasks), "quantum expired");
        s.on_preempt(Pid(0), &tasks); // goes to expired array
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(1)), "active array first");
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)), "swap brings it back");
    }

    #[test]
    fn fifo_never_expires() {
        let mut tasks = make_tasks(&[SchedPolicy::fifo(50)]);
        let mut s = O1Scheduler::new(1);
        for _ in 0..1000 {
            assert!(!s.on_tick(CpuId(0), Pid(0), &mut tasks));
        }
    }

    #[test]
    fn rr_rotates_on_quantum_end() {
        let mut tasks = make_tasks(&[SchedPolicy::rr(50)]);
        let mut s = O1Scheduler::new(1);
        tasks[0].timeslice = Nanos::from_ms(20);
        assert!(!s.on_tick(CpuId(0), Pid(0), &mut tasks));
        assert!(s.on_tick(CpuId(0), Pid(0), &mut tasks), "second tick ends 20ms slice");
        // RR requeues to the *active* array (push_back), not expired.
        s.on_preempt(Pid(0), &tasks);
        assert_eq!(s.pick(CpuId(0), &mut tasks), Some(Pid(0)));
    }

    #[test]
    fn idle_cpu_steals() {
        let mut tasks =
            make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        let mut s = O1Scheduler::new(2);
        // Both CPUs look busy, forcing both wakes onto cpu0's queue.
        let running = [Some(Pid(2)), Some(Pid(2))];
        for pid in [Pid(0), Pid(1)] {
            tasks[pid.index()].last_cpu = CpuId(0);
            s.on_wake(pid, &mut tasks, &view(&running));
        }
        assert_eq!(s.queued_count(), 2);
        // cpu1 has nothing queued; it steals one.
        let got = s.pick(CpuId(1), &mut tasks);
        assert!(got.is_some(), "idle steal");
        assert_eq!(s.queued_count(), 1);
    }

    #[test]
    fn pinned_task_is_not_stolen() {
        let mut tasks =
            make_tasks(&[SchedPolicy::nice(0), SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        tasks[0].effective_affinity = CpuMask::single(CpuId(0));
        tasks[0].last_cpu = CpuId(0);
        tasks[1].effective_affinity = CpuMask::single(CpuId(0));
        tasks[1].last_cpu = CpuId(0);
        let mut s = O1Scheduler::new(2);
        let running = [Some(Pid(2)), Some(Pid(2))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        s.on_wake(Pid(1), &mut tasks, &view(&running));
        assert_eq!(s.pick(CpuId(1), &mut tasks), None, "affinity forbids stealing");
        assert_eq!(s.queued_count(), 2);
    }

    #[test]
    fn affinity_change_migrates_queued_task() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        tasks[0].last_cpu = CpuId(0);
        let mut s = O1Scheduler::new(2);
        let running = [Some(Pid(1)), Some(Pid(1))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        tasks[0].effective_affinity = CpuMask::single(CpuId(1));
        let running2 = [Some(Pid(1)), None];
        let target = s.on_affinity_change(Pid(0), &mut tasks, &view(&running2));
        assert_eq!(target, Some(CpuId(1)));
        assert_eq!(s.pick(CpuId(0), &mut tasks), None);
        assert_eq!(s.pick(CpuId(1), &mut tasks), Some(Pid(0)));
    }

    #[test]
    fn block_removes_from_queue() {
        let mut tasks = make_tasks(&[SchedPolicy::nice(0), SchedPolicy::fifo(99)]);
        let mut s = O1Scheduler::new(1);
        let running = [Some(Pid(1))];
        s.on_wake(Pid(0), &mut tasks, &view(&running));
        assert_eq!(s.queued_count(), 1);
        s.on_block(Pid(0));
        assert_eq!(s.queued_count(), 0);
        assert_eq!(s.pick(CpuId(0), &mut tasks), None);
    }
}
