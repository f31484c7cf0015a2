//! Deterministic ready-heap scheduler: the crate's one worker pool.
//!
//! A victim's enumeration depends only on its strict fanin, never on
//! same-level siblings, so the sweep needs one dependency-aware ready set
//! and nothing more:
//!
//! * **One ready heap.** A task becomes ready the moment its last fanin
//!   dependency completes. Ready tasks wait in one `Mutex`-guarded heap
//!   keyed by their cost estimate, so every worker pops the costliest
//!   ready task (LPT: longest processing time first) and the giant tail
//!   tasks start as early as their dependencies allow. Completing a task
//!   releases its dependents into the heap under the same lock; idle
//!   workers wait on a `Condvar` until a release or the end of the sweep
//!   wakes them.
//! * **Victim-indexed result slots.** Every task writes its output into
//!   a slot owned by its victim ([`Slots`], one write-once cell per net),
//!   so completion order — and therefore the schedule and the thread
//!   count — can never affect what is stored where. Stats that cross
//!   victims ([`crate::SweepStats`], fault lists) are merged with
//!   commutative/associative folds after the sweep joins.
//! * **Pre-partitioned budgets.** The global candidate budget is split
//!   into per-victim shares *before* the sweep starts, by rank in
//!   victim-index order ([`BudgetPartition`]). Which victims are skipped
//!   or truncated is a pure function of (circuit, config, dirty set); no
//!   schedule can change it.
//!
//! [`map`] runs independent jobs (the validation pool, peel options,
//! batch prepare and finish) on the same pool: a task graph without
//! edges.
//!
//! # Determinism argument
//!
//! The per-victim enumeration is a pure function of (a) the victim's
//! primaries under the mask, (b) per-net `Prepared` state, and (c) the
//! irredundant lists of its strict fanin. The task graph has an edge
//! for exactly the fanin reads in (c), every task writes only its own
//! slot, and budget shares are fixed up front — so *any*
//! dependency-respecting execution order produces bit-identical slots,
//! counters and budget outcomes. The serial path (one worker, tasks in
//! topological order) is therefore not just a fallback but the
//! reference: [`Oracle::check_parallel`](crate::Oracle::check_parallel)
//! compares every slot and share of a parallel run against it
//! (`whatif --audit`, `lint --deep`, rule L061).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use dna_netlist::NetId;

use crate::engine::{panic_message, NetLists};
use crate::result::FaultPhase;
use crate::{TopKConfig, TopKError};

/// One schedulable unit: a victim (or scenario × victim) enumeration.
///
/// Tasks are identified by their index in the task array, which callers
/// must lay out in a topological order (every entry of `dependents`
/// points forward) so the serial reference path is a plain loop.
pub(crate) struct Task {
    /// Tasks that cannot start before this one completes (the victims
    /// whose driver-gate inputs include this task's victim).
    pub dependents: Vec<usize>,
    /// How many dependencies must complete before this task is ready.
    pub indegree: usize,
    /// Cost estimate for LPT ordering (higher = popped earlier).
    pub cost: u64,
}

/// Scheduling counters of one sweep: how the work spread over the
/// workers. Diagnostic only — never part of a result fingerprint, never
/// persisted in artifacts, and excluded from every identity contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    pub(crate) threads: usize,
    pub(crate) tasks: usize,
    pub(crate) max_busy_ns: u64,
    pub(crate) min_busy_ns: u64,
    pub(crate) busy_ns: u64,
    pub(crate) tail_task_ns: u64,
}

impl SchedStats {
    /// Worker threads the sweep actually ran on (1 = the serial
    /// reference path).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Victim (or scenario × victim) tasks executed.
    #[must_use]
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Retired slot, always 0. It counted tasks one worker took from
    /// another's deque before the per-worker deques gave way to one
    /// shared ready heap, which has nothing to steal from. Kept because
    /// existing readers of the scheduler counters still ask for it.
    #[must_use]
    pub fn steals(&self) -> usize {
        0
    }

    /// Busy nanoseconds of the most-loaded worker.
    #[must_use]
    pub fn max_busy_ns(&self) -> u64 {
        self.max_busy_ns
    }

    /// Busy nanoseconds of the least-loaded worker.
    #[must_use]
    pub fn min_busy_ns(&self) -> u64 {
        self.min_busy_ns
    }

    /// Total busy nanoseconds summed over all workers.
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns
    }

    /// Busy nanoseconds of the single longest task — the tail a
    /// level-lockstep sweep would serialize on.
    #[must_use]
    pub fn tail_task_ns(&self) -> u64 {
        self.tail_task_ns
    }

    /// Retired slot, always 0. It counted the envelope buffer bytes a
    /// per-worker scratch arena recycled before materialized envelopes
    /// went back to plain allocation. Kept because existing readers of
    /// the scheduler counters still ask for it.
    #[must_use]
    pub fn arena_bytes_reused(&self) -> u64 {
        0
    }

    /// Share of total busy time spent in the single longest task, in
    /// `[0, 1]`. Close to 1 means one victim dominates the sweep and no
    /// scheduler can help; close to 0 means the work is spreadable.
    #[must_use]
    pub fn tail_task_share(&self) -> f64 {
        if self.busy_ns == 0 {
            0.0
        } else {
            self.tail_task_ns as f64 / self.busy_ns as f64
        }
    }

    /// Folds another sweep's counters into this one (commutative and
    /// associative up to the max/min fields, which is all the peeled
    /// loop and the batch engine need).
    pub(crate) fn merge(&mut self, other: &SchedStats) {
        if other.tasks == 0 {
            return;
        }
        if self.tasks == 0 {
            *self = *other;
            return;
        }
        self.threads = self.threads.max(other.threads);
        self.tasks += other.tasks;
        self.max_busy_ns = self.max_busy_ns.max(other.max_busy_ns);
        self.min_busy_ns = self.min_busy_ns.min(other.min_busy_ns);
        self.busy_ns += other.busy_ns;
        self.tail_task_ns = self.tail_task_ns.max(other.tail_task_ns);
    }
}

/// Victim-indexed write-once result slots: the published I-lists every
/// in-flight task may read for its strict fanin.
///
/// Clean (cached) nets are pre-published from the seed lists; each dirty
/// net's slot is written exactly once, by whichever worker ran its task,
/// *before* the scheduler releases the net's dependents — so a reader
/// can never observe an unset fanin slot.
pub(crate) struct Slots {
    slots: Vec<OnceLock<NetLists>>,
}

impl Slots {
    /// Slots over `seed` with every net *not* flagged in `dirty`
    /// pre-published from its cached lists (cheap `Arc` clones).
    pub fn from_seeds(seed: &[NetLists], dirty: &[bool]) -> Self {
        let slots: Vec<OnceLock<NetLists>> = seed
            .iter()
            .zip(dirty)
            .map(|(lists, &d)| {
                let cell = OnceLock::new();
                if !d {
                    let _ = cell.set(lists.clone());
                }
                cell
            })
            .collect();
        Self { slots }
    }

    /// The published lists of `net`. Unreachable under the scheduler's
    /// dependency edges; if a slot is nonetheless empty (a missing edge),
    /// the read surfaces a typed [`TopKError::SchedulerInvariant`] so the
    /// reading victim is quarantined instead of the process aborting.
    pub fn lists(&self, net: NetId) -> Result<&NetLists, TopKError> {
        self.slots[net.index()].get().ok_or_else(|| TopKError::SchedulerInvariant {
            victim: net.index(),
            detail: "fanin slot read before its task completed — dependency edge missing".into(),
        })
    }

    /// Publishes a dirty net's freshly computed lists. Must happen
    /// before the net's dependents are released.
    pub fn publish(&self, net: NetId, lists: NetLists) {
        let fresh = self.slots[net.index()].set(lists).is_ok();
        debug_assert!(fresh, "slot for net {} published twice", net.index());
    }

    /// Unwraps into the final per-net lists vector once the sweep has
    /// completed every task. A net whose slot was never published — a
    /// broken sweep invariant — yields empty lists and is named in the
    /// companion vector, so the caller can quarantine exactly that victim
    /// (`Degraded`) instead of aborting the process.
    pub fn into_lists(self) -> (Vec<NetLists>, Vec<NetId>) {
        let mut unpublished = Vec::new();
        let lists = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                cell.into_inner().unwrap_or_else(|| {
                    unpublished.push(NetId::new(i as u32));
                    NetLists::default()
                })
            })
            .collect();
        (lists, unpublished)
    }
}

/// Deterministic pre-partition of the enumeration budgets over one
/// sweep's work set: every victim's skip flag and candidate allowance is
/// fixed *before* the sweep starts, as a pure function of the config and
/// the victim's rank (position in victim-index order within the dirty
/// work set). No thread count or schedule can move a single candidate of
/// allowance between victims.
///
/// The global pool `G` over `n` dirty victims gives rank `i` the share
/// `G / n + (1 if i < G % n)` — shares sum to exactly `G`, so the pool
/// can never be overdrawn. A victim whose share is zero (only possible
/// when a global budget is configured) is skipped outright, preserving
/// the `G = 0 ⇒ everything skipped` edge case; otherwise its allowance
/// is the smaller of the per-victim cap and its share. Clean (cached)
/// victims are not in the work set and consume no share — incremental
/// sweeps still charge only the work they actually do.
///
/// The deadline is the one budget that stays wall-clock dependent (that
/// is what a deadline *means*): it is re-checked as each task starts,
/// so the skipped set is task-granular. `Some(Duration::ZERO)` still
/// degrades every victim deterministically.
pub(crate) struct BudgetPartition {
    start: Instant,
    deadline: Option<Duration>,
    /// `(skip, allowance)` per work-set rank.
    shares: Vec<(bool, usize)>,
}

impl BudgetPartition {
    /// Partition for a work set of `n` dirty victims under `config`.
    pub fn new(config: &TopKConfig, n: usize) -> Self {
        let per = config.victim_candidate_budget.unwrap_or(usize::MAX);
        let shares = match config.global_candidate_budget {
            None => vec![(false, per); n],
            Some(global) => (0..n)
                .map(|rank| {
                    let share = global / n.max(1) + usize::from(rank < global % n.max(1));
                    (share == 0, per.min(share))
                })
                .collect(),
        };
        Self { start: Instant::now(), deadline: config.deadline, shares }
    }

    /// The pre-partitioned `(skip, allowance)` of work-set rank `rank`.
    pub fn share(&self, rank: usize) -> (bool, usize) {
        self.shares[rank]
    }

    /// Whether the wall-clock deadline has passed (checked as each task
    /// starts; always true for a zero deadline).
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| self.start.elapsed() >= d)
    }
}

/// The shared state of a parallel run, guarded by one mutex.
struct Ready {
    /// Ready tasks, costliest first; ties pop the lower task index.
    heap: BinaryHeap<(u64, Reverse<usize>)>,
    /// Dependencies each task still waits for.
    indegree: Vec<usize>,
    /// Tasks not yet completed.
    remaining: usize,
    /// Set when a task panicked: every worker stops popping.
    abort: bool,
}

fn lock(m: &Mutex<Ready>) -> MutexGuard<'_, Ready> {
    // Tasks run outside the lock, and the guarded sections only move
    // indices between plain containers, so a poisoned lock still holds
    // consistent state; recovering keeps a test-induced panic from
    // cascading.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Executes `tasks` over up to `threads` workers and returns each
/// task's output in task order, plus the scheduling counters.
///
/// `exec` must be pure up to its own victim's slot (publishing to
/// [`Slots`] before returning): the scheduler guarantees it is called
/// exactly once per task, only after all the task's dependencies
/// completed, but on an arbitrary worker at an arbitrary time.
///
/// With one worker (or one task) this runs the serial reference path: a
/// plain loop in task order, no locks. A panic escaping `exec` (a
/// harness bug — per-victim faults are caught deeper down by `run_one`)
/// aborts the run with a typed [`TopKError::EnginePanic`] naming `phase`.
pub(crate) fn execute<T, E>(
    tasks: &[Task],
    threads: usize,
    phase: FaultPhase,
    exec: E,
) -> Result<(Vec<T>, SchedStats), TopKError>
where
    T: Send,
    E: Fn(usize) -> T + Sync,
{
    let n = tasks.len();
    if n == 0 {
        return Ok((Vec::new(), SchedStats::default()));
    }
    debug_assert!(
        tasks.iter().enumerate().all(|(t, task)| task.dependents.iter().all(|&d| d > t && d < n)),
        "tasks must be laid out in topological order"
    );
    let escaped = |payload: Box<dyn std::any::Any + Send>| TopKError::EnginePanic {
        phase,
        cause: panic_message(payload.as_ref()),
    };
    if threads <= 1 || n == 1 {
        let mut busy = 0u64;
        let mut tail = 0u64;
        let out = catch_unwind(AssertUnwindSafe(|| {
            (0..n)
                .map(|t| {
                    let started = Instant::now();
                    let value = exec(t);
                    let ns = elapsed_ns(started);
                    busy = busy.saturating_add(ns);
                    tail = tail.max(ns);
                    value
                })
                .collect::<Vec<T>>()
        }));
        let stats = SchedStats {
            threads: 1,
            tasks: n,
            max_busy_ns: busy,
            min_busy_ns: busy,
            busy_ns: busy,
            tail_task_ns: tail,
        };
        return Ok((out.map_err(escaped)?, stats));
    }

    let workers = threads.min(n);
    let state = Mutex::new(Ready {
        heap: (0..n)
            .filter(|&t| tasks[t].indegree == 0)
            .map(|t| (tasks[t].cost, Reverse(t)))
            .collect(),
        indegree: tasks.iter().map(|t| t.indegree).collect(),
        remaining: n,
        abort: false,
    });
    let wake = Condvar::new();

    type WorkerPart<T> = (Vec<(usize, T)>, u64, u64);
    let run_worker = || -> Result<WorkerPart<T>, TopKError> {
        let mut done: Vec<(usize, T)> = Vec::new();
        let mut busy = 0u64;
        let mut tail = 0u64;
        let mut ready = lock(&state);
        loop {
            if ready.abort || ready.remaining == 0 {
                break;
            }
            let Some((_, Reverse(t))) = ready.heap.pop() else {
                ready = wake.wait(ready).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            drop(ready);
            let started = Instant::now();
            // Per-victim faults are quarantined inside `exec` (via
            // `run_one`); a panic reaching this boundary is a harness
            // bug and aborts the whole run with a typed error.
            let result = catch_unwind(AssertUnwindSafe(|| exec(t)));
            let ns = elapsed_ns(started);
            busy = busy.saturating_add(ns);
            tail = tail.max(ns);
            ready = lock(&state);
            match result {
                Ok(value) => {
                    done.push((t, value));
                    let mut released = 0;
                    for &d in &tasks[t].dependents {
                        ready.indegree[d] -= 1;
                        if ready.indegree[d] == 0 {
                            ready.heap.push((tasks[d].cost, Reverse(d)));
                            released += 1;
                        }
                    }
                    ready.remaining -= 1;
                    if ready.remaining == 0 {
                        wake.notify_all();
                    }
                    // This worker pops one released task itself on its
                    // next turn; each further one wakes a waiting worker.
                    for _ in 1..released {
                        wake.notify_one();
                    }
                }
                Err(payload) => {
                    ready.abort = true;
                    wake.notify_all();
                    return Err(escaped(payload));
                }
            }
        }
        drop(ready);
        Ok((done, busy, tail))
    };

    let parts: Vec<WorkerPart<T>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers).map(|_| s.spawn(run_worker)).collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(escaped).and_then(|part| part))
            .collect::<Result<_, _>>()
    })?;

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut max_busy = 0u64;
    let mut min_busy = u64::MAX;
    let mut busy_total = 0u64;
    let mut tail = 0u64;
    for (done, busy, worker_tail) in parts {
        max_busy = max_busy.max(busy);
        min_busy = min_busy.min(busy);
        busy_total = busy_total.saturating_add(busy);
        tail = tail.max(worker_tail);
        for (t, value) in done {
            debug_assert!(slots[t].is_none(), "task {t} executed twice");
            slots[t] = Some(value);
        }
    }
    let mut out: Vec<T> = Vec::with_capacity(n);
    for (t, slot) in slots.into_iter().enumerate() {
        match slot {
            Some(value) => out.push(value),
            // A worker joined cleanly without its task ever running — a
            // scheduler bug, surfaced as a typed error (the query fails,
            // the process lives) rather than an abort.
            None => {
                return Err(TopKError::SchedulerInvariant {
                    victim: t,
                    detail: "scheduler joined with a task never executed".into(),
                })
            }
        }
    }
    let stats = SchedStats {
        threads: workers,
        tasks: n,
        max_busy_ns: max_busy,
        min_busy_ns: if min_busy == u64::MAX { 0 } else { min_busy },
        busy_ns: busy_total,
        tail_task_ns: tail,
    };
    Ok((out, stats))
}

/// Maps `f` over `0..n` on up to `threads` workers — [`execute`] over a
/// task graph without edges — and returns the results in index order,
/// so a caller folding them serially resolves ties exactly as a serial
/// loop would, and the error returned is the lowest-index one. A panic
/// escaping `f` surfaces as [`TopKError::EnginePanic`] naming `phase`.
pub(crate) fn map<T: Send>(
    threads: usize,
    n: usize,
    phase: FaultPhase,
    f: impl Fn(usize) -> Result<T, TopKError> + Sync,
) -> Result<Vec<T>, TopKError> {
    let tasks: Vec<Task> =
        (0..n).map(|_| Task { dependents: Vec::new(), indegree: 0, cost: 0 }).collect();
    execute(&tasks, threads, phase, f)?.0.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    fn chain(n: usize) -> Vec<Task> {
        (0..n)
            .map(|t| Task {
                dependents: if t + 1 < n { vec![t + 1] } else { Vec::new() },
                indegree: usize::from(t > 0),
                cost: 1,
            })
            .collect()
    }

    fn independent(n: usize) -> Vec<Task> {
        (0..n).map(|t| Task { dependents: Vec::new(), indegree: 0, cost: t as u64 }).collect()
    }

    #[test]
    fn serial_and_parallel_agree_on_a_chain() {
        let tasks = chain(64);
        let phase = FaultPhase::Enumeration;
        let (serial, s_stats) = execute(&tasks, 1, phase, |t| t * 3).unwrap();
        let (parallel, p_stats) = execute(&tasks, 4, phase, |t| t * 3).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(s_stats.threads(), 1);
        assert!(p_stats.threads() > 1);
        assert_eq!(p_stats.tasks(), 64);
    }

    #[test]
    fn dependencies_are_respected_on_a_chain() {
        // Every task records the completion tick of its dependency era:
        // a task must observe its predecessor's write.
        let n = 128;
        let tasks = chain(n);
        let last = AtomicU64::new(0);
        let (out, _) = execute(&tasks, 8, FaultPhase::Enumeration, |t| {
            let seen = last.swap(t as u64 + 1, Ordering::SeqCst);
            (t as u64, seen)
        })
        .unwrap();
        for (t, (own, seen)) in out.iter().enumerate() {
            assert_eq!(*own, t as u64);
            assert_eq!(*seen, t as u64, "task {t} ran before its dependency completed");
        }
    }

    #[test]
    fn wide_graphs_complete_every_task_once() {
        let tasks = independent(500);
        let (out, stats) = execute(&tasks, 6, FaultPhase::Enumeration, |t| t).unwrap();
        assert_eq!(out, (0..500).collect::<Vec<_>>());
        assert_eq!(stats.tasks(), 500);
        assert_eq!(stats.steals(), 0, "the retired slot always reads 0");
        assert!(stats.max_busy_ns() >= stats.min_busy_ns());
    }

    #[test]
    fn escaped_panic_is_a_typed_engine_error_not_a_hang() {
        let tasks = independent(32);
        let err = execute(&tasks, 4, FaultPhase::Enumeration, |t| {
            assert!(t != 7, "scheduler-level boom");
            t
        })
        .expect_err("the panic must surface as a typed error");
        match err {
            TopKError::EnginePanic { phase, cause } => {
                assert_eq!(phase, FaultPhase::Enumeration);
                assert!(cause.contains("boom"), "cause: {cause}");
            }
            other => panic!("expected EnginePanic, got {other}"),
        }
    }

    /// SplitMix64 finalizer: a cheap, well-spread hash of a task index.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A topologically laid-out DAG over `n` tasks: each `(a, b)` pair
    /// becomes an edge from the lower to the higher of `a % n`, `b % n`
    /// (self-loops dropped, duplicates kept as the sweep would keep them).
    fn dag(n: usize, edges: &[(usize, usize)], costs: &[u64]) -> (Vec<Task>, Vec<Vec<usize>>) {
        let mut tasks: Vec<Task> = (0..n)
            .map(|t| Task { dependents: Vec::new(), indegree: 0, cost: costs[t % costs.len()] })
            .collect();
        let mut preds = vec![Vec::new(); n];
        for &(a, b) in edges {
            let (u, v) = ((a % n).min(b % n), (a % n).max(b % n));
            if u != v {
                tasks[u].dependents.push(v);
                tasks[v].indegree += 1;
                preds[v].push(u);
            }
        }
        (tasks, preds)
    }

    /// Runs the DAG on `threads` workers with a task-index-hashed 0–200 µs
    /// sleep per task, so each thread count sees its own schedule. Each
    /// task's output folds in its predecessors' outputs, read from
    /// per-task done cells that must already be set when it starts.
    fn run_dag(tasks: &[Task], preds: &[Vec<usize>], threads: usize) -> Result<Vec<u64>, String> {
        let runs: Vec<AtomicUsize> = tasks.iter().map(|_| AtomicUsize::new(0)).collect();
        let done: Vec<OnceLock<u64>> = tasks.iter().map(|_| OnceLock::new()).collect();
        let (out, _) = execute(tasks, threads, FaultPhase::Enumeration, |t| {
            runs[t].fetch_add(1, Ordering::SeqCst);
            let mut acc = mix(t as u64);
            for &p in &preds[t] {
                let finished = done[p].get().expect("task started before a dependency finished");
                acc = mix(acc ^ finished);
            }
            std::thread::sleep(Duration::from_micros(mix(t as u64) % 201));
            assert!(done[t].set(acc).is_ok(), "task {t} finished twice");
            acc
        })
        .map_err(|e| format!("threads={threads}: {e}"))?;
        match runs.iter().position(|r| r.load(Ordering::SeqCst) != 1) {
            Some(t) => Err(format!("threads={threads}: task {t} did not run exactly once")),
            None => Ok(out),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random DAGs under perturbed schedules: every task runs once,
        /// only after all its dependencies finished, and the outputs
        /// equal the serial reference path's.
        #[test]
        fn perturbed_schedules_match_the_serial_path(
            n in 1usize..40,
            edges in prop::collection::vec((0usize..1000, 0usize..1000), 0..120),
            costs in prop::collection::vec(0u64..8, 1..6),
        ) {
            let (tasks, preds) = dag(n, &edges, &costs);
            let serial = run_dag(&tasks, &preds, 1);
            prop_assert!(serial.is_ok(), "{:?}", serial);
            for threads in [2, 3, 8] {
                let parallel = run_dag(&tasks, &preds, threads);
                prop_assert!(parallel == serial, "threads={}: {:?} != {:?}", threads, parallel, serial);
            }
        }
    }

    #[test]
    fn map_returns_results_in_index_order() {
        for threads in [1, 2, 4] {
            let out = map(threads, 37, FaultPhase::Prepare, |i| Ok(i * i)).unwrap();
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn map_returns_the_lowest_index_error() {
        for threads in [1, 2, 4] {
            let err = map(threads, 20, FaultPhase::Prepare, |i| {
                if i % 7 == 3 {
                    Err(TopKError::Internal { what: format!("job {i}") })
                } else {
                    Ok(i)
                }
            })
            .expect_err("jobs 3, 10 and 17 fail");
            match err {
                TopKError::Internal { what } => assert_eq!(what, "job 3", "threads={threads}"),
                other => panic!("threads={threads}: expected Internal, got {other}"),
            }
        }
    }

    #[test]
    fn map_reports_a_panic_under_the_callers_phase() {
        for threads in [1, 2, 4] {
            let err = map(threads, 9, FaultPhase::Selection, |i| {
                assert!(i != 5, "map-level boom");
                Ok(i)
            })
            .expect_err("the panic must surface as a typed error");
            match err {
                TopKError::EnginePanic { phase, cause } => {
                    assert_eq!(phase, FaultPhase::Selection, "threads={threads}");
                    assert!(cause.contains("boom"), "cause: {cause}");
                }
                other => panic!("threads={threads}: expected EnginePanic, got {other}"),
            }
        }
    }

    #[test]
    fn budget_partition_shares_sum_to_the_pool() {
        let config = TopKConfig { global_candidate_budget: Some(10), ..TopKConfig::default() };
        let p = BudgetPartition::new(&config, 4);
        let shares: Vec<usize> = (0..4).map(|r| p.share(r).1).collect();
        assert_eq!(shares.iter().sum::<usize>(), 10);
        assert_eq!(shares, vec![3, 3, 2, 2]);
        assert!((0..4).all(|r| !p.share(r).0), "nonzero shares are not skips");
    }

    #[test]
    fn zero_global_pool_skips_every_rank() {
        let config = TopKConfig { global_candidate_budget: Some(0), ..TopKConfig::default() };
        let p = BudgetPartition::new(&config, 5);
        assert!((0..5).all(|r| p.share(r) == (true, 0)));
    }

    #[test]
    fn per_victim_cap_without_global_never_skips() {
        let config = TopKConfig { victim_candidate_budget: Some(0), ..TopKConfig::default() };
        let p = BudgetPartition::new(&config, 3);
        assert!((0..3).all(|r| p.share(r) == (false, 0)), "cap 0 truncates, never skips");
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let config = TopKConfig { deadline: Some(Duration::ZERO), ..TopKConfig::default() };
        let p = BudgetPartition::new(&config, 2);
        assert!(p.expired());
        assert!(!BudgetPartition::new(&TopKConfig::default(), 2).expired());
    }

    #[test]
    fn sched_stats_merge_is_order_insensitive() {
        let a = SchedStats {
            threads: 4,
            tasks: 10,
            max_busy_ns: 100,
            min_busy_ns: 40,
            busy_ns: 250,
            tail_task_ns: 60,
        };
        let b = SchedStats {
            threads: 2,
            tasks: 5,
            max_busy_ns: 300,
            min_busy_ns: 10,
            busy_ns: 320,
            tail_task_ns: 200,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.tasks(), 15);
        assert_eq!(ab.max_busy_ns(), 300);
        assert_eq!(ab.min_busy_ns(), 10);
        let mut with_empty = a;
        with_empty.merge(&SchedStats::default());
        assert_eq!(with_empty, a, "an empty sweep merges as identity");
    }
}
