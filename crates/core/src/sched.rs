//! Deterministic work-stealing scheduler for the per-victim sweeps.
//!
//! The level-lockstep sweep this module replaces (PR 2–5) synchronized
//! workers at every dependency level: a barrier per level, budgets
//! snapshotted and charged at the barriers. That made determinism easy
//! but serialized the long tail — one high-fanin victim at the end of a
//! level idled every other worker, and on skewed circuits `threads=4`
//! ran *slower* than serial. The barriers were ours, not the problem's:
//! a victim's enumeration depends only on its strict fanin, never on
//! same-level siblings.
//!
//! This scheduler keeps the determinism and drops the barriers:
//!
//! * **Per-victim tasks on work-stealing deques.** Each worker owns a
//!   deque (owner pops LIFO from the back, thieves steal FIFO from the
//!   front — the Chase–Lev discipline, here over a `Mutex<VecDeque>`
//!   because the crate forbids `unsafe` and the tasks are coarse enough
//!   that lock traffic is noise). A task becomes ready the moment its
//!   last fanin dependency completes, not when its level starts.
//! * **Victim-indexed result slots.** Every task writes its output into
//!   a slot owned by its victim ([`Slots`], one write-once cell per
//!   net), so completion order — and therefore steal order and thread
//!   count — can never affect what is stored where. Stats that cross
//!   victims ([`crate::SweepStats`], fault lists) are merged with
//!   commutative/associative folds after the sweep joins.
//! * **Pre-partitioned budgets.** The global candidate budget is split
//!   into per-victim shares *before* the sweep starts, by rank in
//!   victim-index order ([`BudgetPartition`]) — replacing the old
//!   level-barrier charging. Which victims are skipped or truncated is
//!   a pure function of (circuit, config, dirty set); no schedule can
//!   change it.
//! * **LPT seeding.** The initial ready set is dealt to the deques
//!   longest-processing-time-first using cached per-victim cost
//!   estimates, so the giant tail tasks start immediately instead of
//!   last.
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
//!
//! The steal-order axis can be perturbed deliberately (without touching
//! results) via the `DNA_SCHED_SHUFFLE` environment variable — a
//! deterministic seed the CI stress pass sweeps to shake out schedule
//! dependence.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use dna_netlist::NetId;

use crate::engine::{panic_message, NetLists};
use crate::result::FaultPhase;
use crate::{arena, TopKConfig, TopKError};

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
    /// Cost estimate for LPT seeding (higher = scheduled earlier).
    pub cost: u64,
}

/// Scheduling counters of one sweep: how the work spread over the
/// workers. Diagnostic only — never part of a result fingerprint, never
/// persisted in artifacts, and excluded from every identity contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    pub(crate) threads: usize,
    pub(crate) tasks: usize,
    pub(crate) steals: usize,
    pub(crate) max_busy_ns: u64,
    pub(crate) min_busy_ns: u64,
    pub(crate) busy_ns: u64,
    pub(crate) tail_task_ns: u64,
    pub(crate) arena_reused: u64,
    pub(crate) arena_fresh: u64,
    pub(crate) arena_bytes_reused: u64,
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

    /// Tasks a worker took from another worker's deque.
    #[must_use]
    pub fn steals(&self) -> usize {
        self.steals
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

    /// Busy nanoseconds of the single longest task — the tail the
    /// level-lockstep sweep used to serialize on.
    #[must_use]
    pub fn tail_task_ns(&self) -> u64 {
        self.tail_task_ns
    }

    /// Envelope scratch buffers served from the per-worker arena free
    /// lists instead of fresh allocations (the crate's scratch arena).
    #[must_use]
    pub fn arena_reused(&self) -> u64 {
        self.arena_reused
    }

    /// Envelope scratch buffers that had to be freshly allocated (free
    /// list empty — the warm-up cost of each worker's pool).
    #[must_use]
    pub fn arena_fresh(&self) -> u64 {
        self.arena_fresh
    }

    /// Capacity bytes of the reused buffers — heap traffic the arena
    /// absorbed that the eager allocator would have paid per push.
    #[must_use]
    pub fn arena_bytes_reused(&self) -> u64 {
        self.arena_bytes_reused
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
        self.steals += other.steals;
        self.max_busy_ns = self.max_busy_ns.max(other.max_busy_ns);
        self.min_busy_ns = self.min_busy_ns.min(other.min_busy_ns);
        self.busy_ns += other.busy_ns;
        self.tail_task_ns = self.tail_task_ns.max(other.tail_task_ns);
        self.arena_reused += other.arena_reused;
        self.arena_fresh += other.arena_fresh;
        self.arena_bytes_reused += other.arena_bytes_reused;
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
    /// broken sweep invariant — yields empty lists plus a typed
    /// [`TopKError::SchedulerInvariant`] in the companion vector, so the
    /// caller can quarantine that victim (`Degraded`) instead of
    /// aborting the process.
    pub fn into_lists(self) -> (Vec<NetLists>, Vec<TopKError>) {
        let mut violations = Vec::new();
        let lists = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                cell.into_inner().unwrap_or_else(|| {
                    violations.push(TopKError::SchedulerInvariant {
                        victim: i,
                        detail: "result slot never published after a completed sweep".into(),
                    });
                    NetLists::default()
                })
            })
            .collect();
        (lists, violations)
    }
}

/// Deterministic pre-partition of the enumeration budgets over one
/// sweep's work set, replacing the level-barrier charging of the old
/// `SweepBudget`: every victim's skip flag and candidate allowance is
/// fixed *before* the sweep starts, as a pure function of the config and
/// the victim's rank (position in victim-index order within the dirty
/// work set). No thread count or steal order can move a single
/// candidate of allowance between victims.
///
/// The global pool `G` over `n` dirty victims gives rank `i` the share
/// `G / n + (1 if i < G % n)` — shares sum to exactly `G`, so unlike the
/// barrier scheme the pool can never be overdrawn. A victim whose share
/// is zero (only possible when a global budget is configured) is
/// skipped outright, preserving the `G = 0 ⇒ everything skipped` edge
/// case; otherwise its allowance is the smaller of the per-victim cap
/// and its share. Clean (cached) victims are not in the work set and
/// consume no share — incremental sweeps still charge only the work
/// they actually do.
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

/// The deterministic steal-order perturbation seed (`DNA_SCHED_SHUFFLE`,
/// default 0). Changing it reshuffles LPT deal order and steal probing —
/// and must never change a single output bit; the CI stress pass sweeps
/// it to prove that.
fn shuffle_seed() -> u64 {
    std::env::var("DNA_SCHED_SHUFFLE").ok().and_then(|s| s.parse().ok()).unwrap_or(0)
}

fn lock<'m, T>(m: &'m Mutex<T>) -> std::sync::MutexGuard<'m, T> {
    // A worker never panics while holding a deque lock (the guarded
    // section is pure pointer shuffling), but recovering from poison
    // keeps the scheduler from cascading a test-induced panic.
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
/// plain loop in task order, no deques, no atomics. A panic escaping
/// `exec` (a harness bug — per-victim faults are caught deeper down by
/// `run_one`) aborts the sweep with a typed [`TopKError::EnginePanic`].
pub(crate) fn execute<T, E>(
    tasks: &[Task],
    threads: usize,
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
    if threads <= 1 || n == 1 {
        let mut out = Vec::with_capacity(n);
        let mut busy = 0u64;
        let mut tail = 0u64;
        for t in 0..n {
            let started = Instant::now();
            out.push(exec(t));
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            busy = busy.saturating_add(ns);
            tail = tail.max(ns);
        }
        let arena = arena::drain_stats();
        let stats = SchedStats {
            threads: 1,
            tasks: n,
            steals: 0,
            max_busy_ns: busy,
            min_busy_ns: busy,
            busy_ns: busy,
            tail_task_ns: tail,
            arena_reused: arena.reused,
            arena_fresh: arena.fresh,
            arena_bytes_reused: arena.bytes_reused,
        };
        return Ok((out, stats));
    }

    let workers = threads.min(n);
    let seed = shuffle_seed();
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    let indegree: Vec<AtomicUsize> = tasks.iter().map(|t| AtomicUsize::new(t.indegree)).collect();
    let remaining = AtomicUsize::new(n);
    let abort = AtomicBool::new(false);
    let steals = AtomicUsize::new(0);

    // LPT seeding: deal the initial ready set round-robin in *ascending*
    // cost order, so each deque's back (the owner's next pop) holds its
    // most expensive seed — every worker starts on a giant task while
    // thieves later drain the cheap front ends. The shuffle seed rotates
    // the deal and breaks cost ties, exercising different layouts.
    let mut ready: Vec<usize> = (0..n).filter(|&t| tasks[t].indegree == 0).collect();
    ready.sort_by_key(|&t| (tasks[t].cost, (t as u64) ^ seed));
    for (i, t) in ready.into_iter().enumerate() {
        let w = (i + seed as usize) % workers;
        lock(&deques[w]).push_back(t);
    }

    type WorkerPart<T> = (Vec<(usize, T)>, u64, u64, arena::ArenaStats);
    type WorkerOut<T> = Result<WorkerPart<T>, String>;
    let run_worker = |w: usize| -> WorkerOut<T> {
        let mut done: Vec<(usize, T)> = Vec::new();
        let mut busy = 0u64;
        let mut tail = 0u64;
        loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            // Owner pops its own back (LIFO); a thief steals another
            // worker's front (FIFO), probing in a seed-directed order.
            let mut task = lock(&deques[w]).pop_back();
            if task.is_none() {
                for off in 1..workers {
                    let victim = if seed & 1 == 0 {
                        (w + off) % workers
                    } else {
                        (w + workers - off) % workers
                    };
                    task = lock(&deques[victim]).pop_front();
                    if task.is_some() {
                        steals.fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
            }
            let Some(t) = task else {
                if remaining.load(Ordering::Acquire) == 0 {
                    break;
                }
                std::thread::yield_now();
                continue;
            };
            let started = Instant::now();
            // Per-victim faults are quarantined inside `exec` (via
            // `run_one`); a panic reaching this boundary is a harness
            // bug and must abort the whole sweep with a typed error —
            // setting the flag first so no sibling spins forever on a
            // task count that will never drain.
            let result = catch_unwind(AssertUnwindSafe(|| exec(t)));
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            busy = busy.saturating_add(ns);
            tail = tail.max(ns);
            match result {
                Ok(value) => {
                    done.push((t, value));
                    for &d in &tasks[t].dependents {
                        if indegree[d].fetch_sub(1, Ordering::AcqRel) == 1 {
                            lock(&deques[w]).push_back(d);
                        }
                    }
                    remaining.fetch_sub(1, Ordering::AcqRel);
                }
                Err(payload) => {
                    abort.store(true, Ordering::SeqCst);
                    return Err(panic_message(payload.as_ref()));
                }
            }
        }
        // Worker epilogue: harvest the thread-local arena counters while
        // still on the worker thread (they are invisible after the join).
        Ok((done, busy, tail, arena::drain_stats()))
    };

    let joined: Result<Vec<WorkerPart<T>>, TopKError> = std::thread::scope(|s| {
        let run_worker = &run_worker;
        let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || run_worker(w))).collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(Ok(part)) => Ok(part),
                Ok(Err(cause)) => {
                    Err(TopKError::EnginePanic { phase: FaultPhase::Enumeration, cause })
                }
                Err(payload) => Err(TopKError::EnginePanic {
                    phase: FaultPhase::Enumeration,
                    cause: panic_message(payload.as_ref()),
                }),
            })
            .collect()
    });
    let parts = joined?;

    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let mut max_busy = 0u64;
    let mut min_busy = u64::MAX;
    let mut busy_total = 0u64;
    let mut tail = 0u64;
    let mut arena_total = arena::ArenaStats::default();
    for (done, busy, worker_tail, arena_part) in parts {
        max_busy = max_busy.max(busy);
        min_busy = min_busy.min(busy);
        busy_total = busy_total.saturating_add(busy);
        tail = tail.max(worker_tail);
        arena_total.reused += arena_part.reused;
        arena_total.fresh += arena_part.fresh;
        arena_total.bytes_reused += arena_part.bytes_reused;
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
        steals: steals.load(Ordering::Relaxed),
        max_busy_ns: max_busy,
        min_busy_ns: if min_busy == u64::MAX { 0 } else { min_busy },
        busy_ns: busy_total,
        tail_task_ns: tail,
        arena_reused: arena_total.reused,
        arena_fresh: arena_total.fresh,
        arena_bytes_reused: arena_total.bytes_reused,
    };
    Ok((out, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
        let (serial, s_stats) = execute(&tasks, 1, |t| t * 3).unwrap();
        let (parallel, p_stats) = execute(&tasks, 4, |t| t * 3).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(s_stats.threads(), 1);
        assert!(p_stats.threads() > 1);
        assert_eq!(p_stats.tasks(), 64);
    }

    #[test]
    fn dependencies_are_respected_under_stealing() {
        // Every task records the completion tick of its dependency era:
        // a task must observe its predecessor's write.
        let n = 128;
        let tasks = chain(n);
        let last = AtomicU64::new(0);
        let (out, _) = execute(&tasks, 8, |t| {
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
        let (out, stats) = execute(&tasks, 6, |t| t).unwrap();
        assert_eq!(out, (0..500).collect::<Vec<_>>());
        assert_eq!(stats.tasks(), 500);
        assert!(stats.max_busy_ns() >= stats.min_busy_ns());
    }

    #[test]
    fn escaped_panic_is_a_typed_engine_error_not_a_hang() {
        let tasks = independent(32);
        let err = execute(&tasks, 4, |t| {
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
            steals: 3,
            max_busy_ns: 100,
            min_busy_ns: 40,
            busy_ns: 250,
            tail_task_ns: 60,
            arena_reused: 7,
            arena_fresh: 2,
            arena_bytes_reused: 1024,
        };
        let b = SchedStats {
            threads: 2,
            tasks: 5,
            steals: 1,
            max_busy_ns: 300,
            min_busy_ns: 10,
            busy_ns: 320,
            tail_task_ns: 200,
            arena_reused: 5,
            arena_fresh: 1,
            arena_bytes_reused: 512,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.tasks(), 15);
        assert_eq!(ab.steals(), 4);
        assert_eq!(ab.max_busy_ns(), 300);
        assert_eq!(ab.min_busy_ns(), 10);
        assert_eq!(ab.arena_reused(), 12);
        assert_eq!(ab.arena_fresh(), 3);
        assert_eq!(ab.arena_bytes_reused(), 1536);
        let mut with_empty = a;
        with_empty.merge(&SchedStats::default());
        assert_eq!(with_empty, a, "an empty sweep merges as identity");
    }
}
