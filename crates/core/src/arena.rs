//! Per-worker scratch arena for envelope breakpoint buffers.
//!
//! The enumeration scores every admitted candidate without building its
//! envelope; only the candidates that survive ranking (at most
//! `max(4·width, 64)` per round with a beam) are materialized, and the
//! dominance pass then discards most of those. The arena is a
//! thread-local free list: materialization takes a buffer
//! ([`take_buf`]), the dominance pass hands the buffers of discarded
//! candidates back ([`give_buf`]), and survivors simply keep theirs —
//! promotion out of the arena is ownership transfer, no copy. Buffers
//! stay with the worker thread across the victims it runs, so a
//! warmed-up sweep performs no per-survivor heap allocation for envelope
//! sums.
//!
//! Counters are thread-local too; the scheduler harvests them into
//! [`SchedStats`](crate::sched::SchedStats) at each worker's epilogue.
//! They are observability only — never part of results, fingerprints, or
//! persisted artifacts, since their split across workers depends on the
//! nondeterministic schedule (the totals are deterministic for a
//! fixed thread count, the per-worker attribution is not).

use std::cell::RefCell;

/// Free-list depth per worker. Beyond this, returned buffers are dropped:
/// one round discards at most a few hundred candidates and the next round
/// reuses them immediately, so a deeper pool would only hoard memory.
const POOL_MAX: usize = 64;

/// Allocation-recycling counters for one worker thread.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ArenaStats {
    /// Buffers served from the free list.
    pub reused: u64,
    /// Buffers that had to be freshly allocated (pool empty).
    pub fresh: u64,
    /// Capacity bytes of the reused buffers — the allocation traffic the
    /// arena absorbed.
    pub bytes_reused: u64,
}

thread_local! {
    static POOL: RefCell<Vec<Vec<(f64, f64)>>> = const { RefCell::new(Vec::new()) };
    static STATS: RefCell<ArenaStats> =
        const { RefCell::new(ArenaStats { reused: 0, fresh: 0, bytes_reused: 0 }) };
}

/// A (cleared) breakpoint buffer: recycled from the free list when one is
/// available, freshly allocated otherwise.
pub(crate) fn take_buf() -> Vec<(f64, f64)> {
    match POOL.with(|p| p.borrow_mut().pop()) {
        Some(buf) => {
            STATS.with(|s| {
                let mut s = s.borrow_mut();
                s.reused += 1;
                s.bytes_reused += (buf.capacity() * std::mem::size_of::<(f64, f64)>()) as u64;
            });
            buf
        }
        None => {
            STATS.with(|s| s.borrow_mut().fresh += 1);
            Vec::new()
        }
    }
}

/// Returns a buffer to the free list (dropped when the pool is full or
/// the buffer never grew).
pub(crate) fn give_buf(mut buf: Vec<(f64, f64)>) {
    if buf.capacity() == 0 {
        return;
    }
    buf.clear();
    POOL.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < POOL_MAX {
            pool.push(buf);
        }
    });
}

/// Drains this thread's counters — the scheduler's per-worker harvest.
pub(crate) fn drain_stats() -> ArenaStats {
    STATS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_and_counts() {
        let _ = drain_stats();
        let mut a = take_buf();
        a.reserve(128);
        give_buf(a);
        let b = take_buf();
        assert!(b.capacity() >= 128, "free list must hand the buffer back");
        give_buf(b);
        let s = drain_stats();
        assert_eq!(s.reused + s.fresh, 2);
        assert!(s.reused >= 1);
        assert!(s.bytes_reused >= 128 * std::mem::size_of::<(f64, f64)>() as u64);
        // Drained: a second harvest starts from zero.
        let s = drain_stats();
        assert_eq!(s.reused + s.fresh, 0);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let _ = drain_stats();
        give_buf(Vec::new());
        let s = drain_stats();
        assert_eq!(s.reused + s.fresh, 0);
    }
}
