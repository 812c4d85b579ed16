//! The worker pool: drives a sharded fleet's per-shard event loops across
//! OS threads with work stealing, without giving up determinism.
//!
//! Shards share no state — each [`Server`] owns its catalog, store, cache,
//! budget and heap — so the only thing parallelism can change is *which
//! thread* runs a shard, never *what the shard computes*. The pool turns
//! that into a hard contract:
//!
//! * **One round per drive.** A parallel drive has one goal (serve
//!   everything due by an instant, or drain completely) and returns when
//!   every shard has committed it.
//! * **Deterministic ownership, opportunistic stealing.** Before any
//!   worker starts, worker `w`'s deque is filled with shards `w, w+W,
//!   w+2W, …` (a pure function of the worker count). A worker that runs
//!   dry pops from the *back* of its neighbours' deques. Stealing moves a
//!   shard index between deques — it never splits a shard's work — so each
//!   shard is still driven by exactly one thread per drive, in the same
//!   simulated-time order a sequential loop would use.
//! * **Simulated time is untouched.** Every shard serves its own elements
//!   at the same exact rational instants it would single-threaded, so
//!   stats, metrics and (per-shard) traces are byte-identical at any
//!   worker count. The only parallel-observable quantities are the
//!   [`WorkerStats`] counters, which depend on host scheduling and are
//!   deliberately kept *outside* the deterministic surface (they are not
//!   merged into [`crate::ShardedServer::metrics`]).
//!
//! The pool spawns scoped threads per drive, so it is engaged only when a
//! drive actually has due work — idle `run_until` calls stay on the cheap
//! sequential path.

use crate::Server;
use std::collections::VecDeque;
use std::sync::Mutex;
use tbm_blob::BlobStore;
use tbm_time::TimePoint;

/// What a parallel drive asks of every shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RoundGoal {
    /// Serve everything due at or before the instant.
    RunUntil(TimePoint),
    /// Drain the event loop completely (the finish drive).
    Drain,
}

/// Per-worker counters from parallel drives — host-scheduling diagnostics,
/// **outside** the determinism contract (two identical runs may steal
/// differently; the served elements are identical either way).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Shard-drive slots this worker executed (own share + stolen).
    pub shards_run: u64,
    /// Slots taken from another worker's deque.
    pub steals: u64,
    /// Parallel drives (one round each) this worker participated in.
    pub rounds: u64,
}

impl WorkerStats {
    /// Adds another drive's counters into this one.
    pub fn absorb(&mut self, other: &WorkerStats) {
        self.shards_run += other.shards_run;
        self.steals += other.steals;
        self.rounds += other.rounds;
    }
}

/// Drives every shard to `goal` on `workers` scoped threads. Returns
/// per-worker counters.
///
/// The servers are moved into per-shard mutex slots for the drive and
/// moved back out afterwards; a shard index lives in exactly one deque at
/// a time, so each slot lock is uncontended — it exists to satisfy the
/// borrow checker across threads, not to serialise work.
pub(crate) fn run_round<S: BlobStore>(
    shards: &mut Vec<Server<S>>,
    goal: RoundGoal,
    workers: usize,
) -> Vec<WorkerStats> {
    let n = shards.len();
    let workers = workers.clamp(1, n.max(1));
    let slots: Vec<Mutex<Server<S>>> = std::mem::take(shards).into_iter().map(Mutex::new).collect();
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..n).step_by(workers).collect()))
        .collect();
    let mut stats = vec![WorkerStats::default(); workers];

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let slots = &slots;
                let queues = &queues;
                scope.spawn(move || {
                    let mut my = WorkerStats {
                        rounds: 1,
                        ..WorkerStats::default()
                    };
                    loop {
                        let mut task = queues[w].lock().unwrap().pop_front().map(|i| (i, false));
                        if task.is_none() {
                            for off in 1..workers {
                                let victim = (w + off) % workers;
                                if let Some(i) = queues[victim].lock().unwrap().pop_back() {
                                    task = Some((i, true));
                                    break;
                                }
                            }
                        }
                        // Indices are only ever removed, so all-deques-
                        // empty is a stable exit condition: every
                        // remaining shard is already claimed by the
                        // worker that popped it.
                        let Some((shard, stolen)) = task else { break };
                        my.shards_run += 1;
                        if stolen {
                            my.steals += 1;
                        }
                        let mut server = slots[shard].lock().unwrap();
                        match goal {
                            RoundGoal::RunUntil(to) => server.run_until(to),
                            RoundGoal::Drain => server.drain_all(),
                        }
                    }
                    my
                })
            })
            .collect();
        for (w, h) in handles.into_iter().enumerate() {
            stats[w] = h.join().expect("pool worker panicked");
        }
    });

    *shards = slots
        .into_iter()
        .map(|m| m.into_inner().expect("pool worker poisoned a shard"))
        .collect();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn servers_cross_threads() {
        // The whole point of the Arc/Mutex tracer and the `Send`
        // supertrait on `BlobStore`: a full server (catalog, store, cache,
        // tracer) must be movable onto a pool worker.
        assert_send::<Server<tbm_blob::MemBlobStore>>();
        assert_send::<Server<tbm_blob::FaultyBlobStore<tbm_blob::MemBlobStore>>>();
    }

    #[test]
    fn worker_stats_absorb_adds() {
        let mut a = WorkerStats {
            shards_run: 3,
            steals: 1,
            rounds: 2,
        };
        a.absorb(&WorkerStats {
            shards_run: 4,
            steals: 2,
            rounds: 2,
        });
        assert_eq!(
            a,
            WorkerStats {
                shards_run: 7,
                steals: 3,
                rounds: 4,
            }
        );
    }
}
