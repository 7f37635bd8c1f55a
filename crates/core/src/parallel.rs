//! Parallel separate verification (§11).
//!
//! Properties are independent jobs under separate verification, so
//! they can be farmed out to worker threads; the shared [`ClauseDb`]
//! provides the (optional) exchange of strengthening clauses. The
//! paper argues that the larger the property set, the *less*
//! information exchange matters — local proofs get easier with more
//! constraints — which is what makes the parallelization embarrassing.
//!
//! The driver honors the full [`SeparateOptions`]: with
//! [`Scope::Local`](crate::Scope::Local) it is the parallel JA-verification of §11, with
//! [`Scope::Global`](crate::Scope::Global) a parallel version of the separate-global
//! baseline, and the per-property backend overrides let a portfolio
//! run different SAT backends side by side.
//!
//! # Scheduling and incrementality
//!
//! The driver encodes the design **once**, shares the encoding across
//! workers, and gives every worker a warm solver pool so consecutive
//! properties skip the per-property encode-and-reload cost entirely.
//! Jobs are ordered hardest-first (by the size of each property's
//! sequential cone of influence, from the clustering module) and dealt
//! into per-worker deques; a worker that runs dry **steals** the back
//! half of another worker's deque, so one long proof cannot strand the
//! queue behind it.

use crate::{MultiReport, SeparateOptions, Session};
use japrove_tsys::TransitionSystem;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Hardest-first work-stealing dispatcher over job slots `0..n`.
///
/// Jobs are dealt round-robin (in priority order) into one deque per
/// worker; an idle worker steals the back half — the *easiest* pending
/// work — of the first non-empty victim deque. Moves happen with both
/// deques locked (in index order, so concurrent steals cannot
/// deadlock), so every job is visible in exactly one deque at any
/// moment and a popped job is exclusively owned and runs exactly once.
/// A count of still-queued jobs prevents a worker that scans during
/// someone else's steal from mistaking the transfer for exhaustion.
pub(crate) struct Dispatcher {
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Jobs dealt but not yet popped for execution. `Relaxed` is
    /// enough: the counter only decreases, and a stale (higher) read
    /// merely causes one more rescan — never a premature exit.
    queued: AtomicUsize,
}

impl Dispatcher {
    /// Deals `jobs` (already priority-sorted) across `workers` deques.
    pub(crate) fn new(jobs: &[usize], workers: usize) -> Self {
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (i, &job) in jobs.iter().enumerate() {
            queues[i % workers].push_back(job);
        }
        Dispatcher {
            queues: queues.into_iter().map(Mutex::new).collect(),
            queued: AtomicUsize::new(jobs.len()),
        }
    }

    fn lock(&self, i: usize) -> MutexGuard<'_, VecDeque<usize>> {
        self.queues[i].lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The next job for worker `me`: own deque front first (its hardest
    /// remaining job), then stolen work. `None` once no job is queued
    /// anywhere — any still-unfinished job is then being executed by
    /// the worker that popped it.
    pub(crate) fn pop(&self, me: usize) -> Option<usize> {
        loop {
            if let Some(j) = self.lock(me).pop_front() {
                self.queued.fetch_sub(1, Ordering::Relaxed);
                return Some(j);
            }
            if self.steal_into(me) {
                continue;
            }
            if self.queued.load(Ordering::Relaxed) == 0 {
                return None;
            }
            // Jobs exist but every deque looked empty: a concurrent
            // steal is mid-transfer. Yield and rescan.
            std::thread::yield_now();
        }
    }

    /// Moves the back half of the first non-empty victim deque into
    /// `me`'s deque; `false` if every other deque was empty.
    fn steal_into(&self, me: usize) -> bool {
        let n = self.queues.len();
        for off in 1..n {
            let victim = (me + off) % n;
            // Both locks in index order: deadlock-free, and the jobs
            // are never invisible between deques.
            let (mut mine, mut theirs) = if me < victim {
                let mine = self.lock(me);
                (mine, self.lock(victim))
            } else {
                let theirs = self.lock(victim);
                (self.lock(me), theirs)
            };
            let take = theirs.len().div_ceil(2);
            if take == 0 {
                continue;
            }
            // pop_back yields easiest-first; reverse so the hardest
            // stolen job sits at our front, keeping the hardest-first
            // discipline within the stolen batch.
            let stolen: Vec<usize> = (0..take).filter_map(|_| theirs.pop_back()).collect();
            mine.extend(stolen.into_iter().rev());
            return true;
        }
        false
    }
}

/// Runs separate verification with `threads` worker threads.
///
/// Behaviourally equivalent to [`crate::separate_verify`] with the
/// same options (same verdicts) — in particular [`Scope::Global`](crate::Scope::Global) is
/// honored, not silently downgraded to local proofs; clause re-use
/// becomes best-effort: each property sees the clauses published
/// before its own run started, plus any it picks up from the shared
/// store while running.
///
/// # Panics
///
/// Panics if `threads == 0`.
///
/// # Examples
///
/// ```
/// use japrove_aig::Aig;
/// use japrove_core::{parallel_ja_verify, SeparateOptions};
/// use japrove_tsys::{TransitionSystem, Word};
///
/// let mut aig = Aig::new();
/// let c = Word::latches(&mut aig, 4, 0);
/// let n = c.increment(&mut aig);
/// c.set_next(&mut aig, &n);
/// let ok = c.lt_const(&mut aig, 16);
/// let mut sys = TransitionSystem::new("cnt", aig);
/// sys.add_property("in_range", ok);
/// let report = parallel_ja_verify(&sys, 2, &SeparateOptions::local());
/// assert_eq!(report.num_true(), 1);
/// ```
pub fn parallel_ja_verify(
    sys: &TransitionSystem,
    threads: usize,
    opts: &SeparateOptions,
) -> MultiReport {
    Session::parallel(opts.clone(), threads).run(sys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_aig::Aig;

    #[test]
    fn dispatcher_hands_out_every_job_exactly_once() {
        for workers in [1usize, 2, 5] {
            let jobs: Vec<usize> = (0..23).collect();
            let dispatcher = Dispatcher::new(&jobs, workers);
            let seen = Mutex::new(Vec::new());
            std::thread::scope(|s| {
                for w in 0..workers {
                    let dispatcher = &dispatcher;
                    let seen = &seen;
                    s.spawn(move || {
                        while let Some(j) = dispatcher.pop(w) {
                            seen.lock().unwrap_or_else(|p| p.into_inner()).push(j);
                        }
                    });
                }
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_unstable();
            assert_eq!(seen, jobs, "{workers} workers");
        }
    }

    #[test]
    fn stealing_drains_a_stacked_queue() {
        // All jobs dealt to worker 0's deque; worker 1 must still get
        // work via stealing.
        let dispatcher = Dispatcher::new(&(0..10).collect::<Vec<_>>(), 1);
        // Manually extend to a second, empty queue.
        let dispatcher = Dispatcher {
            queues: dispatcher
                .queues
                .into_iter()
                .chain([Mutex::new(VecDeque::new())])
                .collect(),
            queued: dispatcher.queued,
        };
        let mut got = Vec::new();
        while let Some(j) = dispatcher.pop(1) {
            got.push(j);
        }
        assert_eq!(got.len(), 10, "thief alone drains the victim queue");
    }

    #[test]
    fn zero_properties_yield_an_empty_report() {
        let mut aig = Aig::new();
        let l = aig.add_latch(false);
        aig.set_next(l, l);
        let sys = TransitionSystem::new("empty", aig);
        let report = parallel_ja_verify(&sys, 4, &SeparateOptions::local());
        assert!(report.results.is_empty());
    }
}
