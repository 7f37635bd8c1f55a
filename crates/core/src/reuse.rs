//! The clause database of §7-B (`clauseDB`).
//!
//! Ja-ver maintains an external store of strengthening clauses: after
//! property `P1` is made inductive, the clauses of `G_P1` are recorded;
//! a later proof of `P2` initializes its frames with them, and appends
//! its own `G_P2`. Every clause in the store holds in all states
//! reachable under the (projected) transition relation, which is
//! exactly the soundness condition for seeding IC3 frames (§6-B).
//!
//! # Performance
//!
//! The store is built for the parallel driver's hot path, where every
//! worker publishes certificates and snapshots concurrently:
//!
//! * clauses are spread over [`NUM_SHARDS`] independently locked
//!   shards;
//! * each shard keeps a **literal-occurrence index** plus a 64-bit
//!   **literal signature** per clause, turning both subsumption
//!   directions from full scans into a few candidate probes — the
//!   original `Vec` store made `publish` quadratic in the database
//!   size (see `clausedb_benches` in the bench crate);
//! * a monotone [`ClauseDb::version`] addition cursor plus an
//!   append-only log let long-running engines pull just the clauses
//!   published since their last poll ([`ClauseDb::clauses_since`],
//!   the O(delta) path behind the [`ClauseSource`] impl) instead of
//!   re-cloning the whole store.
//!
//! A published clause is dropped if some stored clause subsumes it,
//! and evicts every stored clause it subsumes. Publishes serialize on
//! the log's lock, so concurrent readers see each published batch
//! whole or not at all (see [`ClauseDb::publish`] for why that matters
//! to certificates).

use japrove_ic3::ClauseSource;
use japrove_logic::Clause;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Number of independently locked shards. A small power of two: enough
/// to decongest an 8-worker driver, cheap to scan for snapshots.
const NUM_SHARDS: usize = 8;

/// A 64-bit Bloom-style literal signature: bit `h(l)` is set for every
/// literal `l` of the clause. `sig(a) & !sig(b) != 0` proves that `a`
/// contains a literal `b` lacks, i.e. `a` cannot subsume `b`.
fn signature(clause: &Clause) -> u64 {
    clause.iter().fold(0u64, |sig, &l| {
        sig | 1u64 << ((l.code() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58)
    })
}

/// One lock's worth of clauses plus its indexes. Slots are tombstoned
/// on eviction (`None`) and compacted once the dead outnumber the
/// live, so occurrence lists stay valid without per-eviction cleanup.
#[derive(Debug, Default)]
struct Shard {
    clauses: Vec<Option<Clause>>,
    sigs: Vec<u64>,
    /// Literal code → slots of clauses containing that literal.
    occur: HashMap<u32, Vec<u32>>,
    live: usize,
}

impl Shard {
    /// `true` if some stored clause subsumes `clause`. A subsuming
    /// clause's literals are all literals of `clause`, so it appears in
    /// the occurrence list of each of them — the union of those lists
    /// covers every candidate.
    fn subsumes_new(&self, clause: &Clause, sig: u64) -> bool {
        clause.iter().any(|l| {
            self.occur.get(&l.code()).is_some_and(|slots| {
                slots.iter().any(|&s| {
                    self.sigs[s as usize] & !sig == 0
                        && self.clauses[s as usize]
                            .as_ref()
                            .is_some_and(|c| c.len() <= clause.len() && c.subsumes_sorted(clause))
                })
            })
        })
    }

    /// Evicts every stored clause that `clause` subsumes. A subsumed
    /// clause contains *all* literals of `clause`, so probing the
    /// occurrence list of any single literal (the rarest one) suffices.
    fn evict_subsumed(&mut self, clause: &Clause, sig: u64) {
        let Some(probe) = clause
            .iter()
            .min_by_key(|l| self.occur.get(&l.code()).map_or(0, Vec::len))
        else {
            return; // the empty clause subsumes everything, but is never published
        };
        let slots = match self.occur.get(&probe.code()) {
            Some(slots) => slots.clone(),
            None => return,
        };
        for s in slots {
            let keep = match &self.clauses[s as usize] {
                Some(c) => {
                    sig & !self.sigs[s as usize] != 0
                        || clause.len() > c.len()
                        || !clause.subsumes_sorted(c)
                }
                None => true,
            };
            if !keep {
                self.clauses[s as usize] = None;
                self.live -= 1;
            }
        }
        self.maybe_compact();
    }

    fn insert(&mut self, clause: Clause, sig: u64) {
        let slot = self.clauses.len() as u32;
        for &l in clause.iter() {
            self.occur.entry(l.code()).or_default().push(slot);
        }
        self.clauses.push(Some(clause));
        self.sigs.push(sig);
        self.live += 1;
    }

    /// Rebuilds the slot vectors once tombstones outnumber live
    /// clauses, keeping occurrence lists short.
    fn maybe_compact(&mut self) {
        if self.clauses.len() < 32 || self.live * 2 > self.clauses.len() {
            return;
        }
        let old = std::mem::take(&mut self.clauses);
        self.sigs.clear();
        self.occur.clear();
        self.live = 0;
        for clause in old.into_iter().flatten() {
            let sig = signature(&clause);
            self.insert(clause, sig);
        }
    }
}

/// Cap on the addition log. Beyond it the oldest half is dropped
/// (advancing `base`), so the log cannot grow unboundedly past the
/// live store on eviction-heavy workloads. The cut can fall inside a
/// publish batch, so a reader whose cursor falls behind the compacted
/// window gets the whole store instead of the log's tail (see
/// [`ClauseDb::clauses_since`]).
const LOG_CAP: usize = 1 << 15;

/// The append-only addition log behind [`ClauseDb::clauses_since`].
/// `base` counts additions that were logged before the last
/// [`ClauseDb::clear`] or compaction, so cursors stay monotone.
#[derive(Debug, Default)]
struct AddLog {
    base: u64,
    clauses: Vec<Clause>,
}

#[derive(Debug, Default)]
struct DbInner {
    shards: [Mutex<Shard>; NUM_SHARDS],
    /// Every clause ever added, in addition order; the delta feed for
    /// mid-run refreshes (evictions are deliberately not reflected —
    /// a subsumed clause a reader already holds is merely redundant).
    log: Mutex<AddLog>,
    /// Total clauses ever added: the monotone cursor readers poll.
    version: AtomicU64,
}

/// A shared, thread-safe store of strengthening clauses.
///
/// Clones share the same underlying store, so the sequential and the
/// parallel JA drivers use the same type. The store implements
/// [`ClauseSource`], so engines can refresh their imported clauses
/// mid-run with [`japrove_ic3::SolverCtx::check`].
///
/// # Examples
///
/// ```
/// use japrove_core::ClauseDb;
/// use japrove_logic::{Clause, Var};
///
/// let db = ClauseDb::new();
/// db.publish([Clause::unit(Var::new(0).neg())]);
/// assert_eq!(db.len(), 1);
/// let clone = db.clone();
/// assert_eq!(clone.len(), 1); // shared
/// ```
#[derive(Clone, Debug, Default)]
pub struct ClauseDb {
    inner: Arc<DbInner>,
}

impl ClauseDb {
    /// Creates an empty store.
    pub fn new() -> Self {
        ClauseDb::default()
    }

    /// Locks one shard; a panic while holding the lock cannot corrupt
    /// the shard, so poisoning is safely ignored.
    fn lock(&self, i: usize) -> MutexGuard<'_, Shard> {
        self.inner.shards[i]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// The home shard of a clause: a hash of its (normalized) literals.
    fn shard_of(clause: &Clause) -> usize {
        let h = clause.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &l| {
            (h ^ l.code() as u64).wrapping_mul(0x100_0000_01b3)
        });
        (h % NUM_SHARDS as u64) as usize
    }

    /// Appends clauses, dropping duplicates and clauses subsumed by an
    /// existing entry. Returns how many were actually added.
    ///
    /// One call is one batch: publishes serialize on the addition log's
    /// lock, held for the whole call, so a reader
    /// ([`ClauseDb::clauses_since`], [`ClauseDb::snapshot`]) sees a
    /// batch whole or not at all. Callers publish whole certificates,
    /// and an inductive certificate missing some of its clauses need
    /// not be inductive; an engine that imported such a part would
    /// return a certificate that fails re-verification.
    pub fn publish<I: IntoIterator<Item = Clause>>(&self, clauses: I) -> usize {
        let mut log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        let mut added = 0;
        for clause in clauses {
            let normalized = match clause.normalized() {
                Some(n) => n,
                None => continue, // tautology carries no information
            };
            let sig = signature(&normalized);
            if (0..NUM_SHARDS).any(|i| self.lock(i).subsumes_new(&normalized, sig)) {
                continue;
            }
            for i in 0..NUM_SHARDS {
                self.lock(i).evict_subsumed(&normalized, sig);
            }
            self.lock(ClauseDb::shard_of(&normalized))
                .insert(normalized.clone(), sig);
            log.clauses.push(normalized);
            if log.clauses.len() > LOG_CAP {
                let drop = log.clauses.len() / 2;
                log.clauses.drain(..drop);
                log.base += drop as u64;
            }
            self.inner.version.fetch_add(1, Ordering::Release);
            added += 1;
        }
        added
    }

    /// A snapshot of the current clauses, taken between publishes.
    pub fn snapshot(&self) -> Vec<Clause> {
        let _log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        self.stored()
    }

    /// Every stored clause. Callers hold the log lock, so no publish is
    /// halfway done.
    fn stored(&self) -> Vec<Clause> {
        let mut out = Vec::new();
        for i in 0..NUM_SHARDS {
            out.extend(self.lock(i).clauses.iter().flatten().cloned());
        }
        out
    }

    /// The monotone addition cursor: the number of clauses ever added.
    /// Poll this (cheap) before paying for a [`ClauseDb::snapshot`] or
    /// [`ClauseDb::clauses_since`].
    pub fn version(&self) -> u64 {
        self.inner.version.load(Ordering::Acquire)
    }

    /// The clauses added after cursor `since` (a previous
    /// [`ClauseDb::version`] reading), plus the new cursor. This is the
    /// O(delta) refresh path engines use mid-run. A cursor from before
    /// the last [`ClauseDb::clear`] or log compaction gets the whole
    /// store instead, which readers deduplicate: the log's oldest
    /// retained entry may sit inside a publish batch, and half a batch
    /// is half a certificate (see [`ClauseDb::publish`]).
    pub fn clauses_since(&self, since: u64) -> (Vec<Clause>, u64) {
        let log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        let cursor = log.base + log.clauses.len() as u64;
        if since < log.base {
            return (self.stored(), cursor);
        }
        let skip = (since - log.base) as usize;
        (log.clauses.iter().skip(skip).cloned().collect(), cursor)
    }

    /// Number of stored clauses.
    pub fn len(&self) -> usize {
        (0..NUM_SHARDS).map(|i| self.lock(i).live).sum()
    }

    /// `true` if the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clears the store. The addition cursor stays monotone (readers
    /// holding an old cursor simply see no new clauses until the next
    /// publish).
    pub fn clear(&self) {
        let mut log = self.inner.log.lock().unwrap_or_else(|e| e.into_inner());
        for i in 0..NUM_SHARDS {
            let mut shard = self.lock(i);
            *shard = Shard::default();
        }
        log.base += log.clauses.len() as u64;
        log.clauses.clear();
    }
}

impl ClauseSource for ClauseDb {
    fn version(&self) -> u64 {
        ClauseDb::version(self)
    }

    fn clauses(&self) -> Vec<Clause> {
        self.snapshot()
    }

    fn clauses_since(&self, since: u64) -> (Vec<Clause>, u64) {
        ClauseDb::clauses_since(self, since)
    }
}

/// A cluster-scoped clause store layered over the global one: the
/// two-level [`ClauseSource`] of clustered verification.
///
/// The clustered driver gives every cluster its own [`ClauseDb`] and
/// imports its contents *eagerly* at the start of each member check —
/// clauses proved by cluster siblings are the most likely to transfer.
/// Clauses from the *global* store (published by other clusters) flow
/// in lazily through the engine's mid-run refresh: the source exposes
/// one combined monotone cursor, and a freshly built source is primed
/// so the first refresh delivers exactly the global clauses the eager
/// import skipped.
///
/// An unknown cursor (e.g. after the caller mixed sources) degrades to
/// a full two-store snapshot; readers deduplicate, so over-delivery
/// costs redundant work, never soundness.
///
/// # Examples
///
/// ```
/// use japrove_core::{ClauseDb, TwoLevelSource};
/// use japrove_ic3::ClauseSource;
/// use japrove_logic::{Clause, Var};
///
/// let cluster = ClauseDb::new();
/// let global = ClauseDb::new();
/// cluster.publish([Clause::unit(Var::new(0).neg())]);
/// global.publish([Clause::unit(Var::new(1).neg())]);
///
/// let source = TwoLevelSource::new(&cluster, &global);
/// // The primed cursor skips the (eagerly imported) cluster clause:
/// let (fresh, cursor) = source.clauses_since(source.primed_cursor());
/// assert_eq!(fresh, vec![Clause::unit(Var::new(1).neg())]);
/// // Later publishes to either store arrive as a delta.
/// global.publish([Clause::unit(Var::new(2).pos())]);
/// let (next, _) = source.clauses_since(cursor);
/// assert_eq!(next, vec![Clause::unit(Var::new(2).pos())]);
/// ```
#[derive(Debug)]
pub struct TwoLevelSource<'a> {
    cluster: &'a ClauseDb,
    global: &'a ClauseDb,
    /// `(combined, cluster, global)` cursors of the last hand-out, so
    /// a combined cursor can be decomposed back into per-store ones.
    cursors: Mutex<(u64, u64, u64)>,
}

impl<'a> TwoLevelSource<'a> {
    /// Layers `cluster` over `global`, primed at the *current* cluster
    /// version and global version 0: a reader that eagerly imported
    /// the cluster snapshot and starts refreshing from
    /// [`TwoLevelSource::primed_cursor`] receives every global clause
    /// plus only the cluster clauses published after construction.
    pub fn new(cluster: &'a ClauseDb, global: &'a ClauseDb) -> Self {
        let cv = cluster.version();
        TwoLevelSource {
            cluster,
            global,
            cursors: Mutex::new((cv, cv, 0)),
        }
    }

    /// The cursor to start refreshing from after an eager import of
    /// the cluster store (see [`TwoLevelSource::new`]).
    pub fn primed_cursor(&self) -> u64 {
        self.cursors.lock().unwrap_or_else(|e| e.into_inner()).0
    }
}

impl ClauseSource for TwoLevelSource<'_> {
    fn version(&self) -> u64 {
        // Both summands are monotone, so the combined cursor is too.
        self.cluster.version() + self.global.version()
    }

    fn clauses(&self) -> Vec<Clause> {
        let mut all = self.cluster.snapshot();
        all.extend(self.global.snapshot());
        all
    }

    fn clauses_since(&self, since: u64) -> (Vec<Clause>, u64) {
        let mut cur = self.cursors.lock().unwrap_or_else(|e| e.into_inner());
        let (fresh, cc, gc) = if since == cur.0 {
            let (mut a, cc) = self.cluster.clauses_since(cur.1);
            let (b, gc) = self.global.clauses_since(cur.2);
            a.extend(b);
            (a, cc, gc)
        } else {
            // Cursor from before this source's priming (or from another
            // source): resync with a full snapshot.
            let mut all = self.cluster.snapshot();
            all.extend(self.global.snapshot());
            (all, self.cluster.version(), self.global.version())
        };
        *cur = (cc + gc, cc, gc);
        (fresh, cc + gc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use japrove_logic::Var;

    fn clause(lits: &[(u32, bool)]) -> Clause {
        Clause::from_lits(lits.iter().map(|&(v, n)| Var::new(v).lit(n)))
    }

    #[test]
    fn deduplicates() {
        let db = ClauseDb::new();
        assert_eq!(db.publish([clause(&[(0, true)]), clause(&[(0, true)])]), 1);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn subsumption_both_directions() {
        let db = ClauseDb::new();
        db.publish([clause(&[(0, true), (1, false)])]);
        // A stronger clause replaces the weaker one.
        assert_eq!(db.publish([clause(&[(0, true)])]), 1);
        assert_eq!(db.len(), 1);
        assert_eq!(db.snapshot()[0].len(), 1);
        // A weaker clause is not added.
        assert_eq!(db.publish([clause(&[(0, true), (2, false)])]), 0);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn tautologies_dropped() {
        let db = ClauseDb::new();
        assert_eq!(db.publish([clause(&[(0, true), (0, false)])]), 0);
        assert!(db.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let db = ClauseDb::new();
        let other = db.clone();
        db.publish([clause(&[(3, false)])]);
        assert_eq!(other.len(), 1);
        other.clear();
        assert!(db.is_empty());
    }

    #[test]
    fn version_moves_only_on_addition() {
        let db = ClauseDb::new();
        let v0 = db.version();
        db.publish([clause(&[(0, true), (1, true)])]);
        let v1 = db.version();
        assert!(v1 > v0);
        // Subsumed publish: no change, no cursor move.
        db.publish([clause(&[(0, true), (1, true), (2, true)])]);
        assert_eq!(db.version(), v1);
        // Clearing does not rewind the cursor.
        db.clear();
        assert_eq!(db.version(), v1);
        db.publish([clause(&[(5, false)])]);
        assert!(db.version() > v1);
    }

    #[test]
    fn clauses_since_returns_only_the_delta() {
        let db = ClauseDb::new();
        db.publish([clause(&[(0, true)]), clause(&[(1, false)])]);
        let (all, cursor) = db.clauses_since(0);
        assert_eq!(all.len(), 2);
        assert_eq!(cursor, db.version());
        let (none, same) = db.clauses_since(cursor);
        assert!(none.is_empty());
        assert_eq!(same, cursor);
        db.publish([clause(&[(2, true)])]);
        let (fresh, next) = db.clauses_since(cursor);
        assert_eq!(fresh, vec![clause(&[(2, true)])]);
        assert!(next > cursor);
        // A pre-clear cursor re-delivers whatever is still logged.
        db.clear();
        db.publish([clause(&[(3, true)])]);
        let (after_clear, _) = db.clauses_since(0);
        assert_eq!(after_clear, vec![clause(&[(3, true)])]);
    }

    #[test]
    fn addition_log_is_capped() {
        // 40k distinct unit clauses: the store keeps them all, but the
        // delta log compacts to stay within its cap.
        let db = ClauseDb::new();
        let n = 40_000u32;
        db.publish((0..n).map(|v| clause(&[(v, false)])));
        assert_eq!(db.len(), n as usize);
        assert_eq!(db.version(), u64::from(n));
        let logged = db.inner.log.lock().unwrap().clauses.len();
        assert!(logged <= LOG_CAP, "log holds {logged}");
        // A cursor behind the compacted window gets the whole store.
        let (all, cursor) = db.clauses_since(0);
        assert_eq!(all.len(), n as usize);
        assert_eq!(cursor, u64::from(n));
        // Recent additions are still delivered exactly.
        let (tail, _) = db.clauses_since(u64::from(n) - 5);
        assert_eq!(tail.len(), 5);
    }

    #[test]
    fn a_lagging_cursor_never_gets_part_of_a_batch() {
        // Batches of distinct units whose size does not divide the cap:
        // the first compaction drains half the log, which cuts a batch.
        const BATCH: u32 = 1000;
        let db = ClauseDb::new();
        let cursor = db.version();
        let mut batches = 0u32;
        while db.inner.log.lock().unwrap().base % u64::from(BATCH) == 0 {
            let vars = batches * BATCH..(batches + 1) * BATCH;
            db.publish(vars.map(|v| clause(&[(v, false)])));
            batches += 1;
        }
        let (fresh, next) = db.clauses_since(cursor);
        assert_eq!(next, db.version());
        let mut per_batch = vec![0u32; batches as usize];
        for c in &fresh {
            per_batch[(c.lits()[0].var().index() / BATCH) as usize] += 1;
        }
        for (b, &n) in per_batch.iter().enumerate() {
            assert!(n == 0 || n == BATCH, "batch {b}: {n} of {BATCH} clauses");
        }
    }

    #[test]
    fn concurrent_identical_publishes_store_one_copy() {
        // Serialized publishes must make duplicate inserts impossible
        // whatever the interleaving.
        let db = ClauseDb::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let db = db.clone();
                s.spawn(move || {
                    for _ in 0..50 {
                        db.publish([clause(&[(7, true), (9, false)])]);
                    }
                });
            }
        });
        assert_eq!(db.len(), 1);
        assert_eq!(db.version(), 1);
    }

    #[test]
    fn subsumption_works_across_shards() {
        // Many multi-literal clauses spread over all shards; a unit
        // clause must evict every weaker clause wherever it lives, and
        // weaker clauses must be rejected regardless of their shard.
        let db = ClauseDb::new();
        let weaker: Vec<Clause> = (1..100u32)
            .map(|v| clause(&[(0, false), (v, v % 2 == 0)]))
            .collect();
        assert_eq!(db.publish(weaker.iter().cloned()), 99);
        assert_eq!(db.publish([clause(&[(0, false)])]), 1);
        assert_eq!(db.len(), 1, "unit must evict all 99 weaker clauses");
        assert_eq!(db.publish(weaker), 0);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn eviction_then_reinsert_compacts_cleanly() {
        let db = ClauseDb::new();
        for round in 0u32..6 {
            let cls: Vec<Clause> = (0..200u32)
                .map(|v| clause(&[(v, false), (1000 + round, true)]))
                .collect();
            db.publish(cls);
            // The stronger units evict all of this round's clauses.
            let units: Vec<Clause> = (0..200u32).map(|v| clause(&[(v, false)])).collect();
            db.publish(units);
            assert_eq!(db.len(), 200, "round {round}");
        }
    }

    #[test]
    fn large_store_stays_consistent_with_reference() {
        // Randomized differential against a straightforward reference
        // implementation.
        use japrove_rng::SplitMix64;
        let mut rng = SplitMix64::seed_from_u64(0xDB);
        let db = ClauseDb::new();
        let mut reference: Vec<Clause> = Vec::new();
        for _ in 0..600 {
            let len = 1 + (rng.next_u64() % 4) as usize;
            let c = Clause::from_lits(
                (0..len)
                    .map(|_| Var::new((rng.next_u64() % 24) as u32).lit(rng.next_u64() % 2 == 0)),
            );
            let Some(n) = c.normalized() else {
                assert_eq!(db.publish([c]), 0);
                continue;
            };
            let expect_add = !reference.iter().any(|r| r.subsumes_sorted(&n));
            if expect_add {
                reference.retain(|r| !n.subsumes_sorted(r));
                reference.push(n.clone());
            }
            assert_eq!(db.publish([c]) == 1, expect_add);
            assert_eq!(db.len(), reference.len());
        }
        let mut got = db.snapshot();
        let mut want = reference;
        got.sort_by(|a, b| a.lits().cmp(b.lits()));
        want.sort_by(|a, b| a.lits().cmp(b.lits()));
        assert_eq!(got, want);
    }

    #[test]
    fn two_level_source_delivers_global_then_deltas() {
        let cluster = ClauseDb::new();
        let global = ClauseDb::new();
        cluster.publish([clause(&[(0, true)])]);
        global.publish([clause(&[(1, true)]), clause(&[(2, false)])]);
        let source = TwoLevelSource::new(&cluster, &global);
        let c0 = source.primed_cursor();
        // Version reflects both stores; the primed refresh hands out
        // exactly the global side.
        assert_eq!(ClauseSource::version(&source), 3);
        let (fresh, c1) = ClauseSource::clauses_since(&source, c0);
        assert_eq!(fresh.len(), 2);
        assert!(fresh.iter().all(|c| c != &clause(&[(0, true)])));
        // Publishes on either layer arrive as one combined delta.
        cluster.publish([clause(&[(3, true)])]);
        global.publish([clause(&[(4, true)])]);
        let (next, c2) = ClauseSource::clauses_since(&source, c1);
        assert_eq!(next.len(), 2);
        assert_eq!(c2, ClauseSource::version(&source));
        let (none, c3) = ClauseSource::clauses_since(&source, c2);
        assert!(none.is_empty());
        assert_eq!(c3, c2);
    }

    #[test]
    fn two_level_source_resyncs_on_unknown_cursor() {
        let cluster = ClauseDb::new();
        let global = ClauseDb::new();
        cluster.publish([clause(&[(0, true)])]);
        global.publish([clause(&[(1, true)])]);
        let source = TwoLevelSource::new(&cluster, &global);
        // A cursor the source never handed out: full two-store snapshot.
        let (all, cursor) = ClauseSource::clauses_since(&source, 0);
        assert_eq!(all.len(), 2);
        assert_eq!(cursor, ClauseSource::version(&source));
        let (none, _) = ClauseSource::clauses_since(&source, cursor);
        assert!(none.is_empty());
        assert_eq!(ClauseSource::clauses(&source).len(), 2);
    }

    #[test]
    fn concurrent_readers_see_each_publish_whole() {
        // A writer publishes batches of distinct unit clauses (none
        // subsumes another, so every batch adds exactly `BATCH`) while a
        // reader polls the delta feed and the snapshot: each must only
        // ever hold whole batches.
        const BATCH: usize = 64;
        const BATCHES: u32 = 200;
        let db = ClauseDb::new();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for b in 0..BATCHES {
                    let vars = b * BATCH as u32..(b + 1) * BATCH as u32;
                    db.publish(vars.map(|v| clause(&[(v, false)])));
                }
            });
            start.wait();
            let (mut seen, mut cursor) = (0, 0);
            while seen < BATCH * BATCHES as usize {
                let (fresh, next) = db.clauses_since(cursor);
                assert_eq!(fresh.len() % BATCH, 0, "delta of {}", fresh.len());
                let snap = db.snapshot().len();
                assert_eq!(snap % BATCH, 0, "snapshot of {snap}");
                seen += fresh.len();
                cursor = next;
            }
        });
    }

    #[test]
    fn concurrent_publish() {
        let db = ClauseDb::new();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let db = db.clone();
                s.spawn(move || {
                    for i in 0..50u32 {
                        db.publish([clause(&[(t * 100 + i, i % 2 == 0)])]);
                    }
                });
            }
        });
        assert_eq!(db.len(), 200);
    }
}
