//! Swarm verification: many searches in parallel, optionally work-stealing
//! and resumable.
//!
//! SPIN's swarm technique (Holzmann et al.) runs N independent verifications
//! with different seeds and strategies — the paper plans to use it to explore
//! larger state spaces in parallel (§7). [`run_swarm`] runs one search per
//! worker thread over systems produced by a factory, with a shared stop flag
//! so the first violation cancels the fleet.
//!
//! Every fleet runs the same way; [`SwarmConfig::strategies`] assigns each
//! worker its search:
//!
//! * [`WorkerStrategy::Walk`] workers (every worker, when `strategies` is
//!   empty) run seed-diversified [`RandomWalk`]s. With private visited sets
//!   workers re-expand each other's states (maximum diversity); with
//!   [`SwarmConfig::shared_visited`] they share one [`ShardedVisited`] and a
//!   state expanded anywhere is pruned everywhere.
//! * [`WorkerStrategy::Dfs`] and [`WorkerStrategy::Bfs`] workers split one
//!   depth-bounded search. Each runs the explorers' frame engine
//!   (`DfsExplorer`/`BfsExplorer`): its own frames carry checkpoint ids, so
//!   it backtracks by restore, exactly as a single search does. Only when
//!   another worker is idle — or at a snapshot round or a stop — does it
//!   publish its lowest unfinished frame as a [`FrontierEntry`] (an
//!   op-prefix plus a sleep set holding the ops it already took) to its
//!   queue; an idle worker steals half of a victim's queue, replays the
//!   prefix once from the root, and expands the entry as an ordinary frame.
//!   The shared visited set arbitrates, so each state is expanded exactly
//!   once fleet-wide, and a one-worker fleet is, op for op, the
//!   `DfsExplorer` search.
//!
//! The op-prefix entries are also what make a swarm *resumable*:
//! [`run_swarm_persistent`] periodically pickles the shared visited set, the
//! queued entries, RNG cursors, and cumulative stats to disk (atomically —
//! see [`pickle::save_atomic`]) and can start from a loaded [`RunSnapshot`],
//! re-exploring zero already-visited states. Snapshots are taken at *round*
//! boundaries: the fleet runs `snapshot_every` expansions, every worker
//! publishes its unfinished frames and the scope joins (no state is ever
//! half-expanded), the snapshot is cut, and the next round's workers are
//! re-spawned from the factory.
//!
//! A panicking worker does not abort the fleet: the panic is caught, the
//! worker's slot reports [`StopReason::WorkerPanic`], its queue remains
//! stealable by survivors, and the rest of the fleet runs to completion.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use crate::explore::{
    search, spill_init_failure, with_default_visited, ExploreConfig, ExploreReport, ExploreStats,
    RandomWalk, StopReason,
};
use crate::pickle::SnapshotWriter;
use crate::pickle::{self, deal_frontier, FrontierEntry, OpCodec, RngCursor, RunSnapshot};
use crate::spill::{FrontierQueue, FrontierSpill, SpillCtx, SpillStats};
use crate::system::{ModelSystem, Violation};
use crate::visited::ShardedVisited;

/// How one swarm worker searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerStrategy {
    /// Depth-first frame engine; takes the newest queued entry first.
    Dfs,
    /// Breadth-first frame engine (finds shallow violations first); takes
    /// the oldest queued entry first.
    Bfs,
    /// Seed-diversified random walk over the fleet's visited set; does not
    /// take queued entries but prunes against (and feeds) the same set.
    Walk,
}

/// Swarm configuration.
#[derive(Debug, Clone)]
pub struct SwarmConfig {
    /// Number of worker searches.
    pub workers: usize,
    /// Base exploration config; walk workers get `seed = base.seed + index`
    /// (classic swarm diversification). For Dfs/Bfs workers `max_ops` and
    /// `max_states` are *fleet-wide* budgets — they split one search, so
    /// per-worker budgets would be arbitrary; walk workers keep per-worker
    /// op budgets.
    pub base: ExploreConfig,
    /// Share one sharded visited set across the fleet so workers skip
    /// states another worker already expanded, instead of duplicating work
    /// with private per-worker sets. Implied (always on) when any worker
    /// runs Dfs/Bfs, where work-stealing without a shared set would be
    /// unsound, and in [`run_swarm_persistent`], which pickles the set.
    pub shared_visited: bool,
    /// Per-worker strategy assignment, cycled over the worker index (e.g.
    /// `[Dfs, Dfs, Walk]` over 5 workers gives Dfs,Dfs,Walk,Dfs,Dfs).
    /// Empty means every worker walks (the classic swarm).
    ///
    /// Out-of-core operation rides in [`ExploreConfig::mem_budget`] on
    /// `base`: a shared visited set becomes disk-spilling, and in
    /// [`run_swarm_persistent`] (where an op codec exists) the per-worker
    /// frontier queues spill cold op-prefix pages to the same store.
    pub strategies: Vec<WorkerStrategy>,
}

/// Persistence options for [`run_swarm_persistent`].
pub struct SwarmPersist<'a, Op> {
    /// Encoder/decoder for the system's op type.
    pub codec: &'a (dyn OpCodec<Op> + Sync),
    /// Where to write snapshots (atomic tempfile + rename); `None` disables
    /// snapshotting (a run can still *start* from `resume`).
    pub snapshot_path: Option<PathBuf>,
    /// Snapshot cadence in state expansions (walk workers count ops toward
    /// it). The fleet pauses at this boundary — workers publish their
    /// unfinished frames and park — so every snapshot is a consistent
    /// visited+frontier cut. 0 means "only at the end of the run".
    ///
    /// When this is non-zero the factory is called once per worker per
    /// *round*, so it must produce a fresh system (at the initial state) on
    /// every call.
    pub snapshot_every: u64,
    /// Resume from a previously pickled snapshot: its visited set is
    /// preloaded (no contained state is ever re-counted), its frontier is
    /// redistributed across the workers, and its stats become the report's
    /// [`SwarmReport::baseline`].
    pub resume: Option<RunSnapshot<Op>>,
}

/// Aggregated swarm outcome.
#[derive(Debug)]
pub struct SwarmReport<Op> {
    /// Per-worker reports, indexed by worker. A worker that panicked
    /// reports [`StopReason::WorkerPanic`] with the stats it had
    /// accumulated before dying.
    pub workers: Vec<ExploreReport<Op>>,
    /// Distinct states in the shared visited set at the end of the run,
    /// when one was used (`shared_visited` or frontier mode). `None` for
    /// private-set fleets, where no global distinct count exists.
    pub distinct_states: Option<u64>,
    /// Stats carried in from the resumed snapshot (zero for fresh runs) —
    /// the totals below include them, so a resumed run reports its whole
    /// life, not just the latest process.
    pub baseline: ExploreStats,
    /// Error from the last snapshot write, if any (the search itself still
    /// completed; only persistence failed).
    pub persist_error: Option<String>,
    /// Fleet-wide spill counters of the *shared* visited set (and any
    /// spilling frontier queues, which share its page store). Per-worker
    /// stats deliberately exclude these — the set is one global structure,
    /// so charging each worker the whole set's traffic would overcount on
    /// merge. `None` when no shared spill-backed set was used (private-set
    /// fleets report per-worker `stats.spill` instead).
    pub spill: Option<SpillStats>,
    /// Peak hot-cache bytes of the shared visited set (0 without one).
    pub visited_peak_bytes: u64,
}

impl<Op> SwarmReport<Op> {
    /// Total operations executed across the swarm's whole life (including
    /// generations before a resume; prefix replays are counted separately —
    /// see [`SwarmReport::total_replayed`]).
    pub fn total_ops(&self) -> u64 {
        self.sum(|s| s.ops_executed)
    }

    /// Total distinct states found by the swarm.
    ///
    /// With a shared visited set this is the set's true distinct count, not
    /// a per-worker sum: summing `states_new` undercounts resumed runs
    /// (preloaded states appear in no worker's count) and makes private-
    /// and shared-set numbers incomparable. With private sets workers may
    /// genuinely overlap and the per-worker sum is the only number there
    /// is.
    pub fn total_states(&self) -> u64 {
        self.distinct_states
            .unwrap_or_else(|| self.sum(|s| s.states_new))
    }

    /// Total operations replayed to reconstruct frontier states from their
    /// op-prefixes — the overhead work-stealing and resume pay instead of
    /// shipping concrete state between workers or processes.
    pub fn total_replayed(&self) -> u64 {
        self.sum(|s| s.ops_replayed)
    }

    /// A counter summed over the resumed baseline and every worker.
    fn sum(&self, counter: impl Fn(&ExploreStats) -> u64) -> u64 {
        counter(&self.baseline) + self.workers.iter().map(|w| counter(&w.stats)).sum::<u64>()
    }

    /// All violations found by any worker.
    pub fn violations(&self) -> impl Iterator<Item = &Violation<Op>> {
        self.workers.iter().flat_map(|w| w.violations.iter())
    }

    /// Whether any worker found a violation.
    pub fn found_violation(&self) -> bool {
        self.workers.iter().any(|w| w.stop == StopReason::Violation)
    }

    /// The violation with the shortest reproduction trace across all
    /// workers, judging each by its minimized trace when the worker that
    /// found it minimized ([`crate::Violation::best_trace`]). Each worker
    /// minimizes its own finds; the swarm reports the overall shortest.
    pub fn shortest_violation(&self) -> Option<&Violation<Op>> {
        self.violations().min_by_key(|v| v.best_trace().len())
    }

    /// Panic messages of workers that died, with their worker index.
    pub fn panics(&self) -> impl Iterator<Item = (usize, &str)> {
        self.workers
            .iter()
            .enumerate()
            .filter_map(|(i, w)| match &w.stop {
                StopReason::WorkerPanic(msg) => Some((i, msg.as_str())),
                _ => None,
            })
    }
}

/// Renders a panic payload for [`StopReason::WorkerPanic`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or("worker panicked with a non-string payload", |s| s)
            .to_string(),
    }
}

/// A fleet that could not start because the shared spill store failed to
/// initialize: every worker slot reports the failure.
fn spill_init_report<Op>(workers: usize, e: &str) -> SwarmReport<Op> {
    SwarmReport {
        workers: (0..workers.max(1)).map(|_| spill_init_failure(e)).collect(),
        distinct_states: None,
        baseline: ExploreStats::default(),
        persist_error: None,
        spill: None,
        visited_peak_bytes: 0,
    }
}

/// Runs `cfg.workers` searches in parallel over systems produced by
/// `factory` (one system per worker, seeded by worker index).
///
/// With an empty [`SwarmConfig::strategies`] this is the classic
/// seed-diversified walk swarm; Dfs/Bfs workers split one search by work
/// stealing (see the module docs). The first worker to find a violation
/// raises the shared stop flag. A worker panic is contained to its slot
/// (see [`SwarmReport::panics`]); the rest of the fleet keeps searching.
pub fn run_swarm<S, F>(cfg: &SwarmConfig, factory: F) -> SwarmReport<S::Op>
where
    S: ModelSystem,
    S::Op: Send + 'static,
    F: Fn(usize) -> S + Sync,
{
    run_fleet::<S, F>(cfg, factory, None)
}

/// Runs a resumable swarm: like [`run_swarm`], with the visited set always
/// shared, plus periodic atomic snapshots and/or an initial state loaded
/// from a [`RunSnapshot`] (see [`SwarmPersist`]).
pub fn run_swarm_persistent<S, F>(
    cfg: &SwarmConfig,
    factory: F,
    persist: SwarmPersist<'_, S::Op>,
) -> SwarmReport<S::Op>
where
    S: ModelSystem,
    S::Op: Send + 'static,
    F: Fn(usize) -> S + Sync,
{
    run_fleet::<S, F>(cfg, factory, Some(persist))
}

/// Shared coordination state of one fleet.
struct FrontierShared<Op> {
    /// Per-worker queues of published entries. Owners publish to the back;
    /// Dfs workers take from the back, Bfs workers from the front, thieves
    /// steal from the front (oldest entries — the biggest unexplored
    /// subtrees). Under a memory budget with a codec, cold middles spill to
    /// pages.
    queues: Vec<Mutex<FrontierQueue<Op>>>,
    /// Spill context for the queues: present only in persistent runs with a
    /// [`crate::MemBudget`] (spilling op-prefixes needs the op codec).
    frontier_spill: Option<FrontierSpill>,
    /// The fleet-shared visited set (also what gets pickled); `None` only
    /// for an all-walk fleet with private sets.
    visited: Option<ShardedVisited>,
    /// Workers holding frames or an entry; termination needs empty queues
    /// *and* zero busy workers (a busy worker may be about to publish).
    busy: AtomicUsize,
    /// Dfs/Bfs workers out of work: busy workers publish frames for them.
    idle: AtomicUsize,
    /// First violation (or fleet-wide budget) raised: everyone drains.
    stop: AtomicBool,
    /// The current round's expansion quota is spent: workers publish their
    /// frames and park so a consistent snapshot can be cut.
    round_done: AtomicBool,
    /// Expansions (and walk ops) performed this round.
    round_work: AtomicU64,
    /// Fleet-wide executed-op / new-state counters backing the shared
    /// budgets; initialized with the resumed baseline so budgets span
    /// generations.
    ops_total: AtomicU64,
    states_total: AtomicU64,
}

impl<Op> FrontierShared<Op> {
    /// Counts one unit of round work and raises the round flag at `quota`.
    fn tick_round(&self, quota: u64) {
        if self.round_work.fetch_add(1, Ordering::SeqCst) + 1 >= quota {
            self.round_done.store(true, Ordering::SeqCst);
        }
    }
}

/// Counts its holder in a fleet counter (`busy`, `idle`) and uncounts it on
/// drop — also when the worker panics, so the survivors' termination
/// detection cannot wedge on a dead worker's stale count.
struct Mark<'a>(&'a AtomicUsize);

impl<'a> Mark<'a> {
    fn new(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        Mark(counter)
    }
}

impl Drop for Mark<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// What a worker out of frames got from the fleet.
pub(crate) enum Work<Op> {
    /// A published entry to replay and expand.
    Entry(FrontierEntry<Op>),
    /// Nothing yet: other workers are still busy.
    Wait,
    /// The whole fleet is out of work.
    Done,
}

/// A Dfs/Bfs worker's handle on its fleet: the shared queues, counters and
/// flags, plus the worker's own busy/idle marks.
pub(crate) struct Fleet<'a, Op> {
    shared: &'a FrontierShared<Op>,
    idx: usize,
    strategy: WorkerStrategy,
    quota: u64,
    ctx: SpillCtx<'a, Op>,
    busy: Option<Mark<'a>>,
    idle: Option<Mark<'a>>,
    idle_spins: u32,
    /// The worker's op and state counts already added to the fleet totals.
    synced: (u64, u64),
}

impl<'a, Op: Clone> Fleet<'a, Op> {
    fn new(
        shared: &'a FrontierShared<Op>,
        idx: usize,
        strategy: WorkerStrategy,
        quota: u64,
        codec: Option<&'a (dyn OpCodec<Op> + Sync)>,
    ) -> Self {
        Fleet {
            shared,
            idx,
            strategy,
            quota,
            // Queue spill context: page store + codec, present only in
            // budgeted persistent runs.
            ctx: match (&shared.frontier_spill, codec) {
                (Some(fs), Some(c)) => Some((fs, c as &dyn OpCodec<Op>)),
                _ => None,
            },
            busy: None,
            idle: None,
            idle_spins: 0,
            synced: (0, 0),
        }
    }

    /// Adds the worker's op and state counts since the last call to the
    /// fleet-wide totals and returns those (executed ops, discovered
    /// states), or `None` when the worker must pause: a round ended or the
    /// fleet stopped.
    pub(crate) fn totals(&mut self, stats: &ExploreStats) -> Option<(u64, u64)> {
        let shared = self.shared;
        let ops = stats.ops_executed - std::mem::replace(&mut self.synced.0, stats.ops_executed);
        let states = stats.states_new - std::mem::replace(&mut self.synced.1, stats.states_new);
        let ops = shared.ops_total.fetch_add(ops, Ordering::SeqCst) + ops;
        let states = shared.states_total.fetch_add(states, Ordering::SeqCst) + states;
        let paused = shared.stop.load(Ordering::SeqCst) || shared.round_done.load(Ordering::SeqCst);
        (!paused).then_some((ops, states))
    }

    /// Counts a fully expanded frame toward the round quota.
    pub(crate) fn expanded(&self) {
        self.shared.tick_round(self.quota);
        // One expansion per scheduling slice: on a single-CPU host this is
        // what lets idle workers get work before the current worker drains
        // the whole search itself (virtual-time speedup tracks the work
        // *split*, so balance matters more than raw wall throughput).
        std::thread::yield_now();
    }

    /// Whether more workers are idle than this worker's queue has entries
    /// for them to steal.
    pub(crate) fn wants_work(&self) -> bool {
        let idle = self.shared.idle.load(Ordering::SeqCst);
        idle > 0 && self.shared.queues[self.idx].lock().len() < idle
    }

    /// Appends an entry to this worker's queue.
    pub(crate) fn publish(&self, entry: FrontierEntry<Op>) -> Result<(), String> {
        self.shared.queues[self.idx]
            .lock()
            .push_back(entry, self.ctx)
    }

    /// Takes an entry from this worker's queue, or steals from another's.
    pub(crate) fn acquire(&mut self) -> Result<Work<Op>, String> {
        // Busy is raised *before* popping: an entry in hand always shows as
        // in-flight work, so idle workers cannot conclude "exhausted" while
        // this one is about to expand it.
        let shared = self.shared;
        self.busy.get_or_insert_with(|| Mark::new(&shared.busy));
        let popped = {
            let mut own = shared.queues[self.idx].lock();
            match self.strategy {
                WorkerStrategy::Bfs => own.pop_front(self.ctx)?,
                _ => own.pop_back(self.ctx)?,
            }
        };
        let entry = match popped {
            Some(e) => Some(e),
            None => steal(shared, self.idx, self.ctx)?,
        };
        if let Some(entry) = entry {
            self.idle = None;
            self.idle_spins = 0;
            return Ok(Work::Entry(entry));
        }
        self.busy = None;
        // The rare losing race here (another worker took the last entry
        // between our two checks) costs this worker's parallelism, never
        // coverage: whoever holds work expands it.
        if shared.busy.load(Ordering::SeqCst) == 0
            && shared.queues.iter().all(|q| q.lock().is_empty())
        {
            return Ok(Work::Done);
        }
        self.idle.get_or_insert_with(|| Mark::new(&shared.idle));
        // Yield first (on a loaded single-CPU host this reschedules the
        // worker actually holding work); back off to a sleep only after
        // repeated misses so multi-CPU hosts don't burn a core.
        self.idle_spins += 1;
        if self.idle_spins < 64 {
            std::thread::yield_now();
        } else {
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok(Work::Wait)
    }
}

/// Derives a walk worker's seed for a given round/generation — diversified
/// so resumed or later-round walks explore new paths instead of repeating
/// ones the shared visited set has already pruned.
fn walk_seed(base: u64, idx: usize, round: u64, generation: u32) -> u64 {
    base.wrapping_add(idx as u64)
        .wrapping_add(round.wrapping_mul(0x9E37_79B9))
        .wrapping_add((generation as u64).wrapping_mul(0x85EB_CA6B_0000))
}

/// The one fleet runner behind [`run_swarm`] and [`run_swarm_persistent`].
fn run_fleet<S, F>(
    cfg: &SwarmConfig,
    factory: F,
    persist: Option<SwarmPersist<'_, S::Op>>,
) -> SwarmReport<S::Op>
where
    S: ModelSystem,
    S::Op: Send + 'static,
    F: Fn(usize) -> S + Sync,
{
    let workers = cfg.workers.max(1);
    let strategies: Vec<WorkerStrategy> = (0..workers)
        .map(|i| match cfg.strategies.len() {
            0 => WorkerStrategy::Walk,
            n => cfg.strategies[i % n],
        })
        .collect();
    let all_walk = strategies.iter().all(|s| *s == WorkerStrategy::Walk);
    // One shard per worker (rounded up to a power of two, min 8) keeps
    // same-shard collisions between workers rare. With a memory budget the
    // shared set spills cold shards to disk instead.
    let visited = if cfg.shared_visited || !all_walk || persist.is_some() {
        Some(match &cfg.base.mem_budget {
            Some(budget) => match ShardedVisited::with_spill(cfg.base.visited_capacity, budget) {
                Ok(v) => v,
                Err(e) => return spill_init_report(workers, &e),
            },
            None => ShardedVisited::new(cfg.base.visited_capacity, workers.max(8)),
        })
    } else {
        None
    };

    let (codec, snapshot_path, snapshot_every) = match &persist {
        Some(p) => (Some(p.codec), p.snapshot_path.clone(), p.snapshot_every),
        None => (None, None, 0),
    };
    // Round quota in frame expansions; one round when nothing is pickled.
    let quota = match snapshot_path {
        Some(_) if snapshot_every > 0 => snapshot_every,
        _ => u64::MAX,
    };
    let resume = persist.and_then(|p| p.resume);
    let (baseline, generation) = match &resume {
        Some(snap) => (snap.stats.clone(), snap.generation + 1),
        None => (ExploreStats::default(), 0),
    };
    if let (Some(snap), Some(visited)) = (&resume, &visited) {
        visited.load_entries(&snap.visited);
    }

    // Frontier spilling needs both a budget (the hot cap) and a codec (to
    // encode op-prefixes into pages); the queues share the visited set's
    // page store so one spill file serves the whole run.
    let frontier_spill = match (&cfg.base.mem_budget, codec, &visited) {
        (Some(budget), Some(_), Some(visited)) => visited
            .spill_set()
            .map(|s| FrontierSpill::new(s.store().clone(), budget.frontier_hot_bytes)),
        _ => None,
    };

    let shared = FrontierShared::<S::Op> {
        queues: (0..workers)
            .map(|_| Mutex::new(FrontierQueue::new()))
            .collect(),
        frontier_spill,
        visited,
        busy: AtomicUsize::new(0),
        idle: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        round_done: AtomicBool::new(false),
        round_work: AtomicU64::new(0),
        ops_total: AtomicU64::new(baseline.ops_executed),
        states_total: AtomicU64::new(baseline.states_new),
    };

    // Seed the queues: the resumed entries round-robin across Dfs/Bfs
    // workers, or the root entry for a fresh run. An all-walk fleet parks
    // resumed entries on queue 0: never expanded, but carried forward into
    // the next snapshot. Seeding never spills (no I/O to fail here); the
    // first over-budget worker push drains the excess to pages.
    let frontier_idxs: Vec<usize> = (0..workers)
        .filter(|&i| strategies[i] != WorkerStrategy::Walk)
        .collect();
    let entries = match resume {
        Some(snap) => snap.frontier,
        None if all_walk => Vec::new(),
        None => vec![FrontierEntry {
            prefix: Vec::new(),
            sleep: Vec::new(),
        }],
    };
    for (slot, queue) in deal_frontier(entries, frontier_idxs.len())
        .into_iter()
        .enumerate()
    {
        let idx = frontier_idxs.get(slot).copied().unwrap_or(0);
        shared.queues[idx].lock().extend_back(queue.into());
    }

    // Per-worker accumulators, merged across snapshot rounds. A worker
    // whose stop reason is recorded is done and not re-spawned; `None`
    // means the round quota interrupted it and it resumes next round.
    let mut agg_stats = vec![ExploreStats::default(); workers];
    let mut agg_violations: Vec<Vec<Violation<S::Op>>> = (0..workers).map(|_| Vec::new()).collect();
    let mut last_stop: Vec<Option<StopReason>> = vec![None; workers];
    let mut persist_error = None;
    for round in 0u64.. {
        shared.round_done.store(false, Ordering::SeqCst);
        shared.round_work.store(0, Ordering::SeqCst);

        // mcfs-lint: allow(MC007, per-worker results land in indexed slots; the merge below is worker-order deterministic)
        std::thread::scope(|scope| {
            for (idx, ((stats_slot, viol_slot), stop_slot)) in agg_stats
                .iter_mut()
                .zip(agg_violations.iter_mut())
                .zip(last_stop.iter_mut())
                .enumerate()
            {
                if stop_slot.is_some() {
                    continue;
                }
                let shared = &shared;
                let factory = &factory;
                let base = &cfg.base;
                let strategy = strategies[idx];
                let done_ops = stats_slot.ops_executed;
                scope.spawn(move || {
                    let result = catch_unwind(AssertUnwindSafe(|| {
                        let mut sys = factory(idx);
                        match strategy {
                            WorkerStrategy::Walk => {
                                let seed = walk_seed(base.seed, idx, round, generation);
                                run_walk_round(&mut sys, base, seed, done_ops, shared, quota)
                            }
                            _ => {
                                let fleet = Fleet::new(shared, idx, strategy, quota, codec);
                                run_frontier_worker(&mut sys, base, fleet)
                            }
                        }
                    }));
                    *stop_slot = match result {
                        Ok((stop, mut report)) => {
                            // A shared set's spill counters and peak are
                            // fleet-wide and surface once (snapshot stats and
                            // `SwarmReport::spill`); summing per-worker
                            // copies would overcount.
                            if shared.visited.is_some() {
                                report.stats.spill = None;
                                report.stats.visited_peak_bytes = 0;
                            }
                            stats_slot.merge(&report.stats);
                            viol_slot.extend(report.violations);
                            stop
                        }
                        Err(payload) => Some(StopReason::WorkerPanic(panic_message(payload))),
                    };
                });
            }
        });

        // Snapshot at the (quiescent) round boundary: the scope joined, so
        // the queues and visited set are a consistent cut of the search.
        // Both big sections stream — visited entries page-by-page through
        // the writer, spilled frontier pages one queue at a time — so the
        // snapshot path never materializes the whole set as a second copy.
        if let (Some(path), Some(codec), Some(visited)) = (&snapshot_path, codec, &shared.visited) {
            let ctx: SpillCtx<'_, S::Op> = shared
                .frontier_spill
                .as_ref()
                .map(|fs| (fs, codec as &dyn OpCodec<S::Op>));
            let cut = || -> Result<(), String> {
                let mut frontier = Vec::new();
                for q in &shared.queues {
                    let entries = q.lock().collect_all(ctx);
                    frontier.extend(entries.map_err(|e| format!("frontier snapshot failed: {e}"))?);
                }
                let mut stats = baseline.clone();
                for s in &agg_stats {
                    stats.merge(s);
                }
                // The shared set's fleet-wide spill counters and peak ride
                // in the snapshot stats (per-worker stats exclude them —
                // see `SwarmReport::spill`).
                stats.merge(&ExploreStats {
                    spill: visited.spill_stats(),
                    visited_peak_bytes: visited.peak_bytes(),
                    ..ExploreStats::default()
                });
                let rng: Vec<RngCursor> = (0..workers)
                    .map(|i| RngCursor {
                        seed: walk_seed(cfg.base.seed, i, round, generation),
                        draws: agg_stats[i].ops_executed,
                    })
                    .collect();
                let mut w = SnapshotWriter::new(codec, cfg.base.seed, workers as u32, generation);
                w.begin_visited(visited.len() as u32);
                visited
                    .stream_entries(|h, d| w.visited_entry(h, d))
                    .map_err(|e| format!("visited snapshot failed: {e}"))?;
                w.frontier(&frontier);
                w.rng(&rng);
                pickle::save_atomic(path, &w.finish(&stats)).map_err(|e| e.to_string())
            };
            if let Err(e) = cut() {
                persist_error = Some(e);
            }
        }

        if shared.stop.load(Ordering::SeqCst)
            || last_stop.iter().all(Option::is_some)
            || quota == u64::MAX
        {
            break;
        }
    }

    SwarmReport {
        workers: agg_stats
            .into_iter()
            .zip(agg_violations)
            .zip(last_stop)
            .map(|((stats, violations), stop)| ExploreReport {
                stats,
                violations,
                stop: stop.unwrap_or(StopReason::Exhausted),
            })
            .collect(),
        distinct_states: shared.visited.as_ref().map(|v| v.len() as u64),
        baseline,
        persist_error,
        spill: shared.visited.as_ref().and_then(|v| v.spill_stats()),
        visited_peak_bytes: shared.visited.as_ref().map_or(0, |v| v.peak_bytes()),
    }
}

/// One round of a walk worker: a seed-diversified random walk over the
/// fleet's visited set (or a private one), drained early if the round quota
/// or stop flag rises. `done_ops` counts the ops of its earlier rounds.
fn run_walk_round<S: ModelSystem>(
    sys: &mut S,
    base: &ExploreConfig,
    seed: u64,
    done_ops: u64,
    shared: &FrontierShared<S::Op>,
    quota: u64,
) -> (Option<StopReason>, ExploreReport<S::Op>) {
    // Per-worker op budget, minus what this worker's earlier rounds used.
    let walk = RandomWalk::new(ExploreConfig {
        seed,
        max_ops: base.max_ops.saturating_sub(done_ops),
        ..base.clone()
    });
    let tick = |_: &ExploreStats| shared.tick_round(quota);
    // The walk drains (ends as exhausted) once the fleet stops or the round
    // ends, so walk workers park for a consistent fleet snapshot.
    let halt = || shared.stop.load(Ordering::Relaxed) || shared.round_done.load(Ordering::Relaxed);
    let report = match shared.visited.clone() {
        Some(mut visited) => walk.walk(sys, &mut visited, tick, &halt),
        None => with_default_visited(base, |visited| walk.walk(sys, visited, tick, &halt)),
    };
    let stop = match &report.stop {
        StopReason::Violation => {
            shared.stop.store(true, Ordering::SeqCst);
            Some(StopReason::Violation)
        }
        // Drained at the round boundary: the walk has budget left, resume
        // it next round (with a fresh derived seed).
        StopReason::Exhausted if shared.round_done.load(Ordering::SeqCst) => None,
        other => Some(other.clone()),
    };
    (stop, report)
}

/// A Dfs/Bfs worker's round: the frame engine over the shared visited set,
/// taking published work when its own frames run out, until the search is
/// exhausted, a budget trips, or the round quota pauses the fleet.
///
/// The stop reason is `Some` when the worker is done for good, `None` when
/// the round quota (or a fleet stop raised elsewhere) interrupted it.
fn run_frontier_worker<S: ModelSystem>(
    sys: &mut S,
    cfg: &ExploreConfig,
    mut fleet: Fleet<'_, S::Op>,
) -> (Option<StopReason>, ExploreReport<S::Op>) {
    let shared = fleet.shared;
    let mut visited = shared
        .visited
        .clone()
        .expect("Dfs/Bfs fleets share the visited set");
    let (stop, report) = search(
        cfg,
        None,
        fleet.strategy,
        sys,
        &mut visited,
        Some(&mut fleet),
    );
    // Any terminal reason but exhaustion (which every worker reaches
    // together) stops the fleet: budgets are fleet-wide, and a worker that
    // failed leaves part of the search unexplored.
    if matches!(&stop, Some(reason) if *reason != StopReason::Exhausted) {
        shared.stop.store(true, Ordering::SeqCst);
    }
    (stop, report)
}

/// Steals roughly half of the first non-empty victim queue (from its front
/// — the oldest entries, i.e. the largest unexplored subtrees), moving the
/// surplus into the thief's own queue and returning one entry to expand.
/// Spilled victim pages reload transparently (steal-half pulls whole pages
/// rather than splitting one).
///
/// # Errors
///
/// On spill-file failure while reloading a victim's pages.
fn steal<Op: Clone>(
    shared: &FrontierShared<Op>,
    idx: usize,
    ctx: SpillCtx<'_, Op>,
) -> Result<Option<FrontierEntry<Op>>, String> {
    let n = shared.queues.len();
    for off in 1..n {
        let victim_idx = (idx + off) % n;
        let stolen: Vec<FrontierEntry<Op>> = {
            let mut victim = shared.queues[victim_idx].lock();
            if victim.is_empty() {
                continue;
            }
            victim.steal_half(ctx)?
        };
        if stolen.is_empty() {
            continue;
        }
        let mut it = stolen.into_iter();
        let first = it.next();
        shared.queues[idx].lock().extend_back(it.collect());
        return Ok(first);
    }
    Ok(None)
}
