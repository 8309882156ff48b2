//! Explorers: bounded DFS (SPIN's default search) and BFS, both run by one
//! frame-deque engine that also drives the work-stealing fleet's workers,
//! and the random walk.

use std::collections::VecDeque;

use blockdev::Clock;

use crate::memmodel::{MemConfig, MemoryModel, OutOfMemory};
use crate::pickle::FrontierEntry;
use crate::spill::{MemBudget, SpillStats};
use crate::swarm::{Fleet, Work, WorkerStrategy};
use crate::system::{
    is_evicted_error, ApplyOutcome, CheckpointStoreStats, CrashStats, ModelSystem, StateId,
    Violation,
};
use crate::visited::{ShardedVisited, Visit, VisitedHandle, VisitedSet};

/// Exploration bounds and options.
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Maximum operation-sequence depth (the bounded state space).
    pub max_depth: usize,
    /// Operation budget.
    pub max_ops: u64,
    /// Distinct-state budget.
    pub max_states: u64,
    /// Virtual-time budget in nanoseconds (requires a clock).
    pub max_virtual_ns: Option<u64>,
    /// Stop at the first violation (otherwise collect and continue).
    pub stop_on_violation: bool,
    /// Enable sleep-set partial-order reduction (uses
    /// [`ModelSystem::independent`]).
    pub por: bool,
    /// Enable persistent-set partial-order reduction (uses
    /// [`ModelSystem::persistent_set`]): expansion of each state is
    /// restricted to the subset the system proves sufficient. Independent
    /// of (and composable with) `por`'s sleep sets.
    pub por_persistent: bool,
    /// Memory model budgets.
    pub mem: MemConfig,
    /// Out-of-core budget: when set, the visited set spills cold entries to
    /// disk instead of growing without bound, real page traffic is charged
    /// to the virtual clock, and [`ExploreStats::spill`] reports the
    /// counters. `None` keeps the fully in-RAM sets.
    pub mem_budget: Option<MemBudget>,
    /// Initial visited-table capacity (first modelled resize threshold).
    pub visited_capacity: usize,
    /// Keep every visited state's concrete image charged against the memory
    /// model even after the search no longer needs it — modelling SPIN
    /// retaining tracked state data for the whole run, which is what made
    /// the paper's big-state configurations swap-bound. The system-side
    /// store is still released, so the *host's* memory stays bounded.
    pub retain_states: bool,
    /// Random-walk restarts: fraction of the stored-state history eligible
    /// as a restart target (0.0 = always the initial state). Non-zero values
    /// make the walk jump back into previously visited regions, the access
    /// pattern that drives SPIN's swap traffic over long runs (Fig. 3).
    /// States become system-side retained, so host memory grows with the
    /// run.
    pub restart_spread: f64,
    /// Random walk: backtrack (restart) whenever a visited state is matched,
    /// as SPIN's search does, instead of walking on through. Combined with
    /// `restart_spread`, every match becomes a stored-state access — the
    /// traffic that made the paper's long runs swap-bound.
    pub backtrack_on_match: bool,
    /// Seed for randomized exploration.
    pub seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            max_depth: 6,
            max_ops: 1_000_000,
            max_states: u64::MAX,
            max_virtual_ns: None,
            stop_on_violation: true,
            por: false,
            por_persistent: false,
            mem: MemConfig::default(),
            mem_budget: None,
            visited_capacity: 1 << 16,
            retain_states: false,
            restart_spread: 0.0,
            backtrack_on_match: false,
            seed: 0,
        }
    }
}

/// Why exploration ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StopReason {
    /// The bounded state space was fully explored.
    Exhausted,
    /// Operation budget reached.
    OpBudget,
    /// State budget reached.
    StateBudget,
    /// Virtual-time budget reached.
    TimeBudget,
    /// Stopped at a violation.
    Violation,
    /// The memory model ran out of RAM + swap.
    OutOfMemory(OutOfMemory),
    /// Checkpoint/restore failed.
    Fatal(String),
    /// A restore named a checkpoint the budgeted state store had already
    /// evicted (the payload is the store's error message). Distinct from
    /// [`Fatal`](StopReason::Fatal): the system is healthy, the checkpoint
    /// budget was just too tight for this search shape.
    CheckpointEvicted(String),
    /// The worker thread panicked (swarm mode records this instead of
    /// aborting the fleet; the payload is the panic message).
    WorkerPanic(String),
}

/// Counters from one exploration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExploreStats {
    /// Operations executed against the system(s).
    pub ops_executed: u64,
    /// Operations re-executed only to reconstruct a frontier state from its
    /// op-prefix (work-stealing swarm workers and resumed runs replay
    /// prefixes deterministically instead of shipping concrete state).
    /// Replays never discover states; they are counted separately so
    /// resume/steal overhead is visible. Not included in `ops_executed`.
    pub ops_replayed: u64,
    /// Distinct abstract states discovered.
    pub states_new: u64,
    /// Abstract states matched against the visited table (duplicates
    /// pruned — the paper's key state-explosion countermeasure).
    pub states_matched: u64,
    /// Branches pruned (disabled ops, sleep sets).
    pub pruned: u64,
    /// Concrete checkpoints taken.
    pub checkpoints: u64,
    /// Concrete restores performed.
    pub restores: u64,
    /// Deepest operation sequence reached.
    pub max_depth_seen: usize,
    /// Visited-table resize events (Fig. 3's rate dip).
    pub resize_events: u32,
    /// Peak modelled memory (states + tables), bytes.
    pub peak_memory_bytes: u64,
    /// Cumulative modelled swap traffic, bytes.
    pub swap_traffic_bytes: u64,
    /// Final modelled swap residency, bytes.
    pub swapped_bytes: u64,
    /// RAM hit rate for state accesses.
    pub hit_rate: f64,
    /// Virtual time consumed (0 without a clock).
    pub virtual_ns: u64,
    /// Peak bytes held by the visited set (hot cache only when spilling;
    /// the whole table when fully in RAM). Tracked as a watermark so the
    /// hot-budget enforcement of [`ExploreConfig::mem_budget`] is auditable.
    pub visited_peak_bytes: u64,
    /// Spill-store counters when the run used an out-of-core visited set
    /// ([`ExploreConfig::mem_budget`]); `None` for fully in-RAM runs.
    pub spill: Option<SpillStats>,
    /// End-of-run statistics of the system's checkpoint store, when it
    /// maintains a budgeted pool ([`ModelSystem::checkpoint_store_stats`]).
    pub checkpoint_store: Option<CheckpointStoreStats>,
    /// End-of-run crash-injection statistics, when the system explores
    /// crashes ([`ModelSystem::crash_stats`]).
    pub crash: Option<CrashStats>,
}

impl ExploreStats {
    /// Operations per virtual second (`None` without a clock).
    pub fn ops_per_sec(&self) -> Option<f64> {
        if self.virtual_ns == 0 {
            None
        } else {
            Some(self.ops_executed as f64 * 1e9 / self.virtual_ns as f64)
        }
    }

    /// Accumulates `other` into `self`: counters are summed (`virtual_ns`
    /// included — in an aggregate it reads as total work time), watermarks
    /// (`max_depth_seen`, `peak_memory_bytes`, `hit_rate`) take the maximum,
    /// and the optional store/crash stats merge field-wise. Used to combine
    /// one worker's rounds and to aggregate a fleet into a snapshot.
    pub fn merge(&mut self, other: &ExploreStats) {
        self.ops_executed += other.ops_executed;
        self.ops_replayed += other.ops_replayed;
        self.states_new += other.states_new;
        self.states_matched += other.states_matched;
        self.pruned += other.pruned;
        self.checkpoints += other.checkpoints;
        self.restores += other.restores;
        self.max_depth_seen = self.max_depth_seen.max(other.max_depth_seen);
        self.resize_events += other.resize_events;
        self.peak_memory_bytes = self.peak_memory_bytes.max(other.peak_memory_bytes);
        self.swap_traffic_bytes += other.swap_traffic_bytes;
        self.swapped_bytes += other.swapped_bytes;
        self.hit_rate = self.hit_rate.max(other.hit_rate);
        self.virtual_ns += other.virtual_ns;
        self.visited_peak_bytes = self.visited_peak_bytes.max(other.visited_peak_bytes);
        merge_opt(&mut self.spill, other.spill, SpillStats::merge);
        merge_opt(
            &mut self.checkpoint_store,
            other.checkpoint_store,
            CheckpointStoreStats::merge,
        );
        merge_opt(&mut self.crash, other.crash, CrashStats::merge);
    }
}

/// Merges optional per-subsystem stats field-wise.
fn merge_opt<T: Copy>(into: &mut Option<T>, other: Option<T>, merge: fn(&mut T, &T)) {
    if let Some(b) = other {
        match into {
            Some(a) => merge(a, &b),
            None => *into = Some(b),
        }
    }
}

/// The outcome of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport<Op> {
    /// Counters.
    pub stats: ExploreStats,
    /// Violations found (with reproduction traces).
    pub violations: Vec<Violation<Op>>,
    /// Why the run ended.
    pub stop: StopReason,
}

/// Classifies a restore error: budget-driven eviction stops the run with
/// [`StopReason::CheckpointEvicted`]; anything else is fatal.
fn restore_failure(e: String) -> StopReason {
    if is_evicted_error(&e) {
        StopReason::CheckpointEvicted(e)
    } else {
        StopReason::Fatal(e)
    }
}

/// The stop reason for a failed spill store (`what`: "visited" or
/// "frontier").
fn spill_failure(what: &str, e: String) -> StopReason {
    StopReason::Fatal(format!("{what} spill failed: {e}"))
}

/// The report for a run that could not start because the spill store failed
/// to initialize (bad spill dir, exhausted fds, ...).
pub(crate) fn spill_init_failure<Op>(e: &str) -> ExploreReport<Op> {
    ExploreReport {
        stats: ExploreStats::default(),
        violations: Vec::new(),
        stop: StopReason::Fatal(format!("spill store init failed: {e}")),
    }
}

/// Runs `search` over a fresh visited set: disk-spilling under
/// [`ExploreConfig::mem_budget`], fully in RAM otherwise.
pub(crate) fn with_default_visited<Op>(
    cfg: &ExploreConfig,
    search: impl FnOnce(&mut dyn VisitedHandle) -> ExploreReport<Op>,
) -> ExploreReport<Op> {
    match &cfg.mem_budget {
        Some(budget) => match ShardedVisited::with_spill(cfg.visited_capacity, budget) {
            Ok(mut visited) => search(&mut visited),
            Err(e) => spill_init_failure(&e),
        },
        None => search(&mut VisitedSet::new(cfg.visited_capacity)),
    }
}

/// The initial state's checkpoint. Every search starts from it, and fleet
/// workers replay the op-prefixes they take over from it.
const ROOT: StateId = StateId(0);

/// A checkpointed state the search is expanding one op at a time.
struct Frame<Op> {
    /// The state's checkpoint, pinned until the frame retires.
    state: StateId,
    /// The ops that reach the state from the root: the trace prefix of
    /// every violation found below it.
    prefix: Vec<Op>,
    /// The enabled ops (after the persistent-set filter), taken in order.
    ops: Vec<Op>,
    /// Index into `ops` of the next op to take.
    next: usize,
    /// Ops whose subtrees are covered elsewhere: the sleep set, plus the
    /// ops a publishing worker had already taken.
    sleep: Vec<Op>,
}

impl<Op: Clone + PartialEq> Frame<Op> {
    fn unfinished(&self) -> bool {
        self.next < self.ops.len()
    }

    /// The untaken rest of the frame as a replayable entry: the ops taken so
    /// far join the sleep set, so whoever expands it skips them.
    fn into_entry(self) -> FrontierEntry<Op> {
        let mut sleep = self.sleep;
        for op in &self.ops[..self.next] {
            if !sleep.contains(op) {
                sleep.push(op.clone());
            }
        }
        FrontierEntry {
            prefix: self.prefix,
            sleep,
        }
    }
}

/// The exploration engine: one loop over a deque of frames that applies a
/// frame's next op, fingerprints the result, probes the visited set, and
/// checkpoints each state worth expanding as a child frame. DFS, BFS, and
/// the work-stealing fleet's workers differ only in the end of the deque
/// they continue — the newest frame for [`WorkerStrategy::Dfs`], the oldest
/// for [`WorkerStrategy::Bfs`] — and in the optional [`Fleet`] handle. The
/// random walk shares its bookkeeping: counters, violations, the memory
/// model, and the virtual clock.
struct Engine<'a, S: ModelSystem, V: ?Sized> {
    cfg: &'a ExploreConfig,
    clock: Option<&'a Clock>,
    start_ns: u64,
    sys: &'a mut S,
    visited: &'a mut V,
    mem: MemoryModel,
    stats: ExploreStats,
    violations: Vec<Violation<S::Op>>,
    order: WorkerStrategy,
    frames: VecDeque<Frame<S::Op>>,
    /// The checkpoint the live state equals, if any. SPIN only restores on
    /// backtrack: while the search advances deeper, the live state IS the
    /// newest frame's state.
    current: Option<StateId>,
    next_id: u64,
    /// Fleet workers keep the root checkpoint for their whole life: it is
    /// the replay base of every entry they take over.
    keep_root: bool,
}

impl<'a, S: ModelSystem, V: VisitedHandle + ?Sized> Engine<'a, S, V> {
    fn new(
        cfg: &'a ExploreConfig,
        clock: Option<&'a Clock>,
        order: WorkerStrategy,
        sys: &'a mut S,
        visited: &'a mut V,
    ) -> Self {
        Engine {
            cfg,
            clock,
            start_ns: clock.map_or(0, Clock::now_ns),
            sys,
            visited,
            mem: MemoryModel::new(cfg.mem),
            stats: ExploreStats::default(),
            violations: Vec::new(),
            order,
            frames: VecDeque::new(),
            current: None,
            next_id: ROOT.0,
            keep_root: false,
        }
    }

    fn charge(&self, ns: u64) {
        if let Some(c) = self.clock {
            c.advance_ns(ns);
        }
    }

    fn elapsed_ns(&self) -> u64 {
        self.clock.map_or(0, |c| c.now_ns() - self.start_ns)
    }

    /// The budget that `ops` executed operations, `states` discovered
    /// states (this run's counts, or a fleet's totals) or the clock have
    /// exhausted, if any.
    fn budget_stop(&self, ops: u64, states: u64) -> Option<StopReason> {
        if ops >= self.cfg.max_ops {
            Some(StopReason::OpBudget)
        } else if states >= self.cfg.max_states {
            Some(StopReason::StateBudget)
        } else {
            let limit = self.cfg.max_virtual_ns.filter(|_| self.clock.is_some())?;
            (self.elapsed_ns() >= limit).then_some(StopReason::TimeBudget)
        }
    }

    /// Checkpoints the live state under a fresh id and charges its storage
    /// to the memory model.
    fn checkpoint(&mut self) -> Result<StateId, StopReason> {
        let id = StateId(self.next_id);
        self.next_id += 1;
        let bytes = self.sys.checkpoint(id).map_err(StopReason::Fatal)?;
        let cost = self.mem.store(id, bytes as u64);
        self.charge(cost.map_err(StopReason::OutOfMemory)?);
        self.stats.checkpoints += 1;
        Ok(id)
    }

    /// Restores checkpoint `id`, charging the stored-state access.
    fn enter(&mut self, id: StateId) -> Result<(), String> {
        let cost = self.mem.access(id);
        self.charge(cost);
        self.sys.restore(id)?;
        self.stats.restores += 1;
        Ok(())
    }

    /// Records fingerprint `h` reached at `depth`, charging table resizes
    /// and spill traffic.
    fn visit(&mut self, h: u128, depth: u32) -> Result<Visit, StopReason> {
        let (visit, resize) = self.visited.insert_at(h, depth);
        if let Some(r) = resize {
            self.stats.resize_events += 1;
            self.charge(r.cost_ns);
            let transient = self
                .mem
                .set_overhead(self.visited.bytes() + r.transient_bytes);
            self.charge(transient);
            let settled = self.mem.set_overhead(self.visited.bytes());
            self.charge(settled);
        }
        self.drain()?;
        Ok(visit)
    }

    /// Charges the visited set's pending page traffic; a failed spill store
    /// stops the run.
    fn drain(&mut self) -> Result<(), StopReason> {
        let pending = self.visited.take_pending_ns();
        self.charge(pending);
        self.visited
            .error()
            .map_or(Ok(()), |e| Err(spill_failure("visited", e)))
    }

    /// Records a violation, asking the system to minimize the
    /// counterexample ([`ModelSystem::minimize`] — a no-op unless the system
    /// enables it), or to say why it cannot
    /// ([`ModelSystem::minimize_unavailable`]).
    fn violation(&mut self, trace: Vec<S::Op>, message: String) {
        let (minimized_trace, shrink) = self.sys.minimize(&trace, &message).unzip();
        let shrink_skipped = match minimized_trace {
            Some(_) => None,
            None => self.sys.minimize_unavailable().map(String::from),
        };
        self.violations.push(Violation {
            trace,
            message,
            ops_executed: self.stats.ops_executed,
            minimized_trace,
            shrink,
            shrink_skipped,
        });
    }

    /// Fingerprints the initial state and checkpoints it as [`ROOT`]. In a
    /// fleet every worker does this, but only the fleet-wide first insert
    /// counts the root as discovered (resumed runs re-match it).
    fn start(&mut self) -> Result<(), StopReason> {
        if self.visited.insert(self.sys.abstract_state()).0 {
            self.stats.states_new += 1;
        }
        self.drain()?;
        self.anchor()?; // the first id: ROOT
        Ok(())
    }

    /// Checkpoints the live state and pins it: the search re-enters every
    /// frame's state, so each one is pinned against budget-driven eviction
    /// until its frame retires.
    fn anchor(&mut self) -> Result<StateId, StopReason> {
        let id = self.checkpoint()?;
        self.sys.pin(id);
        self.current = Some(id);
        Ok(id)
    }

    /// Opens a frame on the live state, checkpointed as `state`. With
    /// [`ExploreConfig::por_persistent`], its ops are restricted to the
    /// system's persistent set; masked-out ops count as pruned.
    fn push_frame(&mut self, state: StateId, prefix: Vec<S::Op>, sleep: Vec<S::Op>) {
        let mut ops = self.sys.ops();
        if self.cfg.por_persistent {
            if let Some(mask) = self
                .sys
                .persistent_set(&ops)
                .filter(|m| m.len() == ops.len())
            {
                let before = ops.len();
                let mut keep = mask.into_iter();
                ops.retain(|_| keep.next().unwrap_or(true));
                self.stats.pruned += (before - ops.len()) as u64;
            }
        }
        self.frames.push_back(Frame {
            state,
            prefix,
            ops,
            next: 0,
            sleep,
        });
    }

    /// Drops a frame's checkpoint.
    fn retire(&mut self, frame: &Frame<S::Op>) {
        if self.keep_root && frame.state == ROOT {
            return;
        }
        self.sys.unpin(frame.state);
        self.sys.release(frame.state);
        if !self.cfg.retain_states {
            self.mem.release(frame.state);
        }
    }

    /// Index of the frame the search continues.
    fn active(&self) -> Option<usize> {
        match self.order {
            WorkerStrategy::Bfs => (!self.frames.is_empty()).then_some(0),
            _ => self.frames.len().checked_sub(1),
        }
    }

    /// Rebuilds a published entry's state by replaying its prefix from the
    /// root, then opens a frame on it. A prefix that no longer replays
    /// cleanly is dropped as stale.
    fn adopt(&mut self, entry: FrontierEntry<S::Op>) -> Result<(), StopReason> {
        if self.current != Some(ROOT) {
            self.enter(ROOT).map_err(restore_failure)?;
            self.current = Some(ROOT);
        }
        for (i, op) in entry.prefix.iter().enumerate() {
            self.current = None;
            match self.sys.apply(op) {
                ApplyOutcome::Ok => self.stats.ops_replayed += 1,
                ApplyOutcome::Prune(_) => {
                    self.stats.pruned += 1;
                    return Ok(());
                }
                ApplyOutcome::Violation(message) => {
                    self.violation(entry.prefix[..=i].to_vec(), message);
                    return match self.cfg.stop_on_violation {
                        true => Err(StopReason::Violation),
                        false => Ok(()),
                    };
                }
            }
        }
        // An empty prefix is the root itself, already checkpointed.
        let state = match self.current {
            Some(root) => root,
            None => self.anchor()?,
        };
        self.push_frame(state, entry.prefix, entry.sleep);
        Ok(())
    }

    /// Hands the lowest unfinished frame the search is not standing on to
    /// the fleet. Returns whether there was one.
    fn publish_lowest(&mut self, fleet: &Fleet<'_, S::Op>) -> Result<bool, StopReason> {
        let active = self.active();
        let Some(i) =
            (0..self.frames.len()).find(|&i| Some(i) != active && self.frames[i].unfinished())
        else {
            return Ok(false);
        };
        let frame = self.frames.remove(i).expect("index in range");
        self.retire(&frame);
        fleet
            .publish(frame.into_entry())
            .map_err(|e| spill_failure("frontier", e))?;
        Ok(true)
    }

    /// Explores until the frames run out or a budget, violation, or failure
    /// stops the search. In a fleet, an empty deque takes over published
    /// work instead, and `None` means the fleet paused this worker (a
    /// snapshot round ended, or another worker raised the stop flag).
    fn run(&mut self, mut fleet: Option<&mut Fleet<'_, S::Op>>) -> Option<StopReason> {
        loop {
            if let Err(stop) = self.step(&mut fleet) {
                return stop;
            }
        }
    }

    /// One step of [`Engine::run`]: takes the active frame's next op, or
    /// retires the finished frame, or (in a fleet) trades work. `Err`
    /// carries `run`'s result.
    fn step(
        &mut self,
        fleet: &mut Option<&mut Fleet<'_, S::Op>>,
    ) -> Result<(), Option<StopReason>> {
        let (ops, states) = match fleet.as_deref_mut() {
            Some(f) => f.totals(&self.stats).ok_or(None)?,
            None => (self.stats.ops_executed, self.stats.states_new),
        };
        if let Some(stop) = self.budget_stop(ops, states) {
            return Err(Some(stop));
        }
        if let Some(f) = fleet.as_deref_mut() {
            while f.wants_work() && self.publish_lowest(f)? {}
            if self.frames.is_empty() {
                match f.acquire().map_err(|e| spill_failure("frontier", e))? {
                    Work::Entry(entry) => self.adopt(entry)?,
                    Work::Wait => {}
                    Work::Done => return Err(Some(StopReason::Exhausted)),
                }
                return Ok(());
            }
        }
        let at = self.active().ok_or(StopReason::Exhausted)?;
        let frame = &mut self.frames[at];
        if !frame.unfinished() {
            let frame = self.frames.remove(at).expect("index in range");
            self.retire(&frame);
            if let Some(f) = fleet.as_deref() {
                f.expanded();
            }
            return Ok(());
        }
        let idx = frame.next;
        frame.next += 1;
        let op = frame.ops[idx].clone();
        if frame.sleep.contains(&op) {
            self.stats.pruned += 1;
            return Ok(());
        }
        let (state, depth) = (frame.state, frame.prefix.len() + 1);
        if self.current != Some(state) {
            self.enter(state).map_err(restore_failure)?;
        }
        // Applying the op leaves the system off any stored state until a
        // checkpoint re-anchors it.
        self.current = None;
        let outcome = self.sys.apply(&op);
        self.stats.ops_executed += 1;
        match outcome {
            ApplyOutcome::Ok => {}
            ApplyOutcome::Prune(_) => {
                self.stats.pruned += 1;
                return Ok(());
            }
            ApplyOutcome::Violation(message) => {
                let mut trace = self.frames[at].prefix.clone();
                trace.push(op);
                self.violation(trace, message);
                return match self.cfg.stop_on_violation {
                    true => Err(Some(StopReason::Violation)),
                    false => Ok(()),
                };
            }
        }
        let h = self.sys.abstract_state();
        match self.visit(h, depth as u32)? {
            Visit::Matched => {
                self.stats.states_matched += 1;
                return Ok(());
            }
            Visit::New => self.stats.states_new += 1,
            // `Shallower` re-expands a known state reached closer to the
            // root: without this, depth-bounded coverage would depend on
            // exploration order (SPIN re-explores identically).
            Visit::Shallower => {}
        }
        self.stats.max_depth_seen = self.stats.max_depth_seen.max(depth);
        if depth >= self.cfg.max_depth {
            return Ok(()); // depth bound: record the state, don't expand
        }
        let child = self.anchor()?;
        let parent = &self.frames[at];
        let mut sleep = Vec::new();
        if self.cfg.por {
            for x in parent.sleep.iter().chain(&parent.ops[..idx]) {
                if self.sys.independent(x, &op) && !sleep.contains(x) {
                    sleep.push(x.clone());
                }
            }
        }
        let mut prefix = parent.prefix.clone();
        prefix.push(op);
        self.push_frame(child, prefix, sleep);
        Ok(())
    }

    /// Closes the books: end-of-run memory, visited-set and system stats.
    fn finish(mut self, stop: StopReason) -> ExploreReport<S::Op> {
        let pending = self.visited.take_pending_ns();
        self.charge(pending);
        let stats = &mut self.stats;
        stats.checkpoint_store = self.sys.checkpoint_store_stats();
        stats.crash = self.sys.crash_stats();
        stats.peak_memory_bytes = self.mem.peak_bytes();
        stats.swap_traffic_bytes = self.mem.swap_traffic_bytes();
        stats.swapped_bytes = self.mem.swapped_bytes();
        stats.hit_rate = self.mem.hit_rate();
        stats.visited_peak_bytes = self.visited.peak_bytes();
        stats.spill = self.visited.spill_stats();
        stats.virtual_ns = self.clock.map_or(0, |c| c.now_ns() - self.start_ns);
        ExploreReport {
            stats: self.stats,
            violations: self.violations,
            stop,
        }
    }
}

/// Runs one search over `visited`: alone (`fleet: None`), or as one worker
/// of a fleet, taking published work from it and backtracking by restore
/// within it. A fleet worker hands whatever it leaves unexpanded back to the
/// fleet's queues, for a thief, the next round, or the snapshot. Returns the
/// stop reason (`None`: paused by the fleet) and the report.
pub(crate) fn search<S: ModelSystem, V: VisitedHandle + ?Sized>(
    cfg: &ExploreConfig,
    clock: Option<&Clock>,
    order: WorkerStrategy,
    sys: &mut S,
    visited: &mut V,
    mut fleet: Option<&mut Fleet<'_, S::Op>>,
) -> (Option<StopReason>, ExploreReport<S::Op>) {
    let mut engine = Engine::new(cfg, clock, order, sys, visited);
    engine.keep_root = fleet.is_some();
    let mut stop = match engine.start() {
        Ok(_) => {
            // A fleet worker's frames come from the queues, which hold the
            // root entry (or the resumed ones) to begin with.
            if fleet.is_none() {
                engine.push_frame(ROOT, Vec::new(), Vec::new());
            }
            engine.run(fleet.as_deref_mut())
        }
        Err(stop) => Some(stop),
    };
    if let Some(f) = fleet {
        while let Some(frame) = engine.frames.pop_front() {
            engine.retire(&frame);
            if frame.unfinished() {
                if let Err(e) = f.publish(frame.into_entry()) {
                    stop = Some(spill_failure("frontier", e));
                }
            }
        }
    }
    let report = engine.finish(stop.clone().unwrap_or(StopReason::Exhausted));
    (stop, report)
}

/// Declares an explorer type: exploration bounds plus an optional virtual
/// clock.
macro_rules! explorer {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug)]
        pub struct $name {
            cfg: ExploreConfig,
            clock: Option<Clock>,
        }

        impl $name {
            /// Creates an explorer with the given bounds.
            pub fn new(cfg: ExploreConfig) -> Self {
                $name { cfg, clock: None }
            }

            /// Attaches a virtual clock: memory-model costs are charged to
            /// it, and `max_virtual_ns` becomes enforceable.
            pub fn with_clock(mut self, clock: Clock) -> Self {
                self.clock = Some(clock);
                self
            }
        }
    };
}

/// Declares a frame-engine explorer continuing frames in `$order`.
macro_rules! frame_explorer {
    ($(#[$doc:meta])* $name:ident, $order:expr) => {
        explorer!($(#[$doc])* $name);

        impl $name {
            /// Runs the exploration to completion or budget. With
            /// [`ExploreConfig::mem_budget`] set, the visited set is
            /// disk-spilling.
            pub fn run<S: ModelSystem>(&self, sys: &mut S) -> ExploreReport<S::Op> {
                with_default_visited(&self.cfg, |visited| self.run_with_visited(sys, visited))
            }

            /// Runs with a caller-owned visited set — the paper's §7
            /// resumability: persist the visited set across an
            /// interruption (e.g. a kernel crash during checking) and
            /// resume without re-exploring known states. The set may also
            /// be a swarm-shared [`crate::ShardedVisited`].
            pub fn run_with_visited<S: ModelSystem, V: VisitedHandle + ?Sized>(
                &self,
                sys: &mut S,
                visited: &mut V,
            ) -> ExploreReport<S::Op> {
                search(&self.cfg, self.clock.as_ref(), $order, sys, visited, None).1
            }
        }
    };
}

frame_explorer!(
    /// Depth-first explorer with abstract-state matching — SPIN's search
    /// strategy, as MCFS uses it.
    DfsExplorer,
    WorkerStrategy::Dfs
);

frame_explorer!(
    /// Breadth-first explorer. Finds *shortest* violation traces, at the
    /// cost of storing a frontier of concrete states (memory hungry, like
    /// real BFS model checking).
    BfsExplorer,
    WorkerStrategy::Bfs
);

explorer!(
    /// Randomized walker: repeatedly executes random enabled operations,
    /// restarting from the initial state at the depth bound (`max_depth` is
    /// the walk length between restarts). This is the long-run mode behind
    /// the paper's multi-day soaks (randomized driver processes, §2).
    RandomWalk
);

impl RandomWalk {
    /// Runs the walk until a budget or violation stops it.
    ///
    /// `observe` is called after every operation with the running stats —
    /// the Fig. 3 harness samples rate and swap usage through it. Pass
    /// `|_| {}` when not needed.
    pub fn run_observed<S: ModelSystem>(
        &self,
        sys: &mut S,
        observe: impl FnMut(&ExploreStats),
    ) -> ExploreReport<S::Op> {
        with_default_visited(&self.cfg, |visited| {
            self.walk(sys, visited, observe, &|| false)
        })
    }

    /// Runs with a caller-owned visited set (§7 resumability — see
    /// [`DfsExplorer::run_with_visited`]) and a progress observer. The set
    /// may also be a swarm-shared [`crate::ShardedVisited`], in which case
    /// states another worker already expanded count as matched here.
    pub fn run_resumable<S: ModelSystem, V: VisitedHandle + ?Sized>(
        &self,
        sys: &mut S,
        visited: &mut V,
        observe: impl FnMut(&ExploreStats),
    ) -> ExploreReport<S::Op> {
        self.walk(sys, visited, observe, &|| false)
    }

    /// Runs the walk without an observer.
    pub fn run<S: ModelSystem>(&self, sys: &mut S) -> ExploreReport<S::Op> {
        self.run_observed(sys, |_| {})
    }

    /// The walk; it ends as exhausted once `halt` returns true (how swarm
    /// workers drain when the fleet stops or a snapshot round ends).
    pub(crate) fn walk<S: ModelSystem, V: VisitedHandle + ?Sized>(
        &self,
        sys: &mut S,
        visited: &mut V,
        mut observe: impl FnMut(&ExploreStats),
        halt: &dyn Fn() -> bool,
    ) -> ExploreReport<S::Op> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let cfg = &self.cfg;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut e = Engine::new(cfg, self.clock.as_ref(), WorkerStrategy::Walk, sys, visited);
        let mut trace: Vec<S::Op> = Vec::new();
        let mut stored: Vec<StateId> = vec![ROOT];
        let stop = (|| -> Result<StopReason, StopReason> {
            // Only the root is pinned: spread-restart targets are nice to
            // have, but the walk can always fall back to the root if the
            // budgeted store evicted one.
            e.start()?;
            let mut depth = 0usize;
            loop {
                if let Some(stop) = e.budget_stop(e.stats.ops_executed, e.stats.states_new) {
                    return Ok(stop);
                }
                let ops = if halt() { Vec::new() } else { e.sys.ops() };
                if ops.is_empty() && depth == 0 {
                    // No operation is enabled even in the initial state
                    // (or `halt` rose): nothing left to do.
                    return Ok(StopReason::Exhausted);
                }
                if depth >= cfg.max_depth || ops.is_empty() {
                    self.restart(&mut e, &mut rng, &mut stored)?;
                    depth = 0;
                    trace.clear();
                    continue;
                }
                let op = ops[rng.gen_range(0..ops.len())].clone();
                let outcome = e.sys.apply(&op);
                e.stats.ops_executed += 1;
                trace.push(op);
                if !matches!(outcome, ApplyOutcome::Ok) {
                    if let ApplyOutcome::Violation(message) = outcome {
                        e.violation(trace.clone(), message);
                        if cfg.stop_on_violation {
                            return Ok(StopReason::Violation);
                        }
                    } else {
                        e.stats.pruned += 1;
                    }
                    trace.pop();
                    observe(&e.stats);
                    continue;
                }
                depth += 1;
                e.stats.max_depth_seen = e.stats.max_depth_seen.max(depth);
                let h = e.sys.abstract_state();
                if e.visit(h, 0)? == Visit::New {
                    e.stats.states_new += 1;
                    // The walker checkpoints newly discovered states, as
                    // MCFS does, so the state store (and its memory
                    // pressure) grows with exploration.
                    let id = e.checkpoint()?;
                    if cfg.restart_spread > 0.0 {
                        // Keep the state restorable: restarts may jump here.
                        stored.push(id);
                        // Bound the system-side store (the memory *model*
                        // keeps charging retained states; the host doesn't
                        // have to hold them all).
                        if stored.len() > 4096 {
                            let old = stored.remove(0);
                            e.sys.release(old);
                            if !cfg.retain_states {
                                e.mem.release(old);
                            }
                        }
                    } else {
                        e.sys.release(id);
                    }
                } else {
                    e.stats.states_matched += 1;
                    if cfg.backtrack_on_match {
                        // SPIN semantics: a matched state ends the path.
                        self.restart(&mut e, &mut rng, &mut stored)?;
                        depth = 0;
                        trace.clear();
                    }
                    // Otherwise the walk keeps going through visited
                    // territory: the frontier lies beyond it.
                }
                e.stats.swapped_bytes = e.mem.swapped_bytes();
                e.stats.hit_rate = e.mem.hit_rate();
                e.stats.virtual_ns = e.elapsed_ns();
                observe(&e.stats);
            }
        })()
        .unwrap_or_else(|stop| stop);
        e.finish(stop)
    }

    /// Moves the walk back to a restart target: the root, or (with
    /// `restart_spread`) a random recently stored state. A spread target
    /// the budgeted store has evicted is forgotten, and the walk restarts
    /// from the pinned root instead of dying.
    fn restart<S: ModelSystem, V: VisitedHandle + ?Sized>(
        &self,
        e: &mut Engine<'_, S, V>,
        rng: &mut rand::rngs::StdRng,
        stored: &mut Vec<StateId>,
    ) -> Result<(), StopReason> {
        use rand::Rng;
        let target = if self.cfg.restart_spread > 0.0 && stored.len() > 1 {
            let window =
                ((stored.len() as f64 * self.cfg.restart_spread) as usize).clamp(1, stored.len());
            let start = stored.len() - window;
            stored[rng.gen_range(start..stored.len())]
        } else {
            ROOT
        };
        match e.enter(target) {
            Err(err) if target != ROOT && is_evicted_error(&err) => {
                stored.retain(|s| *s != target);
                e.enter(ROOT).map_err(restore_failure)
            }
            other => other.map_err(restore_failure),
        }
    }
}
