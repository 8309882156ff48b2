//! Explorers: bounded DFS (SPIN's default search), BFS, and random walk.

use blockdev::Clock;

use crate::memmodel::{MemConfig, MemoryModel, OutOfMemory};
use crate::spill::{MemBudget, SpillStats};
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
        match (&mut self.spill, &other.spill) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.spill = Some(*b),
            _ => {}
        }
        match (&mut self.checkpoint_store, &other.checkpoint_store) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.checkpoint_store = Some(*b),
            _ => {}
        }
        match (&mut self.crash, &other.crash) {
            (Some(a), Some(b)) => a.merge(b),
            (None, Some(b)) => self.crash = Some(*b),
            _ => {}
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

/// The report for a run that could not start because the spill store failed
/// to initialize (bad spill dir, exhausted fds, ...).
fn spill_init_failure<Op>(e: String) -> ExploreReport<Op> {
    ExploreReport {
        stats: ExploreStats::default(),
        violations: Vec::new(),
        stop: StopReason::Fatal(format!("spill store init failed: {e}")),
    }
}

/// Builds the [`Violation`] record for a just-detected violation, asking the
/// system to minimize the counterexample ([`ModelSystem::minimize`] — a
/// no-op unless the system enables it), or to say why it cannot
/// ([`ModelSystem::minimize_unavailable`]).
pub(crate) fn record_violation<S: ModelSystem>(
    sys: &mut S,
    trace: Vec<S::Op>,
    message: String,
    ops_executed: u64,
) -> Violation<S::Op> {
    let (minimized_trace, shrink) = match sys.minimize(&trace, &message) {
        Some((t, s)) => (Some(t), Some(s)),
        None => (None, None),
    };
    let shrink_skipped = match minimized_trace {
        Some(_) => None,
        None => sys.minimize_unavailable().map(String::from),
    };
    Violation {
        trace,
        message,
        ops_executed,
        minimized_trace,
        shrink,
        shrink_skipped,
    }
}

/// Restricts an enabled-op list to the system's persistent set
/// ([`ModelSystem::persistent_set`]), counting masked-out ops as pruned.
/// No-op unless `cfg.por_persistent` is set and the mask is well-formed.
pub(crate) fn persistent_filter<S: ModelSystem>(
    cfg: &ExploreConfig,
    sys: &mut S,
    ops: Vec<S::Op>,
    pruned: &mut u64,
) -> Vec<S::Op> {
    if !cfg.por_persistent {
        return ops;
    }
    match sys.persistent_set(&ops) {
        Some(mask) if mask.len() == ops.len() => {
            let mut kept = Vec::with_capacity(ops.len());
            for (op, keep) in ops.into_iter().zip(mask) {
                if keep {
                    kept.push(op);
                } else {
                    *pruned += 1;
                }
            }
            kept
        }
        _ => ops,
    }
}

struct Frame<Op> {
    state: StateId,
    ops: Vec<Op>,
    next: usize,
    sleep: Vec<Op>,
    op_from_parent: Option<Op>,
}

/// Depth-first explorer with abstract-state matching — SPIN's search
/// strategy, as MCFS uses it.
#[derive(Debug)]
pub struct DfsExplorer {
    cfg: ExploreConfig,
    clock: Option<Clock>,
}

impl DfsExplorer {
    /// Creates an explorer with the given bounds.
    pub fn new(cfg: ExploreConfig) -> Self {
        DfsExplorer { cfg, clock: None }
    }

    /// Attaches a virtual clock: memory-model costs are charged to it, and
    /// `max_virtual_ns` becomes enforceable.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    fn charge(&self, ns: u64) {
        if let Some(c) = &self.clock {
            c.advance_ns(ns);
        }
    }

    /// Runs the exploration to completion or budget. With
    /// [`ExploreConfig::mem_budget`] set, the visited set is disk-spilling.
    pub fn run<S: ModelSystem>(&self, sys: &mut S) -> ExploreReport<S::Op> {
        match &self.cfg.mem_budget {
            Some(budget) => match ShardedVisited::with_spill(self.cfg.visited_capacity, budget) {
                Ok(mut visited) => self.run_with_visited(sys, &mut visited),
                Err(e) => spill_init_failure(e),
            },
            None => {
                let mut visited = VisitedSet::new(self.cfg.visited_capacity);
                self.run_with_visited(sys, &mut visited)
            }
        }
    }

    /// Runs with a caller-owned visited set — the paper's §7 resumability:
    /// persist the visited set across an interruption (e.g. a kernel crash
    /// during checking) and resume without re-exploring known states. The
    /// set may also be a swarm-shared [`crate::ShardedVisited`].
    pub fn run_with_visited<S: ModelSystem, V: VisitedHandle>(
        &self,
        sys: &mut S,
        visited: &mut V,
    ) -> ExploreReport<S::Op> {
        let visited = &mut *visited;
        let start_ns = self.clock.as_ref().map(Clock::now_ns).unwrap_or(0);
        let mut stats = ExploreStats::default();
        let mut violations = Vec::new();
        let mut mem = MemoryModel::new(self.cfg.mem);
        let mut next_id = 0u64;

        let root_hash = sys.abstract_state();
        if visited.insert(root_hash).0 {
            stats.states_new += 1;
        }

        let root = StateId(next_id);
        next_id += 1;
        let stop = (|| -> StopReason {
            self.charge(visited.take_pending_ns());
            if let Some(e) = visited.error() {
                return StopReason::Fatal(format!("visited spill failed: {e}"));
            }
            match sys.checkpoint(root) {
                Ok(bytes) => match mem.store(root, bytes as u64) {
                    Ok(cost) => self.charge(cost),
                    Err(oom) => return StopReason::OutOfMemory(oom),
                },
                Err(e) => return StopReason::Fatal(e),
            }
            // DFS re-enters every state on its backtrack spine, so each one
            // is pinned against budget-driven eviction until its frame pops.
            sys.pin(root);
            stats.checkpoints += 1;
            let root_ops = sys.ops();
            let root_ops = persistent_filter(&self.cfg, sys, root_ops, &mut stats.pruned);
            let mut stack: Vec<Frame<S::Op>> = vec![Frame {
                state: root,
                ops: root_ops,
                next: 0,
                sleep: Vec::new(),
                op_from_parent: None,
            }];
            // The concrete state the system is currently in, when it matches
            // a stored checkpoint. SPIN only restores on backtrack: while
            // the search advances deeper, the live state IS the frame state.
            let mut current: Option<StateId> = Some(root);

            loop {
                if stats.ops_executed >= self.cfg.max_ops {
                    return StopReason::OpBudget;
                }
                if stats.states_new >= self.cfg.max_states {
                    return StopReason::StateBudget;
                }
                if let (Some(limit), Some(c)) = (self.cfg.max_virtual_ns, &self.clock) {
                    if c.now_ns() - start_ns >= limit {
                        return StopReason::TimeBudget;
                    }
                }
                let Some(frame) = stack.last_mut() else {
                    return StopReason::Exhausted;
                };
                if frame.next >= frame.ops.len() {
                    sys.unpin(frame.state);
                    sys.release(frame.state);
                    if !self.cfg.retain_states {
                        mem.release(frame.state);
                    }
                    stack.pop();
                    continue;
                }
                let idx = frame.next;
                frame.next += 1;
                let op = frame.ops[idx].clone();
                if self.cfg.por && frame.sleep.contains(&op) {
                    stats.pruned += 1;
                    continue;
                }
                let frame_state = frame.state;
                if current != Some(frame_state) {
                    self.charge(mem.access(frame_state));
                    if let Err(e) = sys.restore(frame_state) {
                        return restore_failure(e);
                    }
                    stats.restores += 1;
                }
                // Applying the op leaves the system off any stored state
                // until a checkpoint re-anchors it.
                current = None;
                let outcome = sys.apply(&op);
                stats.ops_executed += 1;
                match outcome {
                    ApplyOutcome::Ok => {}
                    ApplyOutcome::Prune(_) => {
                        stats.pruned += 1;
                        continue;
                    }
                    ApplyOutcome::Violation(message) => {
                        let mut trace: Vec<S::Op> = stack
                            .iter()
                            .filter_map(|f| f.op_from_parent.clone())
                            .collect();
                        trace.push(op);
                        violations.push(record_violation(sys, trace, message, stats.ops_executed));
                        if self.cfg.stop_on_violation {
                            return StopReason::Violation;
                        }
                        continue;
                    }
                }
                let h = sys.abstract_state();
                let (visit, resize) = visited.insert_at(h, stack.len() as u32);
                if let Some(r) = resize {
                    stats.resize_events += 1;
                    self.charge(r.cost_ns);
                    self.charge(mem.set_overhead(visited.bytes() + r.transient_bytes));
                    self.charge(mem.set_overhead(visited.bytes()));
                }
                self.charge(visited.take_pending_ns());
                if let Some(e) = visited.error() {
                    return StopReason::Fatal(format!("visited spill failed: {e}"));
                }
                if visit == Visit::Matched {
                    stats.states_matched += 1;
                    continue;
                }
                if visit == Visit::New {
                    stats.states_new += 1;
                }
                // `Shallower` re-expands a known state reached closer to the
                // root: without this, depth-bounded coverage would depend on
                // exploration order (SPIN re-explores identically).
                stats.max_depth_seen = stats.max_depth_seen.max(stack.len());
                if stack.len() >= self.cfg.max_depth {
                    continue; // depth bound: record the state, don't expand
                }
                let child = StateId(next_id);
                next_id += 1;
                match sys.checkpoint(child) {
                    Ok(bytes) => match mem.store(child, bytes as u64) {
                        Ok(cost) => self.charge(cost),
                        Err(oom) => return StopReason::OutOfMemory(oom),
                    },
                    Err(e) => return StopReason::Fatal(e),
                }
                sys.pin(child);
                stats.checkpoints += 1;
                current = Some(child);
                let sleep = if self.cfg.por {
                    let parent = stack.last().expect("frame exists");
                    let mut s: Vec<S::Op> = parent
                        .sleep
                        .iter()
                        .filter(|x| sys.independent(x, &op))
                        .cloned()
                        .collect();
                    for prev in &parent.ops[..idx] {
                        if sys.independent(prev, &op) && !s.contains(prev) {
                            s.push(prev.clone());
                        }
                    }
                    s
                } else {
                    Vec::new()
                };
                let ops = sys.ops();
                let ops = persistent_filter(&self.cfg, sys, ops, &mut stats.pruned);
                stack.push(Frame {
                    state: child,
                    ops,
                    next: 0,
                    sleep,
                    op_from_parent: Some(op),
                });
            }
        })();

        self.charge(visited.take_pending_ns());
        stats.checkpoint_store = sys.checkpoint_store_stats();
        stats.crash = sys.crash_stats();
        stats.peak_memory_bytes = mem.peak_bytes();
        stats.swap_traffic_bytes = mem.swap_traffic_bytes();
        stats.swapped_bytes = mem.swapped_bytes();
        stats.hit_rate = mem.hit_rate();
        stats.visited_peak_bytes = visited.peak_bytes();
        stats.spill = visited.spill_stats();
        stats.virtual_ns = self
            .clock
            .as_ref()
            .map(|c| c.now_ns() - start_ns)
            .unwrap_or(0);
        ExploreReport {
            stats,
            violations,
            stop,
        }
    }
}

/// Breadth-first explorer. Finds *shortest* violation traces, at the cost of
/// storing a frontier of concrete states (memory hungry, like real BFS model
/// checking).
#[derive(Debug)]
pub struct BfsExplorer {
    cfg: ExploreConfig,
    clock: Option<Clock>,
}

impl BfsExplorer {
    /// Creates an explorer with the given bounds.
    pub fn new(cfg: ExploreConfig) -> Self {
        BfsExplorer { cfg, clock: None }
    }

    /// Attaches a virtual clock.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    fn charge(&self, ns: u64) {
        if let Some(c) = &self.clock {
            c.advance_ns(ns);
        }
    }

    /// Runs the exploration.
    pub fn run<S: ModelSystem>(&self, sys: &mut S) -> ExploreReport<S::Op> {
        match &self.cfg.mem_budget {
            Some(budget) => match ShardedVisited::with_spill(self.cfg.visited_capacity, budget) {
                Ok(mut visited) => self.run_with_visited(sys, &mut visited),
                Err(e) => spill_init_failure(e),
            },
            None => {
                let mut visited = VisitedSet::new(self.cfg.visited_capacity);
                self.run_with_visited(sys, &mut visited)
            }
        }
    }

    /// Runs with a caller-owned visited set (§7 resumability — see
    /// [`DfsExplorer::run_with_visited`]).
    pub fn run_with_visited<S: ModelSystem, V: VisitedHandle>(
        &self,
        sys: &mut S,
        visited: &mut V,
    ) -> ExploreReport<S::Op> {
        use std::collections::VecDeque;
        let start_ns = self.clock.as_ref().map(Clock::now_ns).unwrap_or(0);
        let mut stats = ExploreStats::default();
        let mut violations = Vec::new();
        let mut mem = MemoryModel::new(self.cfg.mem);
        let mut next_id = 0u64;
        // Parent-pointer arena for trace reconstruction.
        let mut arena: Vec<(Option<usize>, Option<S::Op>)> = vec![(None, None)];

        if visited.insert(sys.abstract_state()).0 {
            stats.states_new += 1;
        }
        let root = StateId(next_id);
        next_id += 1;
        let stop = (|| -> StopReason {
            self.charge(visited.take_pending_ns());
            if let Some(e) = visited.error() {
                return StopReason::Fatal(format!("visited spill failed: {e}"));
            }
            match sys.checkpoint(root) {
                Ok(bytes) => match mem.store(root, bytes as u64) {
                    Ok(cost) => self.charge(cost),
                    Err(oom) => return StopReason::OutOfMemory(oom),
                },
                Err(e) => return StopReason::Fatal(e),
            }
            // BFS re-enters every frontier state once per op, so the whole
            // frontier is pinned against eviction until it is expanded.
            sys.pin(root);
            stats.checkpoints += 1;
            let mut queue: VecDeque<(StateId, usize, usize)> = VecDeque::new();
            queue.push_back((root, 0, 0)); // (state, depth, arena idx)
            while let Some((state, depth, node)) = queue.pop_front() {
                self.charge(mem.access(state));
                if let Err(e) = sys.restore(state) {
                    return restore_failure(e);
                }
                stats.restores += 1;
                let ops = sys.ops();
                for op in ops {
                    if stats.ops_executed >= self.cfg.max_ops {
                        return StopReason::OpBudget;
                    }
                    if stats.states_new >= self.cfg.max_states {
                        return StopReason::StateBudget;
                    }
                    self.charge(mem.access(state));
                    if let Err(e) = sys.restore(state) {
                        return restore_failure(e);
                    }
                    stats.restores += 1;
                    let outcome = sys.apply(&op);
                    stats.ops_executed += 1;
                    match outcome {
                        ApplyOutcome::Ok => {}
                        ApplyOutcome::Prune(_) => {
                            stats.pruned += 1;
                            continue;
                        }
                        ApplyOutcome::Violation(message) => {
                            let mut trace = Vec::new();
                            let mut cur = Some(node);
                            while let Some(i) = cur {
                                if let Some(op) = &arena[i].1 {
                                    trace.push(op.clone());
                                }
                                cur = arena[i].0;
                            }
                            trace.reverse();
                            trace.push(op.clone());
                            violations.push(record_violation(
                                sys,
                                trace,
                                message,
                                stats.ops_executed,
                            ));
                            if self.cfg.stop_on_violation {
                                return StopReason::Violation;
                            }
                            continue;
                        }
                    }
                    let h = sys.abstract_state();
                    // BFS reaches every state at its minimal depth first, so
                    // plain matching is already order-independent.
                    let (visit, resize) = visited.insert_at(h, depth as u32 + 1);
                    if let Some(r) = resize {
                        stats.resize_events += 1;
                        self.charge(r.cost_ns);
                        self.charge(mem.set_overhead(visited.bytes()));
                    }
                    self.charge(visited.take_pending_ns());
                    if let Some(e) = visited.error() {
                        return StopReason::Fatal(format!("visited spill failed: {e}"));
                    }
                    if visit != Visit::New {
                        stats.states_matched += 1;
                        continue;
                    }
                    stats.states_new += 1;
                    stats.max_depth_seen = stats.max_depth_seen.max(depth + 1);
                    if depth + 1 >= self.cfg.max_depth {
                        continue;
                    }
                    let child = StateId(next_id);
                    next_id += 1;
                    match sys.checkpoint(child) {
                        Ok(bytes) => match mem.store(child, bytes as u64) {
                            Ok(cost) => self.charge(cost),
                            Err(oom) => return StopReason::OutOfMemory(oom),
                        },
                        Err(e) => return StopReason::Fatal(e),
                    }
                    sys.pin(child);
                    stats.checkpoints += 1;
                    arena.push((Some(node), Some(op.clone())));
                    queue.push_back((child, depth + 1, arena.len() - 1));
                }
                sys.unpin(state);
                sys.release(state);
                if !self.cfg.retain_states {
                    mem.release(state);
                }
            }
            StopReason::Exhausted
        })();

        self.charge(visited.take_pending_ns());
        stats.checkpoint_store = sys.checkpoint_store_stats();
        stats.crash = sys.crash_stats();
        stats.peak_memory_bytes = mem.peak_bytes();
        stats.swap_traffic_bytes = mem.swap_traffic_bytes();
        stats.swapped_bytes = mem.swapped_bytes();
        stats.hit_rate = mem.hit_rate();
        stats.visited_peak_bytes = visited.peak_bytes();
        stats.spill = visited.spill_stats();
        stats.virtual_ns = self
            .clock
            .as_ref()
            .map(|c| c.now_ns() - start_ns)
            .unwrap_or(0);
        ExploreReport {
            stats,
            violations,
            stop,
        }
    }
}

/// Randomized walker: repeatedly executes random enabled operations,
/// restarting from the initial state at the depth bound. This is the
/// long-run mode behind the paper's multi-day soaks (randomized driver
/// processes, §2).
#[derive(Debug)]
pub struct RandomWalk {
    cfg: ExploreConfig,
    clock: Option<Clock>,
}

impl RandomWalk {
    /// Creates a walker with the given bounds (`max_depth` is the walk
    /// length between restarts).
    pub fn new(cfg: ExploreConfig) -> Self {
        RandomWalk { cfg, clock: None }
    }

    /// Attaches a virtual clock.
    pub fn with_clock(mut self, clock: Clock) -> Self {
        self.clock = Some(clock);
        self
    }

    fn charge(&self, ns: u64) {
        if let Some(c) = &self.clock {
            c.advance_ns(ns);
        }
    }

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
        match &self.cfg.mem_budget {
            Some(budget) => match ShardedVisited::with_spill(self.cfg.visited_capacity, budget) {
                Ok(mut visited) => self.run_resumable(sys, &mut visited, observe),
                Err(e) => spill_init_failure(e),
            },
            None => {
                let mut visited = VisitedSet::new(self.cfg.visited_capacity);
                self.run_resumable(sys, &mut visited, observe)
            }
        }
    }

    /// Runs with a caller-owned visited set (§7 resumability — see
    /// [`DfsExplorer::run_with_visited`]) and a progress observer. The set
    /// may also be a swarm-shared [`crate::ShardedVisited`], in which case
    /// states another worker already expanded count as matched here.
    pub fn run_resumable<S: ModelSystem, V: VisitedHandle>(
        &self,
        sys: &mut S,
        visited: &mut V,
        mut observe: impl FnMut(&ExploreStats),
    ) -> ExploreReport<S::Op> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let start_ns = self.clock.as_ref().map(Clock::now_ns).unwrap_or(0);
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let mut stats = ExploreStats::default();
        let mut violations = Vec::new();
        let mut mem = MemoryModel::new(self.cfg.mem);

        if visited.insert(sys.abstract_state()).0 {
            stats.states_new += 1;
        }
        let root = StateId(0);
        let mut trace: Vec<S::Op> = Vec::new();
        let mut next_id = 1u64;
        let mut stored: Vec<StateId> = vec![root];
        let stop = (|| -> StopReason {
            self.charge(visited.take_pending_ns());
            if let Some(e) = visited.error() {
                return StopReason::Fatal(format!("visited spill failed: {e}"));
            }
            match sys.checkpoint(root) {
                Ok(bytes) => match mem.store(root, bytes as u64) {
                    Ok(cost) => self.charge(cost),
                    Err(oom) => return StopReason::OutOfMemory(oom),
                },
                Err(e) => return StopReason::Fatal(e),
            }
            // Only the root is pinned: spread-restart targets are nice to
            // have, but the walk can always fall back to the root if the
            // budgeted store evicted one.
            sys.pin(root);
            stats.checkpoints += 1;
            let mut depth = 0usize;
            loop {
                if stats.ops_executed >= self.cfg.max_ops {
                    return StopReason::OpBudget;
                }
                if stats.states_new >= self.cfg.max_states {
                    return StopReason::StateBudget;
                }
                if let (Some(limit), Some(c)) = (self.cfg.max_virtual_ns, &self.clock) {
                    if c.now_ns() - start_ns >= limit {
                        return StopReason::TimeBudget;
                    }
                }
                let ops = sys.ops();
                if ops.is_empty() && depth == 0 {
                    // No operation is enabled even in the initial state:
                    // nothing left to do (also how swarm workers drain once
                    // the shared stop flag rises).
                    return StopReason::Exhausted;
                }
                if depth >= self.cfg.max_depth || ops.is_empty() {
                    // Pick the restart target: the root, or (with
                    // restart_spread) a random recently stored state.
                    let target = if self.cfg.restart_spread > 0.0 && stored.len() > 1 {
                        let window = ((stored.len() as f64 * self.cfg.restart_spread) as usize)
                            .clamp(1, stored.len());
                        let start = stored.len() - window;
                        stored[rng.gen_range(start..stored.len())]
                    } else {
                        root
                    };
                    self.charge(mem.access(target));
                    if let Err(e) = sys.restore(target) {
                        if target != root && is_evicted_error(&e) {
                            // The spread target aged out of the budgeted
                            // store: forget it and restart from the pinned
                            // root instead of dying.
                            stored.retain(|s| *s != target);
                            self.charge(mem.access(root));
                            if let Err(e) = sys.restore(root) {
                                return restore_failure(e);
                            }
                        } else {
                            return restore_failure(e);
                        }
                    }
                    stats.restores += 1;
                    depth = 0;
                    trace.clear();
                    continue;
                }
                let op = ops[rng.gen_range(0..ops.len())].clone();
                let outcome = sys.apply(&op);
                stats.ops_executed += 1;
                trace.push(op.clone());
                match outcome {
                    ApplyOutcome::Ok => {}
                    ApplyOutcome::Prune(_) => {
                        stats.pruned += 1;
                        trace.pop();
                        observe(&stats);
                        continue;
                    }
                    ApplyOutcome::Violation(message) => {
                        violations.push(record_violation(
                            sys,
                            trace.clone(),
                            message,
                            stats.ops_executed,
                        ));
                        if self.cfg.stop_on_violation {
                            return StopReason::Violation;
                        }
                        trace.pop();
                        observe(&stats);
                        continue;
                    }
                }
                depth += 1;
                stats.max_depth_seen = stats.max_depth_seen.max(depth);
                let h = sys.abstract_state();
                let (is_new, resize) = visited.insert(h);
                if let Some(r) = resize {
                    stats.resize_events += 1;
                    self.charge(r.cost_ns);
                    self.charge(mem.set_overhead(visited.bytes() + r.transient_bytes));
                    self.charge(mem.set_overhead(visited.bytes()));
                }
                self.charge(visited.take_pending_ns());
                if let Some(e) = visited.error() {
                    return StopReason::Fatal(format!("visited spill failed: {e}"));
                }
                if is_new {
                    stats.states_new += 1;
                    // The walker checkpoints newly discovered states, as
                    // MCFS does, so the state store (and its memory
                    // pressure) grows with exploration.
                    let id = StateId(next_id);
                    next_id += 1;
                    match sys.checkpoint(id) {
                        Ok(bytes) => match mem.store(id, bytes as u64) {
                            Ok(cost) => self.charge(cost),
                            Err(oom) => return StopReason::OutOfMemory(oom),
                        },
                        Err(e) => return StopReason::Fatal(e),
                    }
                    stats.checkpoints += 1;
                    if self.cfg.restart_spread > 0.0 {
                        // Keep the state restorable: restarts may jump here.
                        stored.push(id);
                        // Bound the system-side store (the memory *model*
                        // keeps charging retained states; the host doesn't
                        // have to hold them all).
                        if stored.len() > 4096 {
                            let old = stored.remove(0);
                            sys.release(old);
                            if !self.cfg.retain_states {
                                mem.release(old);
                            }
                        }
                    } else {
                        sys.release(id);
                    }
                } else {
                    stats.states_matched += 1;
                    if self.cfg.backtrack_on_match {
                        // SPIN semantics: a matched state ends the path.
                        let target = if self.cfg.restart_spread > 0.0 && stored.len() > 1 {
                            let window = ((stored.len() as f64 * self.cfg.restart_spread) as usize)
                                .clamp(1, stored.len());
                            let start = stored.len() - window;
                            stored[rng.gen_range(start..stored.len())]
                        } else {
                            root
                        };
                        self.charge(mem.access(target));
                        if let Err(e) = sys.restore(target) {
                            if target != root && is_evicted_error(&e) {
                                stored.retain(|s| *s != target);
                                self.charge(mem.access(root));
                                if let Err(e) = sys.restore(root) {
                                    return restore_failure(e);
                                }
                            } else {
                                return restore_failure(e);
                            }
                        }
                        stats.restores += 1;
                        depth = 0;
                        trace.clear();
                    }
                    // Otherwise the walk keeps going through visited
                    // territory: the frontier lies beyond it.
                }
                stats.swapped_bytes = mem.swapped_bytes();
                stats.hit_rate = mem.hit_rate();
                stats.virtual_ns = self
                    .clock
                    .as_ref()
                    .map(|c| c.now_ns() - start_ns)
                    .unwrap_or(0);
                observe(&stats);
            }
        })();

        self.charge(visited.take_pending_ns());
        stats.checkpoint_store = sys.checkpoint_store_stats();
        stats.crash = sys.crash_stats();
        stats.peak_memory_bytes = mem.peak_bytes();
        stats.swap_traffic_bytes = mem.swap_traffic_bytes();
        stats.swapped_bytes = mem.swapped_bytes();
        stats.hit_rate = mem.hit_rate();
        stats.visited_peak_bytes = visited.peak_bytes();
        stats.spill = visited.spill_stats();
        stats.virtual_ns = self
            .clock
            .as_ref()
            .map(|c| c.now_ns() - start_ns)
            .unwrap_or(0);
        ExploreReport {
            stats,
            violations,
            stop,
        }
    }

    /// Runs the walk without an observer.
    pub fn run<S: ModelSystem>(&self, sys: &mut S) -> ExploreReport<S::Op> {
        self.run_observed(sys, |_| {})
    }
}
