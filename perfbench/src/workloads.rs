//! The four pairings, built the way `mcfs_bench::pair_*` build them, and one
//! fixed-budget exploration over each.
//!
//! Every builder takes a `traced` flag. Untraced, the harness is exactly the
//! program's, inside only the lap timer [`Laps`]. Traced, every ext/xfs
//! device sits in a [`TracedDevice`], every target in a [`TracedTarget`], and
//! the harness in a [`TracedSystem`] too.

use blockdev::{Clock, LatencyModel, RamDisk, TimedDevice};
use fs_ext::{ExtConfig, ExtFs};
use fs_xfs::{XfsConfig, XfsFs};
use mcfs::{
    CheckedTarget, CheckpointTarget, Mcfs, McfsConfig, PoolConfig, RemountMode, RemountTarget,
};
use mcfs_bench::{jffs2_on, scaled_mem, verifs_fuse, EXT_DEVICE_BYTES, XFS_DEVICE_BYTES};
use mdigest::Md5;
use modelcheck::{
    ApplyOutcome, CheckpointStoreStats, CrashStats, DfsExplorer, ExploreConfig, ExploreStats,
    MemConfig, ModelSystem, RandomWalk, ShrinkStats, StateId, StopReason, VisitedSet,
};
use verifs::BugConfig;
use vfs::{DeviceBacked, Errno, FileSystem, VfsResult};

use crate::reference;
use crate::trace::{intern, span, wall_ns, TracedDevice, TracedSystem, TracedTarget};

/// Walk seeds with a recorded outcome; a cycle's walk seeds wrap modulo this.
pub const WALK_SEEDS: u64 = 64;
/// Walks in one `verifs-walk` cycle. One walk's state count varies by about
/// 22% with its seed; the sum over 56 of the 64 walks by about 1%.
pub const WALKS_PER_CYCLE: u64 = 56;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Ext2 vs Ext4 on RAM, per-op remount, DFS depth 6.
    Ext2Ext4,
    /// Ext4 vs XFS (16 MiB device), per-op remount, DFS depth 6.
    Ext4Xfs,
    /// Ext4 vs JFFS2, per-op remount, DFS depth 6.
    Ext4Jffs2,
    /// VeriFS1 vs VeriFS2 through fusesim, checkpoint API, random walk.
    VerifsWalk,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Ext2Ext4,
        Workload::Ext4Xfs,
        Workload::Ext4Jffs2,
        Workload::VerifsWalk,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ext2Ext4 => "ext2-ext4-dfs",
            Workload::Ext4Xfs => "ext4-xfs-dfs",
            Workload::Ext4Jffs2 => "ext4-jffs2-dfs",
            Workload::VerifsWalk => "verifs-walk",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Transitions one repetition executes. The DFS budget is the `fig2`
    /// default, so `virtual_ops_per_s` reproduces EXPERIMENTS.md's Fig. 2.
    /// Walks are short so that a run times each of them several times.
    pub fn op_budget(self) -> u64 {
        match self {
            Workload::VerifsWalk => 600,
            _ => 3_000,
        }
    }

    /// The repetitions of one cycle, by walk seed: a DFS cycle is one
    /// seed-independent exploration (`None`); a walk cycle is
    /// [`WALKS_PER_CYCLE`] walks with consecutive seeds from `seed`.
    pub fn cycle(self, seed: u64) -> Vec<Option<u64>> {
        match self {
            Workload::VerifsWalk => (0..WALKS_PER_CYCLE)
                .map(|i| Some((seed % WALK_SEEDS + i) % WALK_SEEDS))
                .collect(),
            _ => vec![None],
        }
    }
}

/// The deterministic outcome of one repetition: identical on every run of
/// the same workload and walk seed, traced or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    /// Transitions executed.
    pub ops: u64,
    /// Distinct states discovered.
    pub states: u64,
    /// Virtual nanoseconds the exploration consumed.
    pub virtual_ns: u64,
    /// MD5 over the sorted visited-state fingerprints.
    pub digest: u128,
}

/// One repetition: a fresh harness explored to the op budget.
#[derive(Debug, Clone)]
pub struct Rep {
    /// The deterministic outcome.
    pub outcome: Outcome,
    /// Failed transitions: violations, plus one when the run stopped for any
    /// reason but its op budget (fatal checkpoint or restore included).
    pub failed: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Explorer counters.
    pub stats: ExploreStats,
    /// Wall time to build the harness.
    pub setup_ns: u64,
    /// Wall time of the exploration, without reference bursts.
    pub explore_ns: u64,
    /// The same time split into laps of [`LAP_OPS`] transitions (the last
    /// lap takes the remainder).
    pub laps_ns: Vec<u64>,
}

/// Wall time to build `w`'s untraced harness; dropping it is not timed.
pub fn setup_ns(w: Workload) -> u64 {
    let start = wall_ns();
    let built = build(w, false, BugConfig::none());
    let elapsed = wall_ns() - start;
    if let Err(e) = built {
        panic!("{}: harness construction failed: {e}", w.name());
    }
    elapsed
}

/// Runs one repetition of `w` (walking from `walk_seed` on `verifs-walk`).
/// `bugs` seeds VeriFS1's bugs: the self-test uses it, benchmark runs pass
/// [`BugConfig::none`].
pub fn run(w: Workload, walk_seed: Option<u64>, traced: bool, bugs: BugConfig) -> Rep {
    let start = wall_ns();
    let (harness, clock) = build(w, traced, bugs)
        .unwrap_or_else(|e| panic!("{}: harness construction failed: {e}", w.name()));
    let setup_ns = wall_ns() - start;
    let cfg = explore_config(w.op_budget(), walk_seed);
    let mut visited = VisitedSet::new(cfg.visited_capacity);
    let virtual_start = clock.now_ns();
    let (report, laps_ns) = if traced {
        let mut sys = Laps::new(TracedSystem::new(harness));
        let report = span(intern("modelcheck.explore"), || {
            explore(w, cfg, &clock, &mut sys, &mut visited)
        });
        (report, sys.finish())
    } else {
        let mut sys = Laps::new(harness);
        (
            explore(w, cfg, &clock, &mut sys, &mut visited),
            sys.finish(),
        )
    };
    let explore_ns = laps_ns.iter().sum();
    let virtual_ns = clock.now_ns() - virtual_start;
    let mut hashes: Vec<u128> = visited
        .export_entries()
        .into_iter()
        .map(|(h, _)| h)
        .collect();
    hashes.sort_unstable();
    let mut md5 = Md5::new();
    for h in &hashes {
        md5.update(&h.to_le_bytes());
    }
    let failed = report.violations.len() as u64 + u64::from(report.stop != StopReason::OpBudget);
    Rep {
        outcome: Outcome {
            ops: report.stats.ops_executed,
            states: report.stats.states_new,
            virtual_ns,
            digest: md5.finalize().as_u128(),
        },
        failed,
        stop: report.stop,
        stats: report.stats,
        setup_ns,
        explore_ns,
        laps_ns,
    }
}

/// Transitions per timed lap.
pub const LAP_OPS: u64 = 10;

/// Forwards every [`ModelSystem`] call and times each run of [`LAP_OPS`]
/// `apply` calls. A repetition's transitions are deterministic, so lap `j` is
/// the same work in every cycle and its times can be compared. Between laps
/// it lets the host-speed reference run, outside either lap.
struct Laps<S> {
    inner: S,
    applies: u64,
    lap_start: u64,
    laps: Vec<u64>,
}

impl<S> Laps<S> {
    fn new(inner: S) -> Self {
        Laps {
            inner,
            applies: 0,
            lap_start: wall_ns(),
            laps: Vec::new(),
        }
    }

    /// The lap times, closing the last lap now.
    fn finish(mut self) -> Vec<u64> {
        self.laps.push(wall_ns() - self.lap_start);
        self.laps
    }
}

impl<S: ModelSystem> ModelSystem for Laps<S> {
    type Op = S::Op;

    fn ops(&mut self) -> Vec<S::Op> {
        self.inner.ops()
    }

    fn apply(&mut self, op: &S::Op) -> ApplyOutcome {
        let outcome = self.inner.apply(op);
        self.applies += 1;
        if self.applies.is_multiple_of(LAP_OPS) {
            let now = wall_ns();
            self.laps.push(now - self.lap_start);
            self.lap_start = reference::between_laps(now);
        }
        outcome
    }

    fn abstract_state(&mut self) -> u128 {
        self.inner.abstract_state()
    }

    fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
        self.inner.checkpoint(id)
    }

    fn restore(&mut self, id: StateId) -> Result<(), String> {
        self.inner.restore(id)
    }

    fn release(&mut self, id: StateId) {
        self.inner.release(id);
    }

    fn pin(&mut self, id: StateId) {
        self.inner.pin(id);
    }

    fn unpin(&mut self, id: StateId) {
        self.inner.unpin(id);
    }

    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        self.inner.checkpoint_store_stats()
    }

    fn crash_stats(&self) -> Option<CrashStats> {
        self.inner.crash_stats()
    }

    fn independent(&self, a: &S::Op, b: &S::Op) -> bool {
        self.inner.independent(a, b)
    }

    fn persistent_set(&mut self, enabled: &[S::Op]) -> Option<Vec<bool>> {
        self.inner.persistent_set(enabled)
    }

    fn minimize(&mut self, trace: &[S::Op], message: &str) -> Option<(Vec<S::Op>, ShrinkStats)> {
        self.inner.minimize(trace, message)
    }
}

fn explore_config(max_ops: u64, walk_seed: Option<u64>) -> ExploreConfig {
    match walk_seed {
        // `mcfs_bench::measure_dfs`: the paper's bounded DFS, retaining
        // tracked state data as SPIN does.
        None => ExploreConfig {
            max_depth: 6,
            max_ops,
            mem: scaled_mem(),
            stop_on_violation: true,
            retain_states: true,
            ..ExploreConfig::default()
        },
        // The `fig3` long-run walk: restarts spread over the stored
        // history, backtracking on every match.
        Some(walk_seed) => ExploreConfig {
            max_depth: 25,
            max_ops,
            stop_on_violation: true,
            retain_states: true,
            mem: MemConfig {
                ram_bytes: 96 << 20,
                swap_bytes: 4 << 30,
                swap_ns_per_mib: 20_000_000,
            },
            visited_capacity: 2_048,
            restart_spread: 0.6,
            backtrack_on_match: true,
            seed: walk_seed,
            ..ExploreConfig::default()
        },
    }
}

fn explore<S: ModelSystem>(
    w: Workload,
    cfg: ExploreConfig,
    clock: &Clock,
    sys: &mut S,
    visited: &mut VisitedSet,
) -> modelcheck::ExploreReport<S::Op> {
    if w == Workload::VerifsWalk {
        RandomWalk::new(cfg)
            .with_clock(clock.clone())
            .run_resumable(sys, visited, |_| {})
    } else {
        DfsExplorer::new(cfg)
            .with_clock(clock.clone())
            .run_with_visited(sys, visited)
    }
}

fn build(w: Workload, traced: bool, bugs: BugConfig) -> VfsResult<(Mcfs, Clock)> {
    let clock = Clock::new();
    let (targets, pool) = match w {
        Workload::Ext2Ext4 => (
            vec![
                ext("ext2", ExtConfig::ext2(), &clock, traced)?,
                ext("ext4", ExtConfig::ext4(), &clock, traced)?,
            ],
            PoolConfig::small(),
        ),
        Workload::Ext4Xfs => (
            vec![
                ext("ext4", ExtConfig::ext4(), &clock, traced)?,
                xfs(&clock, traced)?,
            ],
            PoolConfig::small(),
        ),
        Workload::Ext4Jffs2 => (
            vec![
                ext("ext4", ExtConfig::ext4(), &clock, traced)?,
                remount("jffs2", jffs2_on(clock.clone())?, &clock, traced),
            ],
            PoolConfig::small(),
        ),
        Workload::VerifsWalk => (
            vec![
                maybe_traced(
                    "verifs1",
                    CheckpointTarget::new(verifs_fuse(1, bugs, clock.clone())),
                    traced,
                ),
                maybe_traced(
                    "verifs2",
                    CheckpointTarget::new(verifs_fuse(2, BugConfig::none(), clock.clone())),
                    traced,
                ),
            ],
            PoolConfig::medium(),
        ),
    };
    let cfg = McfsConfig {
        pool,
        ..McfsConfig::default()
    };
    Ok((Mcfs::with_clock(targets, cfg, clock.clone())?, clock))
}

/// A RAM device of `bytes` with the RAM latency model charged to `clock`.
fn ram_device(block_size: usize, bytes: u64, clock: &Clock) -> VfsResult<TimedDevice<RamDisk>> {
    let disk = RamDisk::new(block_size, bytes).map_err(|_| Errno::EINVAL)?;
    Ok(TimedDevice::new(disk, LatencyModel::ram(), clock.clone()))
}

fn ext(fs: &str, cfg: ExtConfig, clock: &Clock, traced: bool) -> VfsResult<Box<dyn CheckedTarget>> {
    let dev = ram_device(cfg.block_size, EXT_DEVICE_BYTES, clock)?;
    Ok(if traced {
        let dev = TracedDevice::new(dev, fs);
        remount(fs, ExtFs::format(dev, cfg)?, clock, traced)
    } else {
        remount(fs, ExtFs::format(dev, cfg)?, clock, traced)
    })
}

fn xfs(clock: &Clock, traced: bool) -> VfsResult<Box<dyn CheckedTarget>> {
    let cfg = XfsConfig::default();
    let dev = ram_device(cfg.block_size, XFS_DEVICE_BYTES, clock)?;
    Ok(if traced {
        let dev = TracedDevice::new(dev, "xfs");
        remount("xfs", XfsFs::format(dev, cfg)?, clock, traced)
    } else {
        remount("xfs", XfsFs::format(dev, cfg)?, clock, traced)
    })
}

fn remount<F>(name: &str, fs: F, clock: &Clock, traced: bool) -> Box<dyn CheckedTarget>
where
    F: FileSystem + DeviceBacked + Send + 'static,
{
    let target = RemountTarget::new(fs, RemountMode::PerOp).with_clock(clock.clone());
    maybe_traced(name, target, traced)
}

fn maybe_traced<T: CheckedTarget + 'static>(
    name: &str,
    target: T,
    traced: bool,
) -> Box<dyn CheckedTarget> {
    if traced {
        Box::new(TracedTarget::new(target, name))
    } else {
        Box::new(target)
    }
}
