//! Concurrent-workload model checking: thread interleavings as the
//! nondeterminism source.
//!
//! [`ThreadedMcfs`] drives N logical threads, each with a fixed program of
//! POSIX ops, against one or more checked targets. The explorable
//! operation is a [`SchedStep`] — "thread `tid` issues its next op" — so
//! the state space is the set of interleavings of the per-thread programs,
//! optionally crossed with a crash pseudo-step between any two scheduled
//! ops. Steps execute atomically (one op runs to completion before the
//! next is scheduled), which models a kernel serializing the VFS layer;
//! what varies is the *order* in which threads win.
//!
//! Two oracles judge each schedule:
//!
//! * **Linearizability.** At every terminal state the per-thread observed
//!   results must match *some* sequential execution of the same ops on a
//!   fresh reference file system that respects each thread's program order
//!   and the real-time order of non-overlapping steps (Wing & Gong's
//!   algorithm, with checkpoint/restore pruning on the reference).
//! * **Crash prefix-consistency.** A crash fired between two scheduled
//!   steps must recover to a state reachable by *some* cut of the
//!   interleaved history — each thread stopped at some point at or after
//!   the last sync floor — re-executed sequentially on the reference.
//!
//! Dynamic POR: [`independent`](ModelSystem::independent) answers from the
//! *concurrent* effect matrix (strictly coarser than the sequential one —
//! outcome-sensitive pairs like `create`/`create` never commute), and
//! [`persistent_set`](ModelSystem::persistent_set) computes a
//! Godefroid-style source set by closing over future-conflicting threads.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use blockdev::Clock;
use mdigest::Digest128;
use modelcheck::{
    apply_mask, ddmin_mask, ApplyOutcome, CheckpointStoreStats, CrashStats, ModelSystem,
    ShrinkStats, StateId, EVICTED_MARKER,
};
use verifs::VeriFs;
use vfs::{Errno, FileSystem, VfsResult};

use crate::abstraction::{abstract_state, AbstractionConfig};
use crate::effect::{EffectIndex, EffectProfile};
use crate::pool::{execute_with, FsOp, OpOutcome};
use crate::shrink::{consumed_paths, produces, ShrinkConfig};
use crate::target::{CheckedTarget, CheckpointTarget};

/// The pseudo-thread id of the crash scheduler: a [`SchedStep`] with this
/// tid power-cuts every target between two real steps. Never a valid
/// program thread.
pub const CRASH_TID: u16 = u16::MAX;

/// One scheduling decision: thread `tid` issues its next program op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedStep {
    /// Logical thread issuing the op ([`CRASH_TID`] for the crash step).
    pub tid: u16,
    /// The op issued — always the thread's next program op (kept inline so
    /// traces are self-contained and replayable without the program).
    pub op: FsOp,
}

impl SchedStep {
    /// The crash pseudo-step.
    pub fn crash() -> Self {
        SchedStep {
            tid: CRASH_TID,
            op: FsOp::Crash,
        }
    }

    /// Whether this is the crash pseudo-step.
    pub fn is_crash(&self) -> bool {
        self.tid == CRASH_TID
    }
}

impl fmt::Display for SchedStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_crash() {
            write!(f, "crash")
        } else {
            write!(f, "t{}:{}", self.tid, self.op)
        }
    }
}

/// A full interleaved schedule.
pub type ThreadedTrace = Vec<SchedStep>;

/// A deterministic rebuilder for threaded harnesses, parameterized on the
/// candidate schedule (the factory derives per-thread programs from it).
/// Counterexample minimization replays candidates against factory-fresh
/// instances only.
pub type ThreadedHarnessFactory = dyn Fn(&[SchedStep]) -> VfsResult<ThreadedMcfs> + Send + Sync;

/// Configuration for [`ThreadedMcfs`].
#[derive(Debug, Clone)]
pub struct ThreadedMcfsConfig {
    /// Abstraction-function settings (exception list etc.).
    pub abstraction: AbstractionConfig,
    /// Charge this much CPU time per syscall per target.
    pub syscall_cpu_ns: u64,
    /// Enable the crash pseudo-step between any two scheduled ops. Requires
    /// every target to support crash recovery.
    pub crash_exploration: bool,
    /// Check every terminal interleaving's observed results against a
    /// sequential reference execution. **On** by default — it is the point.
    pub check_linearizability: bool,
    /// Delta-debug violating schedules at record time (needs a factory,
    /// [`ThreadedMcfs::set_factory`]; without one each violation records
    /// why it was not minimized in `Violation::shrink_skipped`).
    pub minimize_violations: bool,
    /// Cap on thread-cut enumerations per crash (the cut lattice is
    /// `Π(pc_t − floor_t + 1)`); past the cap the crash oracle falls back
    /// to the interleaved prefix window alone.
    pub max_crash_cuts: usize,
}

impl Default for ThreadedMcfsConfig {
    fn default() -> Self {
        ThreadedMcfsConfig {
            abstraction: AbstractionConfig::default(),
            syscall_cpu_ns: 2_000,
            crash_exploration: false,
            check_linearizability: true,
            minimize_violations: false,
            max_crash_cuts: 1024,
        }
    }
}

/// Exploration counters specific to interleaved checking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InterleaveStats {
    /// Terminal interleavings reached (every thread ran to completion).
    pub terminals: u64,
    /// Sequential candidate executions tried by the linearizability oracle.
    pub lin_candidates: u64,
    /// Crash pseudo-steps applied.
    pub crashes: u64,
    /// Crashes recovered to a consistent cut on every target.
    pub crash_recoveries: u64,
    /// Crashes where targets recovered validly but to different states.
    pub divergent_recoveries: u64,
}

/// Scheduler state saved alongside target checkpoints.
#[derive(Debug, Clone)]
struct SavedSched {
    pcs: Vec<usize>,
    history: Vec<(SchedStep, OpOutcome)>,
    prefix: Vec<u128>,
    floor: Vec<usize>,
}

/// N per-thread programs driven in every interleaving against one or more
/// checked targets, with linearizability and crash-cut oracles.
pub struct ThreadedMcfs {
    targets: Vec<Box<dyn CheckedTarget>>,
    programs: Vec<Vec<FsOp>>,
    setup: Vec<FsOp>,
    cfg: ThreadedMcfsConfig,
    clock: Option<Clock>,
    effects: EffectIndex,
    /// Per-thread program counter: ops already issued.
    pcs: Vec<usize>,
    /// Interleaved execution so far: each scheduled step with the outcome
    /// every target agreed on.
    history: Vec<(SchedStep, OpOutcome)>,
    /// Crash-oracle window: interleaved-prefix states since the last sync
    /// floor (plus the floor itself).
    prefix_hashes: Vec<u128>,
    /// Per-thread cut floor for the crash oracle: ops issued before the
    /// last sync point are durable and cannot be lost.
    floor: Vec<usize>,
    ckpt: HashMap<u64, SavedSched>,
    ckpt_hashes: HashMap<u64, u128>,
    last_hash: Option<Digest128>,
    /// Fingerprints of every terminal state reached (POR equivalence
    /// validation compares these across settings).
    final_states: BTreeSet<u128>,
    stats: InterleaveStats,
    factory: Option<Arc<ThreadedHarnessFactory>>,
}

impl ThreadedMcfs {
    /// Builds a threaded harness over `targets` running `programs` (one op
    /// list per thread) from an empty file system.
    ///
    /// # Errors
    ///
    /// `EINVAL` for an empty target or program list, too many threads, a
    /// setup op the targets disagree on, or initial-state disagreement;
    /// `ENOSYS` when crash exploration is requested and a target cannot
    /// crash; mount errors propagate.
    pub fn new(
        targets: Vec<Box<dyn CheckedTarget>>,
        programs: Vec<Vec<FsOp>>,
        cfg: ThreadedMcfsConfig,
    ) -> VfsResult<Self> {
        Self::with_clock_opt(targets, programs, Vec::new(), cfg, None)
    }

    /// Like [`new`](ThreadedMcfs::new) with a sequential `setup` prologue
    /// executed (and checked for agreement) before any thread runs.
    ///
    /// # Errors
    ///
    /// See [`new`](ThreadedMcfs::new).
    pub fn with_setup(
        targets: Vec<Box<dyn CheckedTarget>>,
        programs: Vec<Vec<FsOp>>,
        setup: Vec<FsOp>,
        cfg: ThreadedMcfsConfig,
    ) -> VfsResult<Self> {
        Self::with_clock_opt(targets, programs, setup, cfg, None)
    }

    /// Like [`with_setup`](ThreadedMcfs::with_setup) with a virtual clock:
    /// each thread charges its own clock lane, so accumulated per-thread
    /// CPU time is schedule-independent.
    ///
    /// # Errors
    ///
    /// See [`new`](ThreadedMcfs::new).
    pub fn with_clock(
        targets: Vec<Box<dyn CheckedTarget>>,
        programs: Vec<Vec<FsOp>>,
        setup: Vec<FsOp>,
        cfg: ThreadedMcfsConfig,
        clock: Clock,
    ) -> VfsResult<Self> {
        Self::with_clock_opt(targets, programs, setup, cfg, Some(clock))
    }

    fn with_clock_opt(
        mut targets: Vec<Box<dyn CheckedTarget>>,
        programs: Vec<Vec<FsOp>>,
        setup: Vec<FsOp>,
        cfg: ThreadedMcfsConfig,
        clock: Option<Clock>,
    ) -> VfsResult<Self> {
        if targets.is_empty() || programs.is_empty() || programs.len() >= CRASH_TID as usize {
            return Err(Errno::EINVAL);
        }
        if cfg.crash_exploration && !targets.iter().all(|t| t.supports_crash()) {
            return Err(Errno::ENOSYS);
        }
        for t in &mut targets {
            t.pre_op()?;
        }
        // The POR independence relation comes from every op any thread (or
        // the setup) can issue, plus the crash step when explored.
        let mut flat: Vec<FsOp> = setup.to_vec();
        flat.extend(programs.iter().flatten().cloned());
        if cfg.crash_exploration {
            flat.push(FsOp::Crash);
        }
        let kernel_caches = targets.iter_mut().any(|t| t.fs_mut().caches_metadata());
        let profile = EffectProfile::from_pool(&flat)
            .with_kernel_caches(kernel_caches)
            .with_atime(cfg.abstraction.include_atime);
        let effects = EffectIndex::new(&flat, profile);

        let thread_count = programs.len();
        let mut this = ThreadedMcfs {
            targets,
            programs,
            setup,
            cfg,
            clock,
            effects,
            pcs: vec![0; thread_count],
            history: Vec::new(),
            prefix_hashes: Vec::new(),
            floor: vec![0; thread_count],
            ckpt: HashMap::new(),
            ckpt_hashes: HashMap::new(),
            last_hash: None,
            final_states: BTreeSet::new(),
            stats: InterleaveStats::default(),
            factory: None,
        };
        this.run_setup()?;
        let hashes = this.hash_all()?;
        if hashes.iter().any(|h| *h != hashes[0]) {
            return Err(Errno::EINVAL);
        }
        this.last_hash = Some(hashes[0]);
        this.prefix_hashes = vec![hashes[0].as_u128()];
        for t in &mut this.targets {
            t.post_op()?;
        }
        Ok(this)
    }

    /// Builds a harness whose programs are derived from a recorded
    /// schedule: each thread's program is the subsequence of `schedule`
    /// ops carrying its tid. Crash exploration switches on automatically
    /// when the schedule contains a crash step. This is the replay and
    /// minimization entry point.
    ///
    /// # Errors
    ///
    /// See [`new`](ThreadedMcfs::new).
    pub fn from_schedule(
        targets: Vec<Box<dyn CheckedTarget>>,
        schedule: &[SchedStep],
        mut cfg: ThreadedMcfsConfig,
    ) -> VfsResult<Self> {
        let max_tid = schedule
            .iter()
            .filter(|s| !s.is_crash())
            .map(|s| s.tid as usize)
            .max()
            .ok_or(Errno::EINVAL)?;
        let mut programs = vec![Vec::new(); max_tid + 1];
        for step in schedule {
            if step.is_crash() {
                cfg.crash_exploration = true;
            } else {
                programs[step.tid as usize].push(step.op.clone());
            }
        }
        Self::with_clock_opt(targets, programs, Vec::new(), cfg, None)
    }

    /// Replays a schedule through [`apply`](ModelSystem::apply), returning
    /// the first violation (index and message) if one fires. A prune stops
    /// the replay (exploration never continues past a crash either).
    pub fn replay_schedule(&mut self, schedule: &[SchedStep]) -> Option<(usize, String)> {
        for (i, step) in schedule.iter().enumerate() {
            match self.apply(&step.clone()) {
                ApplyOutcome::Ok => {}
                ApplyOutcome::Prune(_) => return None,
                ApplyOutcome::Violation(msg) => return Some((i, msg)),
            }
        }
        None
    }

    /// Attaches the replay factory counterexample minimization validates
    /// against; without it, [`ThreadedMcfsConfig::minimize_violations`]
    /// only records a skip reason on each violation.
    pub fn set_factory(&mut self, factory: Arc<ThreadedHarnessFactory>) {
        self.factory = Some(factory);
    }

    /// Builder-style [`set_factory`](ThreadedMcfs::set_factory).
    #[must_use]
    pub fn with_factory(mut self, factory: Arc<ThreadedHarnessFactory>) -> Self {
        self.factory = Some(factory);
        self
    }

    /// Interleaving-specific counters.
    pub fn interleave_stats(&self) -> InterleaveStats {
        self.stats
    }

    /// Fingerprints of every terminal interleaving reached so far.
    pub fn final_states(&self) -> &BTreeSet<u128> {
        &self.final_states
    }

    /// The effect index backing POR decisions.
    pub fn effect_index(&self) -> &EffectIndex {
        &self.effects
    }

    fn thread_count(&self) -> usize {
        self.programs.len()
    }

    fn done(&self) -> bool {
        self.pcs
            .iter()
            .zip(&self.programs)
            .all(|(&pc, prog)| pc >= prog.len())
    }

    fn charge(&self, ns: u64) {
        if let Some(c) = &self.clock {
            c.advance_ns(ns);
        }
    }

    fn run_setup(&mut self) -> VfsResult<()> {
        let exceptions = self.cfg.abstraction.exceptions.clone();
        let sort = self.cfg.abstraction.sort_entries;
        for op in &self.setup.clone() {
            let outcomes: Vec<OpOutcome> = self
                .targets
                .iter_mut()
                .map(|t| execute_with(t.fs_mut(), op, &exceptions, sort))
                .collect();
            if outcomes.iter().any(|o| *o != outcomes[0]) {
                return Err(Errno::EINVAL);
            }
        }
        Ok(())
    }

    fn hash_all(&mut self) -> VfsResult<Vec<Digest128>> {
        let cfg = self.cfg.abstraction.clone();
        self.targets
            .iter_mut()
            .map(|t| abstract_state(t.fs_mut(), &cfg))
            .collect()
    }

    /// Best-effort cleanup wrapper around every violation return, so
    /// per-op remount targets are not left mounted mid-operation.
    fn violation(&mut self, msg: String) -> ApplyOutcome {
        if let Some(c) = &self.clock {
            c.clear_active_lane();
        }
        for t in &mut self.targets {
            let _ = t.post_op();
        }
        ApplyOutcome::Violation(msg)
    }

    fn describe_discrepancy<T: fmt::Debug + PartialEq>(
        &self,
        what: &str,
        step: &SchedStep,
        values: &[T],
    ) -> String {
        let mut msg = format!("{what} discrepancy on {step}:");
        for (t, v) in self.targets.iter().zip(values) {
            msg.push_str(&format!(
                "\n  {:<12} [{}] => {:?}",
                t.name(),
                t.strategy(),
                v
            ));
        }
        msg
    }

    fn push_prefix(&mut self, hash: u128) {
        if !self.cfg.crash_exploration {
            return;
        }
        if self.prefix_hashes.last() != Some(&hash) {
            self.prefix_hashes.push(hash);
        }
    }

    /// The POSIX-observable fingerprint (first target; all agree whenever
    /// apply succeeded).
    pub fn pure_abstract_state(&mut self) -> u128 {
        if let Some(h) = self.last_hash {
            return h.as_u128();
        }
        let _ = self.targets[0].pre_op();
        let cfg = self.cfg.abstraction.clone();
        let h = abstract_state(self.targets[0].fs_mut(), &cfg)
            .map(|d| d.as_u128())
            .unwrap_or(u128::MAX);
        let _ = self.targets[0].post_op();
        h
    }

    fn opaque_digest_fold(&mut self) -> u128 {
        let mut acc = 0u128;
        // mcfs-lint: allow(MC007, target order is fixed at construction; the index is part of the digest domain by design)
        for (i, t) in self.targets.iter_mut().enumerate() {
            if let Some(d) = t.fs_mut().opaque_state_digest() {
                let mut bytes = [0u8; 24];
                bytes[..8].copy_from_slice(&(i as u64).to_le_bytes());
                bytes[8..].copy_from_slice(&d.to_le_bytes());
                acc ^= mdigest::md5(&bytes).as_u128();
            }
        }
        acc
    }

    /// Serializes an outcome for the scheduler fingerprint. Stable across
    /// runs (no hashing of pointers or map order).
    fn encode_outcome(out: &mut Vec<u8>, o: &OpOutcome) {
        match o {
            OpOutcome::Ok => out.push(0),
            OpOutcome::Data(d) => {
                out.push(1);
                out.extend_from_slice(&(d.len() as u64).to_le_bytes());
                out.extend_from_slice(d);
            }
            OpOutcome::Attrs {
                ftype,
                mode,
                nlink,
                owner,
                size,
            } => {
                out.push(2);
                out.push(*ftype as u8);
                out.extend_from_slice(&mode.to_le_bytes());
                out.extend_from_slice(&nlink.to_le_bytes());
                out.extend_from_slice(&owner.0.to_le_bytes());
                out.extend_from_slice(&owner.1.to_le_bytes());
                match size {
                    Some(s) => {
                        out.push(1);
                        out.extend_from_slice(&s.to_le_bytes());
                    }
                    None => out.push(0),
                }
            }
            OpOutcome::Entries(es) => {
                out.push(3);
                out.extend_from_slice(&(es.len() as u64).to_le_bytes());
                for (name, ftype) in es {
                    out.extend_from_slice(&(name.len() as u64).to_le_bytes());
                    out.extend_from_slice(name.as_bytes());
                    out.push(*ftype as u8);
                }
            }
            OpOutcome::Bytes(b) => {
                out.push(4);
                out.extend_from_slice(&(b.len() as u64).to_le_bytes());
                out.extend_from_slice(b);
            }
            OpOutcome::Err(e) => {
                out.push(5);
                out.extend_from_slice(format!("{e:?}").as_bytes());
            }
        }
    }

    /// Scheduler-state fold mixed into the visited fingerprint: two states
    /// with identical file-system content but different program counters
    /// (or different per-thread observations) must not be matched away —
    /// the remaining work and the linearizability obligation differ. The
    /// per-step component is order-insensitive (XOR), so schedules that are
    /// permutations with identical per-thread observations *do* merge.
    fn sched_fold(&self) -> u128 {
        let mut pcs_bytes: Vec<u8> = b"sched-pcs".to_vec();
        for &pc in &self.pcs {
            pcs_bytes.extend_from_slice(&(pc as u64).to_le_bytes());
        }
        let mut acc = mdigest::md5(&pcs_bytes).as_u128();
        let mut per_thread_idx = vec![0u64; self.thread_count()];
        for (step, outcome) in &self.history {
            if step.is_crash() {
                continue;
            }
            let t = step.tid as usize;
            let mut bytes: Vec<u8> = b"step".to_vec();
            bytes.extend_from_slice(&(step.tid as u64).to_le_bytes());
            bytes.extend_from_slice(&per_thread_idx[t].to_le_bytes());
            Self::encode_outcome(&mut bytes, outcome);
            per_thread_idx[t] += 1;
            acc ^= mdigest::md5(&bytes).as_u128();
        }
        acc
    }

    /// The schedule executed so far (without outcomes).
    pub fn schedule(&self) -> ThreadedTrace {
        self.history.iter().map(|(s, _)| s.clone()).collect()
    }

    /// Executes one thread step on every target and checks lockstep
    /// agreement, then — at terminal states — the linearizability oracle.
    fn apply_step(&mut self, step: &SchedStep) -> ApplyOutcome {
        let t = step.tid as usize;
        // Stale steps (explorer replaying against a restored scheduler that
        // moved on) prune rather than corrupt.
        if t >= self.thread_count()
            || self.pcs[t] >= self.programs[t].len()
            || self.programs[t][self.pcs[t]] != step.op
        {
            return ApplyOutcome::Prune(format!("stale step {step}"));
        }
        self.last_hash = None;
        for tgt in &mut self.targets {
            if let Err(e) = tgt.pre_op() {
                let msg = format!("{}: pre-op mount failed: {e}", tgt.name());
                return self.violation(msg);
            }
        }
        if let Some(c) = &self.clock {
            c.set_active_lane(step.tid);
        }
        let exceptions = self.cfg.abstraction.exceptions.clone();
        let sort = self.cfg.abstraction.sort_entries;
        let mut outcomes = Vec::with_capacity(self.targets.len());
        for tgt in &mut self.targets {
            tgt.fs_mut().set_active_thread(step.tid);
            outcomes.push(execute_with(tgt.fs_mut(), &step.op, &exceptions, sort));
        }
        self.charge(self.cfg.syscall_cpu_ns * self.targets.len() as u64);
        if let Some(c) = &self.clock {
            c.clear_active_lane();
        }
        if outcomes.iter().any(|o| *o != outcomes[0]) {
            let msg = self.describe_discrepancy("outcome", step, &outcomes);
            return self.violation(msg);
        }
        let hashes = match self.hash_all() {
            Ok(h) => h,
            Err(e) => return self.violation(format!("abstraction failed after {step}: {e}")),
        };
        if hashes.iter().any(|h| *h != hashes[0]) {
            let msg = self.describe_discrepancy("state", step, &hashes);
            return self.violation(msg);
        }
        self.last_hash = Some(hashes[0]);
        self.push_prefix(hashes[0].as_u128());
        self.history.push((step.clone(), outcomes[0].clone()));
        self.pcs[t] += 1;
        for tgt in &mut self.targets {
            if let Err(e) = tgt.post_op() {
                let msg = format!("{}: post-op failed: {e}", tgt.name());
                return self.violation(msg);
            }
        }
        for tgt in &mut self.targets {
            let _ = tgt.track_state();
        }
        if self.done() {
            self.stats.terminals += 1;
            if self.cfg.check_linearizability {
                if let Err(msg) = self.check_linearizable() {
                    return self.violation(msg);
                }
            }
            let fp = ModelSystem::abstract_state(self);
            self.final_states.insert(fp);
        }
        ApplyOutcome::Ok
    }

    /// Wing & Gong linearizability check against a fresh sequential
    /// reference. Atomic steps make each op's invocation point the
    /// response point of its thread predecessor, so op A precedes op B iff
    /// A's history position is before B's *predecessor's* position; the
    /// oracle searches for any linearization respecting that partial order
    /// whose reference execution reproduces every observed outcome,
    /// pruning with checkpoint/restore on the reference.
    fn check_linearizable(&mut self) -> Result<(), String> {
        // Per-thread observation lists and history positions.
        let tc = self.thread_count();
        let mut expected: Vec<Vec<OpOutcome>> = vec![Vec::new(); tc];
        let mut pos: Vec<Vec<i64>> = vec![Vec::new(); tc];
        for (i, (step, outcome)) in self.history.iter().enumerate() {
            if step.is_crash() {
                continue;
            }
            expected[step.tid as usize].push(outcome.clone());
            pos[step.tid as usize].push(i as i64);
        }
        let total: usize = expected.iter().map(|v| v.len()).sum();
        if total == 0 {
            return Ok(());
        }
        let mut reference = CheckpointTarget::new(VeriFs::v2());
        reference
            .pre_op()
            .map_err(|e| format!("linearizability reference mount failed: {e}"))?;
        let exceptions = self.cfg.abstraction.exceptions.clone();
        let sort = self.cfg.abstraction.sort_entries;
        for op in &self.setup {
            execute_with(reference.fs_mut(), op, &exceptions, sort);
        }
        let mut lin_pcs = vec![0usize; tc];
        let mut tried = 0u64;
        let found = Self::lin_dfs(
            &mut reference,
            &self.programs,
            &expected,
            &pos,
            &mut lin_pcs,
            0,
            total,
            &exceptions,
            sort,
            &mut tried,
        )
        .map_err(|e| format!("linearizability reference failed: {e}"))?;
        self.stats.lin_candidates += tried;
        if found {
            Ok(())
        } else {
            // Number-free so a minimized schedule reproduces the same
            // message byte-for-byte.
            Err(
                "linearizability violation: no sequential execution of the threads' ops \
                 (respecting program order and real-time order) matches every thread's \
                 observed results"
                    .to_string(),
            )
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn lin_dfs(
        reference: &mut CheckpointTarget<VeriFs>,
        programs: &[Vec<FsOp>],
        expected: &[Vec<OpOutcome>],
        pos: &[Vec<i64>],
        lin_pcs: &mut [usize],
        placed: usize,
        total: usize,
        exceptions: &[String],
        sort: bool,
        tried: &mut u64,
    ) -> VfsResult<bool> {
        if placed == total {
            return Ok(true);
        }
        let key = placed as u64;
        reference.save_state(key)?;
        for t in 0..programs.len() {
            let k = lin_pcs[t];
            if k >= expected[t].len() {
                continue;
            }
            // Real-time order: a pending op A of another thread precedes
            // this op B iff A's response (its history position) came before
            // B's invocation (B's thread predecessor's position). Placing B
            // first would reorder them against the wall clock.
            let inv = if k == 0 { -1 } else { pos[t][k - 1] };
            let blocked = (0..programs.len())
                .any(|u| u != t && lin_pcs[u] < expected[u].len() && pos[u][lin_pcs[u]] < inv);
            if blocked {
                continue;
            }
            *tried += 1;
            let got = execute_with(reference.fs_mut(), &programs[t][k], exceptions, sort);
            if got == expected[t][k] {
                lin_pcs[t] = k + 1;
                let hit = Self::lin_dfs(
                    reference,
                    programs,
                    expected,
                    pos,
                    lin_pcs,
                    placed + 1,
                    total,
                    exceptions,
                    sort,
                    tried,
                )?;
                lin_pcs[t] = k;
                if hit {
                    let _ = reference.drop_state(key);
                    return Ok(true);
                }
            }
            reference.load_state(key)?;
        }
        let _ = reference.drop_state(key);
        Ok(false)
    }

    /// The crash pseudo-step: power-cut every target between two scheduled
    /// ops and check recovery against the set of *linearizable prefix*
    /// states — every interleaved prefix state since the sync floor, plus
    /// every per-thread cut of the history re-executed sequentially (a
    /// thread's issued-but-unsynced tail may be lost independently of the
    /// others').
    fn apply_crash(&mut self) -> ApplyOutcome {
        self.last_hash = None;
        self.stats.crashes += 1;
        for t in &mut self.targets {
            if let Err(e) = t.pre_op() {
                let msg = format!("{}: pre-crash mount failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        let pre = match self.hash_all() {
            Ok(h) => h,
            Err(e) => return self.violation(format!("pre-crash abstraction failed: {e}")),
        };
        let mut allowed: BTreeSet<u128> = self.prefix_hashes.iter().copied().collect();
        allowed.insert(pre[0].as_u128());
        match self.crash_cut_states() {
            Ok(cuts) => allowed.extend(cuts),
            Err(e) => return self.violation(format!("crash-cut reference execution failed: {e}")),
        }
        for t in &mut self.targets {
            if let Err(e) = t.crash_remount() {
                let msg = format!("{}: crash recovery failed: {e}", t.name());
                return self.violation(msg);
            }
        }
        self.charge(self.cfg.syscall_cpu_ns * self.targets.len() as u64);
        let recovered = match self.hash_all() {
            Ok(h) => h,
            Err(e) => return self.violation(format!("post-crash abstraction failed: {e}")),
        };
        for (t, h) in self.targets.iter().zip(&recovered) {
            if !allowed.contains(&h.as_u128()) {
                let msg = format!(
                    "crash-consistency violation: {} recovered to a state matching no \
                     linearizable prefix of the interleaved history",
                    t.name()
                );
                return self.violation(msg);
            }
        }
        let diverged = recovered.iter().any(|h| *h != recovered[0]);
        for t in &mut self.targets {
            let _ = t.post_op();
        }
        if diverged {
            self.stats.divergent_recoveries += 1;
            ApplyOutcome::Prune("targets recovered to different (each valid) cut states".into())
        } else {
            self.stats.crash_recoveries += 1;
            // Post-crash, the scheduler's program counters no longer match
            // the recovered file-system state (a thread's tail may be
            // gone); interleaved exploration does not continue past a
            // verified crash.
            ApplyOutcome::Prune(
                "crash recovery verified; interleaved exploration does not continue past a crash"
                    .into(),
            )
        }
    }

    /// Reference states of every per-thread cut `floor ≤ c ≤ pc`: each
    /// thread's issued ops truncated at its cut, executed in the recorded
    /// schedule order on a fresh reference. Empty past
    /// [`ThreadedMcfsConfig::max_crash_cuts`].
    fn crash_cut_states(&mut self) -> VfsResult<Vec<u128>> {
        let tc = self.thread_count();
        let mut total = 1usize;
        for t in 0..tc {
            total = total.saturating_mul(self.pcs[t] - self.floor[t] + 1);
            if total > self.cfg.max_crash_cuts {
                return Ok(Vec::new());
            }
        }
        let exceptions = self.cfg.abstraction.exceptions.clone();
        let sort = self.cfg.abstraction.sort_entries;
        let abstraction = self.cfg.abstraction.clone();
        let mut out = Vec::with_capacity(total);
        let mut cut: Vec<usize> = self.floor.clone();
        loop {
            let mut reference = VeriFs::v2();
            reference.mount()?;
            for op in &self.setup {
                execute_with(&mut reference, op, &exceptions, sort);
            }
            let mut idx = vec![0usize; tc];
            for (step, _) in &self.history {
                if step.is_crash() {
                    continue;
                }
                let t = step.tid as usize;
                if idx[t] < cut[t] {
                    execute_with(&mut reference, &step.op, &exceptions, sort);
                }
                idx[t] += 1;
            }
            out.push(abstract_state(&mut reference, &abstraction)?.as_u128());
            // Mixed-radix increment over the cut lattice.
            let mut t = 0;
            loop {
                if t == tc {
                    return Ok(out);
                }
                if cut[t] < self.pcs[t] {
                    cut[t] += 1;
                    break;
                }
                cut[t] = self.floor[t];
                t += 1;
            }
        }
    }
}

impl ModelSystem for ThreadedMcfs {
    type Op = SchedStep;

    fn ops(&mut self) -> Vec<SchedStep> {
        let mut out = Vec::new();
        for (t, prog) in self.programs.iter().enumerate() {
            if self.pcs[t] < prog.len() {
                out.push(SchedStep {
                    tid: t as u16,
                    op: prog[self.pcs[t]].clone(),
                });
            }
        }
        if self.cfg.crash_exploration {
            out.push(SchedStep::crash());
        }
        out
    }

    fn apply(&mut self, op: &SchedStep) -> ApplyOutcome {
        if op.is_crash() {
            self.apply_crash()
        } else {
            self.apply_step(op)
        }
    }

    fn abstract_state(&mut self) -> u128 {
        self.pure_abstract_state() ^ self.opaque_digest_fold() ^ self.sched_fold()
    }

    fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
        let mut total = 0usize;
        for t in &mut self.targets {
            total += t
                .save_state(id.0)
                .map_err(|e| format!("{}: checkpoint failed: {e}", t.name()))?;
        }
        let h = self.pure_abstract_state();
        self.ckpt_hashes.insert(id.0, h);
        if self.cfg.crash_exploration {
            // Checkpointing syncs device-backed targets: new sync floor.
            self.prefix_hashes = vec![h];
            self.floor = self.pcs.clone();
        }
        self.ckpt.insert(
            id.0,
            SavedSched {
                pcs: self.pcs.clone(),
                history: self.history.clone(),
                prefix: self.prefix_hashes.clone(),
                floor: self.floor.clone(),
            },
        );
        Ok(total)
    }

    fn restore(&mut self, id: StateId) -> Result<(), String> {
        self.last_hash = None;
        for t in &mut self.targets {
            t.load_state(id.0).map_err(|e| {
                if e == Errno::ESTALE {
                    format!("{}: restore failed: {e} {EVICTED_MARKER}", t.name())
                } else {
                    format!("{}: restore failed: {e}", t.name())
                }
            })?;
        }
        let saved = self
            .ckpt
            .get(&id.0)
            .ok_or_else(|| format!("no scheduler state saved under {id}"))?;
        self.pcs = saved.pcs.clone();
        self.history = saved.history.clone();
        self.prefix_hashes = saved.prefix.clone();
        self.floor = saved.floor.clone();
        self.last_hash = self
            .ckpt_hashes
            .get(&id.0)
            .map(|h| Digest128::from_bytes(h.to_le_bytes()));
        Ok(())
    }

    fn release(&mut self, id: StateId) {
        for t in &mut self.targets {
            let _ = t.drop_state(id.0);
        }
        self.ckpt.remove(&id.0);
        self.ckpt_hashes.remove(&id.0);
    }

    fn pin(&mut self, id: StateId) {
        for t in &mut self.targets {
            t.pin_state(id.0);
        }
    }

    fn unpin(&mut self, id: StateId) {
        for t in &mut self.targets {
            t.unpin_state(id.0);
        }
    }

    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        let mut acc = CheckpointStoreStats::default();
        let mut any = false;
        for t in &self.targets {
            if let Some(s) = t.checkpoint_stats() {
                acc.merge(&s);
                any = true;
            }
        }
        any.then_some(acc)
    }

    fn crash_stats(&self) -> Option<CrashStats> {
        self.cfg.crash_exploration.then_some(CrashStats {
            crashes: self.stats.crashes,
            recoveries: self.stats.crash_recoveries,
            divergent_recoveries: self.stats.divergent_recoveries,
        })
    }

    /// Concurrency independence: two steps of *different* threads whose
    /// ops commute under the concurrent effect relation (outcome-sensitive
    /// pairs never do). Same-thread steps are program-ordered and the
    /// crash step conflicts with everything.
    fn independent(&self, a: &SchedStep, b: &SchedStep) -> bool {
        if a.tid == b.tid || a.is_crash() || b.is_crash() {
            return false;
        }
        self.effects.independent_concurrent(&a.op, &b.op)
    }

    /// A source set: close `{first enabled thread}` under "some future op
    /// of thread u conflicts with an in-set thread's next op". Sound
    /// because enabledness is thread-local — a thread outside the set can
    /// never enable or disable an in-set thread's next op, only conflict
    /// with it, and conflicting threads are pulled in. Crash steps disable
    /// the reduction entirely (a crash commutes with nothing).
    fn persistent_set(&mut self, enabled: &[SchedStep]) -> Option<Vec<bool>> {
        if enabled.len() <= 1 || enabled.iter().any(|s| s.is_crash()) {
            return None;
        }
        let mut in_set = vec![false; enabled.len()];
        in_set[0] = true;
        loop {
            let mut changed = false;
            for (j, cand) in enabled.iter().enumerate() {
                if in_set[j] {
                    continue;
                }
                let tj = cand.tid as usize;
                let future = &self.programs[tj][self.pcs[tj]..];
                let conflicts = enabled.iter().enumerate().any(|(i, s)| {
                    in_set[i]
                        && future
                            .iter()
                            .any(|op| !self.effects.independent_concurrent(op, &s.op))
                });
                if conflicts {
                    in_set[j] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if in_set.iter().all(|&b| b) {
            None
        } else {
            Some(in_set)
        }
    }

    fn minimize(
        &mut self,
        trace: &[SchedStep],
        message: &str,
    ) -> Option<(Vec<SchedStep>, ShrinkStats)> {
        if !self.cfg.minimize_violations {
            return None;
        }
        let factory = self.factory.clone()?;
        let out = shrink_threaded_trace(&*factory, trace, message, &ShrinkConfig::default())?;
        Some((out.schedule, out.stats))
    }

    fn minimize_unavailable(&self) -> Option<&'static str> {
        (self.cfg.minimize_violations && self.factory.is_none()).then_some(
            "minimize_violations is set but no harness factory is attached (ThreadedMcfs::set_factory)",
        )
    }
}

/// A successful schedule minimization.
#[derive(Debug, Clone)]
pub struct ThreadedShrinkOutcome {
    /// The minimized schedule: a subsequence of the original (so every
    /// thread's program order is preserved) that reproduces a violation
    /// with the original message on a factory-fresh harness.
    pub schedule: ThreadedTrace,
    /// Work counters.
    pub stats: ShrinkStats,
}

/// Dependency repair for interleaved schedules: re-adds, for every kept
/// step, the last preceding producer (on *any* thread — files are shared)
/// of each path its op consumes, and for every kept crash step its
/// nearest preceding mutation (the crash-window anchor), to a fixpoint.
/// Because repair and ddmin only ever remove or re-add *subsequence*
/// elements, each thread's program order is preserved by construction.
fn repair_sched_mask(schedule: &[SchedStep], mask: &mut [bool]) {
    loop {
        let mut changed = false;
        for i in 0..schedule.len() {
            if !mask[i] {
                continue;
            }
            if schedule[i].is_crash() {
                if let Some(j) = (0..i).rev().find(|&j| schedule[j].op.is_mutation()) {
                    if !mask[j] {
                        mask[j] = true;
                        changed = true;
                    }
                }
                continue;
            }
            for p in consumed_paths(&schedule[i].op) {
                if let Some(j) = (0..i).rev().find(|&j| produces(&schedule[j].op, p)) {
                    if !mask[j] {
                        mask[j] = true;
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
}

/// Minimizes a violating schedule to a 1-minimal subsequence reproducing a
/// violation with exactly `message` on a factory-fresh harness. Program
/// order per thread is preserved automatically (candidates are
/// subsequences). Returns `None` when the full schedule does not reproduce
/// on a fresh harness.
pub fn shrink_threaded_trace(
    factory: &ThreadedHarnessFactory,
    schedule: &[SchedStep],
    message: &str,
    cfg: &ShrinkConfig,
) -> Option<ThreadedShrinkOutcome> {
    let n = schedule.len();
    let mut cache: HashMap<Vec<bool>, bool> = HashMap::new();
    let mut replays = 0u64;
    let mut test = |mask: &[bool]| -> bool {
        if let Some(&hit) = cache.get(mask) {
            return hit;
        }
        let candidate = apply_mask(schedule, mask);
        replays += 1;
        let ok = match factory(&candidate) {
            Ok(mut fresh) => fresh
                .replay_schedule(&candidate)
                .map(|(_, msg)| msg == message)
                .unwrap_or(false),
            Err(_) => false,
        };
        cache.insert(mask.to_vec(), ok);
        ok
    };
    if !test(&vec![true; n]) {
        return None;
    }
    let mut repair = |mask: &mut Vec<bool>| repair_sched_mask(schedule, mask);
    let (mask, tests) = ddmin_mask(n, &mut repair, &mut test, cfg.max_candidates);
    let minimized = apply_mask(schedule, &mask);
    Some(ThreadedShrinkOutcome {
        stats: ShrinkStats {
            ops_before: n,
            ops_after: minimized.len(),
            candidates_tried: tests + 1,
            replays_run: replays,
        },
        schedule: minimized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use modelcheck::{DfsExplorer, ExploreConfig};
    use verifs::BugConfig;

    fn op_create(p: &str) -> FsOp {
        FsOp::CreateFile {
            path: p.into(),
            mode: 0o644,
        }
    }

    fn op_write(p: &str, offset: u64, size: u64, seed: u8) -> FsOp {
        FsOp::WriteFile {
            path: p.into(),
            offset,
            size,
            seed,
        }
    }

    fn op_read(p: &str, offset: u64, size: u64) -> FsOp {
        FsOp::ReadFile {
            path: p.into(),
            offset,
            size,
        }
    }

    fn op_trunc(p: &str, size: u64) -> FsOp {
        FsOp::Truncate {
            path: p.into(),
            size,
        }
    }

    fn clean_pair() -> Vec<Box<dyn CheckedTarget>> {
        let mut a = VeriFs::v2();
        a.mount().unwrap();
        let mut b = VeriFs::v2();
        b.mount().unwrap();
        vec![
            Box::new(CheckpointTarget::new(a)),
            Box::new(CheckpointTarget::new(b)),
        ]
    }

    fn buggy_single() -> Vec<Box<dyn CheckedTarget>> {
        let mut fs = VeriFs::v2_with_bugs(BugConfig::v2_hole());
        fs.mount().unwrap();
        vec![Box::new(CheckpointTarget::new(fs))]
    }

    fn disjoint_programs() -> Vec<Vec<FsOp>> {
        vec![
            vec![op_create("/a"), op_write("/a", 0, 8, 1)],
            vec![op_create("/b"), op_write("/b", 0, 8, 2)],
        ]
    }

    fn explore(programs: Vec<Vec<FsOp>>, por: bool, por_persistent: bool) -> (BTreeSet<u128>, u64) {
        let mut sys =
            ThreadedMcfs::new(clean_pair(), programs, ThreadedMcfsConfig::default()).unwrap();
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 8,
            por,
            por_persistent,
            ..ExploreConfig::default()
        })
        .run(&mut sys);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        (sys.final_states().clone(), report.stats.ops_executed)
    }

    #[test]
    fn por_settings_reach_identical_final_states() {
        let (base, full) = explore(disjoint_programs(), false, false);
        assert!(!base.is_empty());
        let mut reduced_best = full;
        for (por, pp) in [(true, false), (false, true), (true, true)] {
            let (states, ops) = explore(disjoint_programs(), por, pp);
            assert_eq!(states, base, "por={por} persistent={pp}");
            assert!(ops <= full, "por={por} persistent={pp}: {ops} > {full}");
            reduced_best = reduced_best.min(ops);
        }
        // Fully disjoint threads: POR must actually cut transitions.
        assert!(
            reduced_best < full,
            "POR never reduced transitions ({full})"
        );
    }

    #[test]
    fn racing_identical_creates_are_outcome_dependent_not_violations() {
        let programs = vec![vec![op_create("/f")], vec![op_create("/f")]];
        let mut sys =
            ThreadedMcfs::new(clean_pair(), programs, ThreadedMcfsConfig::default()).unwrap();
        let report = DfsExplorer::new(ExploreConfig {
            max_depth: 4,
            ..ExploreConfig::default()
        })
        .run(&mut sys);
        assert!(report.violations.is_empty(), "{:?}", report.violations);
        // Both orders run (the ops race — POR must not merge them) and the
        // loser observes EEXIST, so the two schedules are distinct states.
        assert_eq!(sys.interleave_stats().terminals, 2);
        assert_eq!(sys.final_states().len(), 2);
    }

    #[test]
    fn persistent_set_keeps_one_thread_for_disjoint_programs() {
        let mut sys = ThreadedMcfs::new(
            clean_pair(),
            disjoint_programs(),
            ThreadedMcfsConfig::default(),
        )
        .unwrap();
        let enabled = sys.ops();
        assert_eq!(enabled.len(), 2);
        let mask = sys.persistent_set(&enabled).expect("reduction applies");
        assert_eq!(mask, vec![true, false]);
    }

    #[test]
    fn persistent_set_disabled_under_crash_exploration() {
        let cfg = ThreadedMcfsConfig {
            crash_exploration: true,
            ..ThreadedMcfsConfig::default()
        };
        let mut sys = ThreadedMcfs::new(clean_pair(), disjoint_programs(), cfg).unwrap();
        let enabled = sys.ops();
        assert!(enabled.iter().any(|s| s.is_crash()));
        assert!(sys.persistent_set(&enabled).is_none());
    }

    fn hole_schedule() -> ThreadedTrace {
        let t0 = [
            op_create("/f0"),
            op_write("/f0", 0, 40, 1),
            op_trunc("/f0", 1),
            op_write("/f0", 30, 4, 2),
            op_read("/f0", 0, 40),
        ];
        let t1 = [op_create("/b"), FsOp::Stat { path: "/b".into() }];
        let mut sched: ThreadedTrace = t0
            .iter()
            .map(|op| SchedStep {
                tid: 0,
                op: op.clone(),
            })
            .collect();
        for (i, op) in t1.iter().enumerate() {
            sched.insert(
                2 * i + 1,
                SchedStep {
                    tid: 1,
                    op: op.clone(),
                },
            );
        }
        sched
    }

    #[test]
    fn hole_bug_fails_linearizability_and_replays() {
        let sched = hole_schedule();
        let mut sys =
            ThreadedMcfs::from_schedule(buggy_single(), &sched, ThreadedMcfsConfig::default())
                .unwrap();
        let (at, msg) = sys
            .replay_schedule(&sched)
            .expect("the stale-hole read has no sequential witness");
        assert_eq!(at, sched.len() - 1, "violates on the read");
        assert!(msg.contains("linearizability violation"), "{msg}");
        // Byte-identical reproduction on a second fresh harness.
        let mut again =
            ThreadedMcfs::from_schedule(buggy_single(), &sched, ThreadedMcfsConfig::default())
                .unwrap();
        assert_eq!(again.replay_schedule(&sched), Some((at, msg)));
    }

    #[test]
    fn threaded_shrink_drops_fillers_and_keeps_program_order() {
        let sched = hole_schedule();
        let factory = |s: &[SchedStep]| {
            ThreadedMcfs::from_schedule(buggy_single(), s, ThreadedMcfsConfig::default())
        };
        let mut sys = factory(&sched).unwrap();
        let (_, msg) = sys.replay_schedule(&sched).expect("violates");
        let out = shrink_threaded_trace(&factory, &sched, &msg, &ShrinkConfig::default())
            .expect("full schedule reproduces");
        assert!(out.schedule.len() < sched.len());
        assert!(out.schedule.iter().all(|s| s.tid == 0), "fillers removed");
        // Program order preserved: the minimized schedule is a subsequence
        // of thread 0's program.
        let prog: Vec<FsOp> = sched
            .iter()
            .filter(|s| s.tid == 0)
            .map(|s| s.op.clone())
            .collect();
        let mut cursor = 0;
        for step in &out.schedule {
            let at = prog[cursor..]
                .iter()
                .position(|op| *op == step.op)
                .expect("subsequence");
            cursor += at + 1;
        }
        // And the result still reproduces byte-identically.
        let mut fresh = factory(&out.schedule).unwrap();
        let (_, msg2) = fresh.replay_schedule(&out.schedule).expect("reproduces");
        assert_eq!(msg2, msg);
    }

    #[test]
    fn minimize_without_a_factory_reports_why() {
        let cfg = ThreadedMcfsConfig {
            minimize_violations: true,
            ..ThreadedMcfsConfig::default()
        };
        let sched = hole_schedule();
        let mut sys = ThreadedMcfs::from_schedule(buggy_single(), &sched, cfg.clone()).unwrap();
        let reason = sys.minimize_unavailable().expect("no factory: a reason");
        assert!(reason.contains("factory"), "{reason}");
        sys.set_factory(Arc::new(|s: &[SchedStep]| {
            ThreadedMcfs::from_schedule(buggy_single(), s, ThreadedMcfsConfig::default())
        }));
        assert_eq!(sys.minimize_unavailable(), None);
        let off = ThreadedMcfs::from_schedule(
            buggy_single(),
            &sched,
            ThreadedMcfsConfig {
                minimize_violations: false,
                ..cfg
            },
        )
        .unwrap();
        assert_eq!(off.minimize_unavailable(), None, "not asked for");
    }

    #[test]
    fn crash_step_recovers_to_a_thread_cut() {
        let cfg = ThreadedMcfsConfig {
            crash_exploration: true,
            ..ThreadedMcfsConfig::default()
        };
        let mut sys = ThreadedMcfs::new(clean_pair(), disjoint_programs(), cfg).unwrap();
        let steps = sys.ops();
        let first = steps[0].clone();
        assert!(matches!(sys.apply(&first), ApplyOutcome::Ok));
        match sys.apply(&SchedStep::crash()) {
            ApplyOutcome::Prune(_) => {}
            other => panic!("crash must prune after verifying recovery: {other:?}"),
        }
        assert_eq!(sys.interleave_stats().crashes, 1);
        assert_eq!(sys.interleave_stats().crash_recoveries, 1);
    }
}
