//! Per-layer tracing for the benchmark's traced runs.
//!
//! Spans and counters are interned once, when a decorator is built, and
//! their statistics live in a thread-local table indexed by [`SpanId`]. The
//! benchmark is single-threaded, so recording a span costs two clock reads
//! and two uncontended `RefCell` borrows. Spans nest: each open span
//! accumulates the time of the spans it encloses, so every span reports both
//! its total time and its self time (total minus enclosed spans).
//!
//! The decorators record spans at the program's three public seams and
//! otherwise forward every trait method, the defaulted ones included, so a
//! traced run explores exactly what an untraced run explores:
//!
//! * [`TracedSystem`] wraps a [`ModelSystem`] (the `Mcfs` harness).
//! * [`TracedTarget`] wraps a [`CheckedTarget`].
//! * [`TracedDevice`] wraps a [`BlockDevice`]; block reads and writes are
//!   counted, not timed, because there are tens of them per transition.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use blockdev::{BlockDevice, DeviceResult, DeviceSnapshot, FaultPhase};
use mcfs::{AbstractionConfig, CheckedTarget, RepairOutcome};
use mdigest::Digest128;
use modelcheck::{
    ApplyOutcome, CheckpointStoreStats, CrashStats, ModelSystem, ShrinkStats, SpillStore, StateId,
};
use vfs::{FileSystem, FsCapabilities, VfsResult};

/// Wall-clock nanoseconds since the first call. This is the benchmark's only
/// wall-clock read.
// mcfs-lint: allow(MC007, wall time is measured and reported only; it never feeds back into exploration)
pub fn wall_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("benchmark runs for less than 584 years")
}

/// An interned span or counter name.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Accumulated statistics of one span or counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stat {
    /// Wall time inside the span.
    pub total_ns: u64,
    /// Wall time inside the span and outside every span it enclosed.
    pub self_ns: u64,
    /// Times the span was entered, or the counter bumped.
    pub calls: u64,
}

#[derive(Default)]
struct Table {
    names: Vec<String>,
    stats: Vec<Stat>,
    /// Enclosed-span time of each open span, innermost last.
    open: Vec<u64>,
}

thread_local! {
    static TABLE: RefCell<Table> = RefCell::default();
}

/// Interns `name`, returning the id every later record uses.
pub fn intern(name: &str) -> SpanId {
    TABLE.with_borrow_mut(|t| {
        if let Some(i) = t.names.iter().position(|n| n == name) {
            return SpanId(i);
        }
        t.names.push(name.to_string());
        t.stats.push(Stat::default());
        SpanId(t.names.len() - 1)
    })
}

/// Runs `f` inside span `id`.
pub fn span<R>(id: SpanId, f: impl FnOnce() -> R) -> R {
    TABLE.with_borrow_mut(|t| t.open.push(0));
    let start = wall_ns();
    let out = f();
    let elapsed = wall_ns() - start;
    TABLE.with_borrow_mut(|t| {
        let enclosed = t.open.pop().expect("span stack is balanced");
        if let Some(parent) = t.open.last_mut() {
            *parent += elapsed;
        }
        let s = &mut t.stats[id.0];
        s.calls += 1;
        s.total_ns += elapsed;
        s.self_ns += elapsed.saturating_sub(enclosed);
    });
    out
}

/// Bumps counter `id` without timing anything.
pub fn count(id: SpanId) {
    TABLE.with_borrow_mut(|t| t.stats[id.0].calls += 1);
}

/// Takes every span's statistics by name and zeroes the table (names stay
/// interned).
pub fn take() -> BTreeMap<String, Stat> {
    TABLE.with_borrow_mut(|t| {
        let stats = std::mem::replace(&mut t.stats, vec![Stat::default(); t.names.len()]);
        t.names.iter().cloned().zip(stats).collect()
    })
}

/// Records `core.harness.*` spans around a [`ModelSystem`]. Calls no metric
/// reports (`pin`, `unpin`, ...) get spans too, so that the explorer's self
/// time excludes every call into the system.
pub struct TracedSystem<S> {
    inner: S,
    ops: SpanId,
    apply: SpanId,
    abstract_state: SpanId,
    checkpoint: SpanId,
    restore: SpanId,
    release: SpanId,
    pin: SpanId,
    unpin: SpanId,
    independent: SpanId,
    persistent_set: SpanId,
    minimize: SpanId,
}

impl<S> TracedSystem<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        let id = |f: &str| intern(&format!("core.harness.{f}"));
        TracedSystem {
            inner,
            ops: id("ops"),
            apply: id("apply"),
            abstract_state: id("abstract_state"),
            checkpoint: id("checkpoint"),
            restore: id("restore"),
            release: id("release"),
            pin: id("pin"),
            unpin: id("unpin"),
            independent: id("independent"),
            persistent_set: id("persistent_set"),
            minimize: id("minimize"),
        }
    }
}

impl<S: ModelSystem> ModelSystem for TracedSystem<S> {
    type Op = S::Op;

    fn ops(&mut self) -> Vec<S::Op> {
        span(self.ops, || self.inner.ops())
    }

    fn apply(&mut self, op: &S::Op) -> ApplyOutcome {
        span(self.apply, || self.inner.apply(op))
    }

    fn abstract_state(&mut self) -> u128 {
        span(self.abstract_state, || self.inner.abstract_state())
    }

    fn checkpoint(&mut self, id: StateId) -> Result<usize, String> {
        span(self.checkpoint, || self.inner.checkpoint(id))
    }

    fn restore(&mut self, id: StateId) -> Result<(), String> {
        span(self.restore, || self.inner.restore(id))
    }

    fn release(&mut self, id: StateId) {
        span(self.release, || self.inner.release(id));
    }

    fn pin(&mut self, id: StateId) {
        span(self.pin, || self.inner.pin(id));
    }

    fn unpin(&mut self, id: StateId) {
        span(self.unpin, || self.inner.unpin(id));
    }

    fn checkpoint_store_stats(&self) -> Option<CheckpointStoreStats> {
        self.inner.checkpoint_store_stats()
    }

    fn crash_stats(&self) -> Option<CrashStats> {
        self.inner.crash_stats()
    }

    fn independent(&self, a: &S::Op, b: &S::Op) -> bool {
        count(self.independent);
        self.inner.independent(a, b)
    }

    fn persistent_set(&mut self, enabled: &[S::Op]) -> Option<Vec<bool>> {
        span(self.persistent_set, || self.inner.persistent_set(enabled))
    }

    fn minimize(&mut self, trace: &[S::Op], message: &str) -> Option<(Vec<S::Op>, ShrinkStats)> {
        span(self.minimize, || self.inner.minimize(trace, message))
    }
}

/// Records `core.target.<fs>.*` spans around a [`CheckedTarget`].
pub struct TracedTarget<T> {
    inner: T,
    pre_op: SpanId,
    post_op: SpanId,
    save_state: SpanId,
    load_state: SpanId,
    track_state: SpanId,
    fingerprint: SpanId,
    invalidate: SpanId,
}

impl<T> TracedTarget<T> {
    /// Wraps `inner`, naming its spans after the file system `fs`.
    pub fn new(inner: T, fs: &str) -> Self {
        let id = |f: &str| intern(&format!("core.target.{fs}.{f}"));
        TracedTarget {
            inner,
            pre_op: id("pre_op"),
            post_op: id("post_op"),
            save_state: id("save_state"),
            load_state: id("load_state"),
            track_state: id("track_state"),
            fingerprint: id("fingerprint"),
            invalidate: id("invalidate"),
        }
    }
}

impl<T: CheckedTarget> CheckedTarget for TracedTarget<T> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn fs_mut(&mut self) -> &mut dyn FileSystem {
        self.inner.fs_mut()
    }

    fn capabilities(&self) -> FsCapabilities {
        self.inner.capabilities()
    }

    fn strategy(&self) -> &'static str {
        self.inner.strategy()
    }

    fn save_state(&mut self, key: u64) -> VfsResult<usize> {
        span(self.save_state, || self.inner.save_state(key))
    }

    fn load_state(&mut self, key: u64) -> VfsResult<()> {
        span(self.load_state, || self.inner.load_state(key))
    }

    fn drop_state(&mut self, key: u64) -> VfsResult<()> {
        self.inner.drop_state(key)
    }

    fn set_checkpoint_budget(&mut self, budget: Option<usize>) {
        self.inner.set_checkpoint_budget(budget);
    }

    fn set_checkpoint_spill(&mut self, store: Arc<SpillStore>) {
        self.inner.set_checkpoint_spill(store);
    }

    fn pin_state(&mut self, key: u64) {
        self.inner.pin_state(key);
    }

    fn unpin_state(&mut self, key: u64) {
        self.inner.unpin_state(key);
    }

    fn checkpoint_stats(&self) -> Option<CheckpointStoreStats> {
        self.inner.checkpoint_stats()
    }

    fn pre_op(&mut self) -> VfsResult<()> {
        span(self.pre_op, || self.inner.pre_op())
    }

    fn post_op(&mut self) -> VfsResult<()> {
        span(self.post_op, || self.inner.post_op())
    }

    fn raw_state_hash(&mut self) -> Option<u128> {
        self.inner.raw_state_hash()
    }

    fn track_state(&mut self) -> VfsResult<()> {
        span(self.track_state, || self.inner.track_state())
    }

    fn invalidate_fingerprints(&mut self, touched: &[&str]) {
        span(self.invalidate, || {
            self.inner.invalidate_fingerprints(touched)
        });
    }

    fn cached_abstract_state(&mut self, cfg: &AbstractionConfig) -> VfsResult<Digest128> {
        span(self.fingerprint, || self.inner.cached_abstract_state(cfg))
    }

    fn supports_crash(&self) -> bool {
        self.inner.supports_crash()
    }

    fn crash_remount(&mut self) -> VfsResult<()> {
        self.inner.crash_remount()
    }

    fn supports_fsck(&self) -> bool {
        self.inner.supports_fsck()
    }

    fn fsck(&mut self) -> VfsResult<RepairOutcome> {
        self.inner.fsck()
    }
}

/// Records `blockdev.<fs>.*` spans and counters around a [`BlockDevice`].
pub struct TracedDevice<D> {
    inner: D,
    reads: SpanId,
    writes: SpanId,
    snapshot: SpanId,
    restore: SpanId,
}

impl<D> TracedDevice<D> {
    /// Wraps `inner`, naming its spans after the file system `fs` on it.
    pub fn new(inner: D, fs: &str) -> Self {
        let id = |f: &str| intern(&format!("blockdev.{fs}.{f}"));
        TracedDevice {
            inner,
            reads: id("reads"),
            writes: id("writes"),
            snapshot: id("snapshot"),
            restore: id("restore"),
        }
    }
}

impl<D: BlockDevice> BlockDevice for TracedDevice<D> {
    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn size_bytes(&self) -> u64 {
        self.inner.size_bytes()
    }

    fn read_block(&mut self, block: u64, buf: &mut [u8]) -> DeviceResult<()> {
        count(self.reads);
        self.inner.read_block(block, buf)
    }

    fn write_block(&mut self, block: u64, buf: &[u8]) -> DeviceResult<()> {
        count(self.writes);
        self.inner.write_block(block, buf)
    }

    fn flush(&mut self) -> DeviceResult<()> {
        self.inner.flush()
    }

    fn power_cut(&mut self) -> DeviceResult<()> {
        self.inner.power_cut()
    }

    fn snapshot(&mut self) -> DeviceResult<DeviceSnapshot> {
        span(self.snapshot, || self.inner.snapshot())
    }

    fn restore(&mut self, snapshot: &DeviceSnapshot) -> DeviceResult<()> {
        span(self.restore, || self.inner.restore(snapshot))
    }

    fn set_fault_phase(&mut self, phase: FaultPhase) {
        self.inner.set_fault_phase(phase);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_split_total_and_self_time() {
        let outer = intern("test.outer");
        let inner = intern("test.inner");
        assert_eq!(intern("test.outer").0, outer.0, "names intern once");
        span(outer, || {
            span(inner, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            count(inner);
        });
        let stats = take();
        let (o, i) = (stats["test.outer"], stats["test.inner"]);
        assert_eq!((o.calls, i.calls), (1, 2));
        assert!(i.total_ns >= 2_000_000);
        assert_eq!(i.self_ns, i.total_ns);
        assert!(o.total_ns >= i.total_ns);
        assert_eq!(o.self_ns, o.total_ns - i.total_ns);
        assert_eq!(
            take()["test.outer"],
            Stat::default(),
            "take zeroes the table"
        );
    }
}
