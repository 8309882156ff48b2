//! The shared virtual clock that all simulated costs accrue on.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel for "no active lane" in [`Clock::set_active_lane`].
const NO_LANE: usize = usize::MAX;

/// A monotonically advancing virtual clock, in nanoseconds.
///
/// Clones share the same underlying counter, so a single clock can be threaded
/// through devices, file systems, the FUSE layer, and the model checker; the
/// final reading is the total modelled time of the run.
///
/// # Per-thread lanes
///
/// Interleaving exploration needs virtual time to be a function of *what each
/// logical thread has done*, not of the schedule that interleaved them —
/// otherwise two equivalent interleavings fingerprint differently and state
/// matching falls apart. [`Clock::set_active_lane`] opens a per-thread lane:
/// while a lane is active, [`Clock::advance_ns`] charges that lane instead of
/// the shared base, and [`Clock::now_ns`] reads `base + lane` — the active
/// thread's own accumulated cost. With no active lane the clock reads
/// `base + max(lanes)` (all threads have logically finished their charges),
/// which is also schedule-independent: `max` commutes. Until a lane is first
/// opened, [`Clock::now_ns`] reads the base alone without taking the lanes
/// lock.
///
/// # Examples
///
/// ```
/// use blockdev::Clock;
///
/// let clock = Clock::new();
/// let view = clock.clone();
/// clock.advance_ns(1_500);
/// assert_eq!(view.now_ns(), 1_500);
/// assert!((view.now_secs() - 1.5e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Clock {
    ns: Arc<AtomicU64>,
    /// Per-thread virtual-time lanes (empty outside interleaved runs).
    lanes: Arc<Mutex<Vec<u64>>>,
    /// Index of the lane charged by `advance_ns`; `NO_LANE` = shared base.
    active: Arc<AtomicUsize>,
    /// Whether any lane was opened since creation (or the last reset).
    /// While it is false every lane reads 0, so `now_ns` skips the lock.
    /// Stored with `Release` in `set_active_lane`/`reset` and loaded with
    /// `Acquire` in `now_ns`; the lanes themselves stay behind the mutex.
    laned: Arc<AtomicBool>,
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

impl Clock {
    /// Creates a clock starting at zero, with no lane active.
    pub fn new() -> Self {
        Clock {
            ns: Arc::default(),
            lanes: Arc::default(),
            active: Arc::new(AtomicUsize::new(NO_LANE)),
            laned: Arc::default(),
        }
    }

    /// Returns the current virtual time in nanoseconds: the shared base plus
    /// the active lane's charge (or the maximum lane when none is active).
    pub fn now_ns(&self) -> u64 {
        let base = self.ns.load(Ordering::Relaxed);
        if !self.laned.load(Ordering::Acquire) {
            return base;
        }
        let lanes = self.lanes.lock().expect("clock lanes poisoned");
        let lane = match self.active.load(Ordering::Relaxed) {
            NO_LANE => lanes.iter().copied().max().unwrap_or(0),
            idx => lanes.get(idx).copied().unwrap_or(0),
        };
        base.saturating_add(lane)
    }

    /// Returns the current virtual time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.now_ns() as f64 / 1e9
    }

    /// Advances the clock by `delta` nanoseconds, charged to the active
    /// per-thread lane if one is set (see [`Clock::set_active_lane`]).
    pub fn advance_ns(&self, delta: u64) {
        match self.active.load(Ordering::Relaxed) {
            NO_LANE => {
                self.ns.fetch_add(delta, Ordering::Relaxed);
            }
            idx => {
                let mut lanes = self.lanes.lock().expect("clock lanes poisoned");
                if idx >= lanes.len() {
                    lanes.resize(idx + 1, 0);
                }
                lanes[idx] = lanes[idx].saturating_add(delta);
            }
        }
    }

    /// Advances the clock by `micros` microseconds.
    pub fn advance_us(&self, micros: u64) {
        self.advance_ns(micros.saturating_mul(1_000));
    }

    /// Advances the clock by `millis` milliseconds.
    pub fn advance_ms(&self, millis: u64) {
        self.advance_ns(millis.saturating_mul(1_000_000));
    }

    /// Routes subsequent charges to logical thread `tid`'s lane. All clones
    /// share the routing (there is one device/FS stack per harness).
    pub fn set_active_lane(&self, tid: u16) {
        let idx = tid as usize;
        self.laned.store(true, Ordering::Release);
        {
            let mut lanes = self.lanes.lock().expect("clock lanes poisoned");
            if idx >= lanes.len() {
                lanes.resize(idx + 1, 0);
            }
        }
        self.active.store(idx, Ordering::Relaxed);
    }

    /// Returns charge routing to the shared base (sequential behaviour).
    pub fn clear_active_lane(&self) {
        self.active.store(NO_LANE, Ordering::Relaxed);
    }

    /// One thread's accumulated lane charge (0 for an untouched lane).
    pub fn lane_ns(&self, tid: u16) -> u64 {
        self.lanes
            .lock()
            .expect("clock lanes poisoned")
            .get(tid as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Resets the clock (and every lane) to zero. Intended for reusing a
    /// harness between experiment runs.
    pub fn reset(&self) {
        self.ns.store(0, Ordering::Relaxed);
        self.lanes.lock().expect("clock lanes poisoned").clear();
        self.active.store(NO_LANE, Ordering::Relaxed);
        self.laned.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let a = Clock::new();
        let b = a.clone();
        a.advance_ns(10);
        b.advance_us(1);
        b.advance_ms(1);
        assert_eq!(a.now_ns(), 10 + 1_000 + 1_000_000);
    }

    #[test]
    fn reset_zeroes_all_views() {
        let a = Clock::new();
        let b = a.clone();
        a.advance_ms(5);
        b.reset();
        assert_eq!(a.now_ns(), 0);
    }

    #[test]
    fn now_secs_converts() {
        let c = Clock::new();
        c.advance_ns(2_000_000_000);
        assert!((c.now_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn advance_saturates_on_overflowing_units() {
        let c = Clock::new();
        c.advance_ms(u64::MAX); // must not panic
        assert_eq!(c.now_ns(), u64::MAX);
    }

    #[test]
    fn lanes_charge_per_thread() {
        let c = Clock::new();
        c.advance_ns(100); // shared base
        c.set_active_lane(0);
        c.advance_ns(30);
        assert_eq!(c.now_ns(), 130, "active thread reads base + own lane");
        c.set_active_lane(1);
        c.advance_ns(50);
        assert_eq!(c.now_ns(), 150);
        assert_eq!(c.lane_ns(0), 30);
        assert_eq!(c.lane_ns(1), 50);
        c.clear_active_lane();
        assert_eq!(c.now_ns(), 150, "no active lane reads base + max(lanes)");
    }

    #[test]
    fn default_matches_new_and_starts_without_a_lane() {
        let (d, n) = (Clock::default(), Clock::new());
        d.advance_ns(40);
        n.advance_ns(40);
        assert_eq!(d.now_ns(), n.now_ns());
        assert_eq!(d.now_ns(), 40, "charges reach the shared base");
        assert_eq!(d.lane_ns(0), 0, "no lane is active by default");
        assert_eq!(d.lane_ns(0), n.lane_ns(0));
    }

    #[test]
    fn lanes_opened_after_unlaned_reads_are_still_read() {
        let c = Clock::new();
        let view = c.clone();
        c.advance_ns(100);
        assert_eq!(view.now_ns(), 100, "lock-free read of the base");
        // A lane opened later, through another clone, is seen by `view`.
        c.set_active_lane(2);
        assert_eq!(view.now_ns(), 100, "a fresh lane reads 0");
        // Charged through `advance_ns`, the lane is read by every clone.
        c.advance_ns(25);
        assert_eq!(view.now_ns(), 125);
        c.clear_active_lane();
        assert_eq!(view.now_ns(), 125, "max over lanes once none is active");
        c.reset();
        assert_eq!(view.now_ns(), 0);
        view.advance_ns(7);
        assert_eq!(c.now_ns(), 7);
    }

    #[test]
    fn lane_totals_are_schedule_independent() {
        // Two schedules of the same per-thread charges read the same final
        // time: max() commutes, and each thread only sees its own lane.
        let run = |order: &[(u16, u64)]| {
            let c = Clock::new();
            let mut seen = Vec::new();
            for &(tid, ns) in order {
                c.set_active_lane(tid);
                c.advance_ns(ns);
                seen.push(c.now_ns());
            }
            c.clear_active_lane();
            c.now_ns()
        };
        let a = run(&[(0, 10), (0, 10), (1, 7), (1, 7)]);
        let b = run(&[(1, 7), (0, 10), (1, 7), (0, 10)]);
        assert_eq!(a, b);
        assert_eq!(a, 20);
    }
}
