//! The host-speed reference that wall-clock throughput is scaled by.
//!
//! On a shared host the CPU's speed drifts with other tenants' load: a fixed
//! integer loop ran 15-20% slower for half an hour on a 2-vCPU Xeon host. No
//! estimate from a run's own times can tell that apart from the program
//! getting slower. So every
//! ~100 ms of exploration, between two laps, the benchmark times a fixed burst
//! of integer work that touches no program code. Throughput is reported per
//! *reference second*: the run's fastest-lap rate times the run's fastest
//! burst over [`NOMINAL_NS`]. Drift slows the laps and the bursts alike, so
//! it cancels. A change to the program cannot move the burst.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::trace::{intern, span, wall_ns, SpanId};

/// The burst time that defines one reference second: throughput is scaled as
/// if the run's fastest burst had taken exactly this long. On a 2-vCPU Xeon
/// host (2.1 GHz nominal) the fastest burst takes 1.07 to 1.24 ms.
pub const NOMINAL_NS: f64 = 1_000_000.0;
/// Wall time between bursts.
const SPACING_NS: u64 = 100_000_000;
/// 64-bit words the burst reads and writes (64 KiB: cache-resident).
const WORDS: usize = 8192;
/// Mixing steps per burst.
const STEPS: usize = 200_000;

/// The fastest burst on any thread. A statistic: it publishes no other data.
static FASTEST_NS: AtomicU64 = AtomicU64::new(u64::MAX);

thread_local! {
    static LAST_NS: Cell<Option<u64>> = const { Cell::new(None) };
    static BUFFER: RefCell<Vec<u64>> = RefCell::new(vec![1; WORDS]);
    static BURST: SpanId = intern("bench.reference.burst");
}

/// Runs a burst if one is due (always the first time on a thread), and
/// returns the wall time after it (`now` when none ran). Bursts sit inside
/// their own span, so a traced run's explorer self time excludes them.
pub fn between_laps(now: u64) -> u64 {
    if matches!(LAST_NS.get(), Some(last) if now < last + SPACING_NS) {
        return now;
    }
    let start = wall_ns();
    span(BURST.with(|b| *b), burst);
    let end = wall_ns();
    FASTEST_NS.fetch_min(end - start, Ordering::Relaxed);
    LAST_NS.set(Some(end));
    end
}

/// The multiplier that turns a wall-clock rate into a reference-second rate.
pub fn scale() -> f64 {
    FASTEST_NS.load(Ordering::Relaxed) as f64 / NOMINAL_NS
}

/// The fastest burst so far.
pub fn fastest_ns() -> u64 {
    FASTEST_NS.load(Ordering::Relaxed)
}

fn burst() {
    BUFFER.with_borrow_mut(|buf| {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in 0..STEPS {
            let j = (x as usize) % WORDS;
            x = (x ^ buf[j])
                .rotate_left(17)
                .wrapping_mul(0xff51_afd7_ed55_8ccd);
            buf[i % WORDS] = x;
        }
        std::hint::black_box(x);
    });
}
