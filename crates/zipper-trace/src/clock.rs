//! Time sources for span recording.
//!
//! The paper's analysis reads the *same* trace statistics off two very
//! different substrates: the discrete-event simulator (whose "time" is the
//! engine's virtual clock) and the real threaded runtime (wall-clock).
//! [`Clock`] abstracts over both so one recording layer
//! ([`crate::recorder`]) serves both; everything downstream — breakdowns,
//! window statistics, timeline rendering — works on [`SimTime`]
//! regardless of where the nanoseconds came from.

// Sanctioned wall-clock owner: Clock IS the abstraction the determinism lint
// points everything else at (clippy.toml disallowed-methods).
#![allow(clippy::disallowed_methods)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use zipper_types::SimTime;

/// A monotonic time source yielding [`SimTime`] nanoseconds.
///
/// Implementations must be cheap (called once per lane boundary on hot
/// paths) and monotone non-decreasing per thread.
pub trait Clock: Send + Sync {
    fn now(&self) -> SimTime;
}

/// Wall-clock time relative to a fixed origin — the real runtime's clock.
///
/// All lanes of one run must share one `WallClock` (via the run's
/// [`crate::recorder::TraceSink`]) so their spans land on a common axis.
#[derive(Clone, Debug)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.origin.elapsed().as_nanos() as u64)
    }
}

/// A manually driven clock — the DES substrate (the engine advances it as
/// it pops events) and deterministic tests.
///
/// Clones share the same underlying instant, so one handle can drive the
/// clock while recorders on other threads read it.
#[derive(Clone, Debug, Default)]
pub struct VirtualClock {
    now: Arc<AtomicU64>,
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance to `t`. Monotone: moving backwards is ignored rather than
    /// tearing earlier spans.
    pub fn set(&self, t: SimTime) {
        self.now.fetch_max(t.as_nanos(), Ordering::Relaxed);
    }

    /// Advance by `dt`.
    pub fn advance(&self, dt: SimTime) {
        self.now.fetch_add(dt.as_nanos(), Ordering::Relaxed);
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_relative() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // Freshly created: close to zero (well under a second).
        assert!(a < SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn virtual_clock_is_shared_and_monotone() {
        let c = VirtualClock::new();
        let view = c.clone();
        c.set(SimTime::from_millis(5));
        assert_eq!(view.now(), SimTime::from_millis(5));
        view.advance(SimTime::from_millis(2));
        assert_eq!(c.now(), SimTime::from_millis(7));
        // Backwards set is ignored.
        c.set(SimTime::from_millis(1));
        assert_eq!(c.now(), SimTime::from_millis(7));
    }
}
