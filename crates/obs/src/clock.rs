//! Time as a capability: the [`Clock`] trait and its real / simulated
//! implementations.
//!
//! Everything time-dependent in the control plane — client retry backoff,
//! broker wait deadlines and reconnect pacing, the controller's Online
//! Scheduler period, the sim engine's compute-time accounting — takes a
//! `&dyn Clock` (usually as an `Arc<dyn Clock>`) instead of calling
//! `Instant::now()` / `thread::sleep` directly. Tests
//! substitute [`SimClock`] and become deterministic and sleep-free; the
//! default everywhere is [`SystemClock`].
//!
//! The trait lives in `bate-obs` (the bottom of the workspace dependency
//! graph) so that trace timestamps and metric timings can share the same
//! time source as the components they observe; `bate-core` re-exports it
//! under the original `bate_core::clock` path, so downstream imports are
//! unaffected by the move.
//!
//! ## `SimClock` semantics
//!
//! `SimClock` is a *virtual-time* clock designed for multi-threaded
//! control-plane tests where no single driver knows every sleeper:
//!
//! * `now()` reads the current virtual instant.
//! * `sleep(d)` never blocks the OS thread. It advances virtual time to
//!   `max(current, entry + d)` — i.e. the sleeper itself pushes time
//!   forward, and concurrent sleepers coalesce instead of adding up
//!   (two threads sleeping 10 ms in parallel advance time by ~10 ms, not
//!   20 ms). This keeps fault-injection tests with retry backoff loops
//!   instant in real time while preserving a monotone, causally ordered
//!   virtual timeline.
//! * `advance(d)` lets a test driver inject time directly (lease expiry,
//!   scheduler periods); `advance_to(t)` jumps to an absolute virtual
//!   instant without ever moving backwards (the sim engine drives event
//!   time this way).
//!
//! The one behavior `SimClock` deliberately does not reproduce is "a sleep
//! blocks until someone advances time": with real sockets in the loop there
//! is no global event queue that could know when to advance, and blocking
//! virtual sleeps are exactly the deadlock-prone pattern that made the
//! original wall-clock tests flaky.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A monotonic time source plus the ability to wait.
pub trait Clock: Send + Sync {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;

    /// Wait for `d` of this clock's time to pass.
    fn sleep(&self, d: Duration);

    /// Convenience: `now()` in seconds (the sim engine's native unit).
    fn now_secs(&self) -> f64 {
        self.now().as_secs_f64()
    }
}

/// The real wall clock: `Instant`-anchored `now`, `thread::sleep` waits.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    pub fn new() -> SystemClock {
        SystemClock {
            epoch: Instant::now(),
        }
    }

    /// A shared handle, ready to thread through components.
    pub fn shared() -> Arc<dyn Clock> {
        Arc::new(SystemClock::new())
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// Deterministic virtual time for tests (see module docs for semantics).
#[derive(Debug, Default)]
pub struct SimClock {
    /// Virtual nanoseconds since the epoch.
    nanos: AtomicU64,
}

impl SimClock {
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// A shared handle, ready to thread through components.
    pub fn shared() -> Arc<SimClock> {
        Arc::new(SimClock::new())
    }

    /// Inject `d` of virtual time (test-driver side).
    pub fn advance(&self, d: Duration) {
        self.nanos
            .fetch_add(d.as_nanos().min(u64::MAX as u128) as u64, Ordering::SeqCst);
    }

    /// Jump to the absolute virtual instant `t`, never moving backwards.
    /// Drivers replaying a timestamped event stream (the sim engine) call
    /// this at each event so `now()` tracks event time monotonically.
    pub fn advance_to(&self, t: Duration) {
        let target = t.as_nanos().min(u64::MAX as u128) as u64;
        let mut cur = self.nanos.load(Ordering::SeqCst);
        while cur < target {
            match self
                .nanos
                .compare_exchange(cur, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Clock for SimClock {
    fn now(&self) -> Duration {
        Duration::from_nanos(self.nanos.load(Ordering::SeqCst))
    }

    fn sleep(&self, d: Duration) {
        // Advance to max(current, entry + d): the sleeper pushes time
        // forward, concurrent sleepers coalesce.
        let entry = self.nanos.load(Ordering::SeqCst);
        let target = entry.saturating_add(d.as_nanos().min(u64::MAX as u128) as u64);
        let mut cur = entry;
        while cur < target {
            match self
                .nanos
                .compare_exchange(cur, target, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotone() {
        let c = SystemClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn sim_clock_sleep_advances_virtually() {
        let c = SimClock::new();
        assert_eq!(c.now(), Duration::ZERO);
        c.sleep(Duration::from_millis(10));
        assert_eq!(c.now(), Duration::from_millis(10));
        c.advance(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_millis(1010));
    }

    #[test]
    fn sim_clock_concurrent_sleeps_coalesce() {
        let c = Arc::new(SimClock::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.sleep(Duration::from_millis(10)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All eight threads entered at t≈0; time advanced to at most the
        // sum but at least one sleep's worth. With true concurrency it is
        // usually exactly 10 ms; sequential scheduling bounds it by 80 ms.
        let now = c.now();
        assert!(now >= Duration::from_millis(10));
        assert!(now <= Duration::from_millis(80));
    }

    #[test]
    fn sim_clock_never_goes_backwards() {
        let c = SimClock::new();
        c.advance(Duration::from_secs(5));
        c.sleep(Duration::from_millis(1));
        assert!(c.now() >= Duration::from_secs(5));
    }

    #[test]
    fn sim_clock_advance_to_is_monotone() {
        let c = SimClock::new();
        c.advance_to(Duration::from_secs(3));
        assert_eq!(c.now(), Duration::from_secs(3));
        // Backwards jumps are ignored.
        c.advance_to(Duration::from_secs(1));
        assert_eq!(c.now(), Duration::from_secs(3));
        c.advance_to(Duration::from_secs(7));
        assert_eq!(c.now(), Duration::from_secs(7));
    }
}
