//! The worker-count type of the `parallelism` knob, and nothing else.
//!
//! PRs 1–17 carried four scoped-thread sites behind this crate (concurrent
//! partition builds, per-group builds, a chunked region probe, a sharded
//! shared-plan insert). None ever reached 1.0× on a measurement
//! (EXPERIMENTS.md "Parallel layer (PRs 1–17)"), so they are gone and the
//! engine is serial. [`Threads`] stays because `benchmark/src` and the
//! `--threads` measuring rig compile against it; a value above 1 is accepted
//! everywhere and starts no thread until ROADMAP item 4 lands.

// Library code must degrade, not abort (DESIGN.md §13).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::num::NonZeroUsize;

/// Resolved worker-count policy (`None` = 1, `Some(0)` = all host cores,
/// `Some(n)` = `n`). Inert: the engine is serial whatever it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(NonZeroUsize);

impl Threads {
    /// Resolves the engine's `parallelism` knob.
    ///
    /// `None` → 1 worker (serial), `Some(0)` → host's available
    /// parallelism, `Some(n)` → exactly `n` workers.
    pub fn from_config(parallelism: Option<usize>) -> Self {
        let n = match parallelism {
            None => 1,
            Some(0) => std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
            Some(n) => n,
        };
        Threads(NonZeroUsize::new(n.max(1)).unwrap_or(NonZeroUsize::MIN))
    }

    /// Exactly `n` workers (saturating at 1).
    pub fn exact(n: usize) -> Self {
        Threads(NonZeroUsize::new(n.max(1)).unwrap_or(NonZeroUsize::MIN))
    }

    /// The worker count.
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// Whether more than one worker is available.
    pub fn is_parallel(self) -> bool {
        self.0.get() > 1
    }
}

impl Default for Threads {
    fn default() -> Self {
        Threads::exact(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolution() {
        assert_eq!(Threads::from_config(None).get(), 1);
        assert_eq!(Threads::from_config(Some(3)).get(), 3);
        assert!(Threads::from_config(Some(0)).get() >= 1);
        assert!(!Threads::from_config(None).is_parallel());
        assert!(Threads::from_config(Some(2)).is_parallel());
    }
}
