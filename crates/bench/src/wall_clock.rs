//! The workspace's only sanctioned wall-clock access.
//!
//! Everything inside the simulator runs on `nsql_sim` virtual time so that
//! traces replay byte-identically; `nsql-lint` bans `Instant`/`SystemTime`
//! everywhere else (see `lint.toml` `[wall_clock] allow`). The benchmark
//! (`perfbench/`) legitimately needs real elapsed time — it measures the
//! *implementation's* cost, not the simulation's — so it goes through this
//! one audited helper.

use std::time::Instant;

/// A running wall-clock stopwatch.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

/// Start a stopwatch at the current wall-clock instant.
pub fn start() -> Stopwatch {
    Stopwatch(Instant::now())
}

impl Stopwatch {
    /// Seconds elapsed since [`start`] as a float.
    pub fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Microseconds elapsed since [`start`] as a float.
    pub fn elapsed_micros(&self) -> f64 {
        self.elapsed_secs() * 1e6
    }
}
