//! In-memory spans recorded by the benchmark around its calls into each
//! layer. The program itself is not instrumented: a span covers exactly
//! one call into a layer's public function, so its duration is that
//! layer's host wall for the call.

use std::time::{Duration, Instant};

/// The span log of one traced job while it runs: one `(name, duration)`
/// per layer call, in call order. Calls never overlap.
pub struct JobTrace {
    origin: Instant,
    spans: Vec<(&'static str, Duration)>,
}

/// A finished job: its wall and its layer calls.
pub struct Trace {
    pub wall: Duration,
    spans: Vec<(&'static str, Duration)>,
}

impl JobTrace {
    /// Start the job's wall clock.
    pub fn start() -> JobTrace {
        JobTrace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.spans.push((name, t0.elapsed()));
        out
    }

    /// Stop the wall clock and return the finished log.
    pub fn finish(self) -> Trace {
        Trace {
            wall: self.origin.elapsed(),
            spans: self.spans,
        }
    }
}

impl Trace {
    /// Total duration of the spans named `name`.
    pub fn total(&self, name: &str) -> Duration {
        self.spans
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .sum()
    }

    /// The part of the wall that no span covers.
    pub fn unattributed(&self) -> Duration {
        let covered: Duration = self.spans.iter().map(|(_, d)| *d).sum();
        self.wall.saturating_sub(covered)
    }
}
