//! Thread scaling: the Figure 8 partitioning workflow at 1, 2, 4, and 8
//! engine threads, measured in wall-clock time.
//!
//! Every other experiment reports *simulated* time, which is independent
//! of how fast the simulator itself runs. This one answers the other
//! question — how long do you wait for a run — by timing the same
//! workflow end to end at each thread count and asserting the partitions
//! stay byte-identical (the engine's determinism contract). Besides the
//! console table it emits `BENCH_parallel.json` so runs on different
//! hosts can be compared; speedup is meaningful only when the host has
//! as many cores as the row has threads, so the file records the host's
//! core count.

use papar_core::exec::ExecOptions;
use std::time::{Duration, Instant};

use crate::datasets::Scale;
use crate::measure;
use crate::report::Table;
use crate::workflows::run_blast;

/// Engine thread counts the experiment sweeps.
pub const THREAD_COUNTS: &[usize] = &[1, 2, 4, 8];

/// Nodes in the simulated cluster (per-node tasks are the unit of
/// parallelism, so scaling flattens beyond this many threads).
pub const NODES: usize = 4;

/// Partitions produced by each run.
pub const PARTITIONS: usize = 8;

/// Where the machine-readable results land, relative to the working
/// directory.
pub const JSON_PATH: &str = "BENCH_parallel.json";

/// One thread count's measurement.
#[derive(Debug, Clone)]
pub struct Row {
    /// Engine threads.
    pub threads: usize,
    /// Mean wall-clock time of the workflow run.
    pub wall: Duration,
    /// Wall-clock speedup over the single-thread row.
    pub speedup: f64,
    /// Whether the partitions matched the single-thread run.
    pub identical: bool,
}

/// Run the sweep and collect one row per thread count.
pub fn rows(scale: &Scale) -> Vec<Row> {
    let sequences = (scale.env_nr_sequences / 2).max(1000);
    let db = mublastp::dbgen::DbSpec::env_nr_scaled(sequences, 7171).generate();

    let mut out: Vec<Row> = Vec::new();
    let mut baseline_partitions = None;
    let mut baseline_wall = Duration::ZERO;
    for &threads in THREAD_COUNTS {
        let options = ExecOptions {
            threads: Some(threads),
            ..ExecOptions::default()
        };
        // Warm-up run outside the timed region; it also supplies the
        // partitions for the byte-identity check.
        let warm = run_blast(&db, "roundRobin", PARTITIONS, NODES, options);
        let identical = match &baseline_partitions {
            None => {
                baseline_partitions = Some(warm.partitions);
                true
            }
            Some(base) => *base == warm.partitions,
        };
        let wall = Duration::from_secs_f64(measure::avg_f64(|| {
            let t0 = Instant::now();
            std::hint::black_box(run_blast(&db, "roundRobin", PARTITIONS, NODES, options));
            t0.elapsed().as_secs_f64()
        }));
        if threads == THREAD_COUNTS[0] {
            baseline_wall = wall;
        }
        let speedup = if wall.as_secs_f64() > 0.0 {
            baseline_wall.as_secs_f64() / wall.as_secs_f64()
        } else {
            1.0
        };
        out.push(Row {
            threads,
            wall,
            speedup,
            identical,
        });
    }
    out
}

/// The observability layer's wall-clock cost, measured both ways.
#[derive(Debug, Clone)]
pub struct TraceOverhead {
    /// Best-of-runs wall time with the default no-op sink.
    pub noop: Duration,
    /// Best-of-runs wall time with a live collector.
    pub traced: Duration,
    /// The traced run's machine-readable span summary.
    pub summary: String,
}

impl TraceOverhead {
    /// traced / noop (1.0 = tracing is free).
    pub fn ratio(&self) -> f64 {
        if self.noop.as_secs_f64() > 0.0 {
            self.traced.as_secs_f64() / self.noop.as_secs_f64()
        } else {
            1.0
        }
    }
}

/// Measure the disabled-path cost of the trace layer on the Figure 8
/// workflow: with tracing off the engine talks to a no-op sink, and that
/// run must not be slower than the traced one beyond noise — the
/// assertion in [`run`] fails the bench if the "free when disabled"
/// contract regresses.
pub fn trace_overhead(scale: &Scale) -> TraceOverhead {
    let sequences = (scale.env_nr_sequences / 2).max(1000);
    let db = mublastp::dbgen::DbSpec::env_nr_scaled(sequences, 7171).generate();
    let best = |trace: bool| {
        (0..measure::RUNS)
            .map(|_| {
                let options = ExecOptions {
                    threads: Some(1),
                    trace,
                    ..ExecOptions::default()
                };
                let t0 = Instant::now();
                std::hint::black_box(run_blast(&db, "roundRobin", PARTITIONS, NODES, options));
                t0.elapsed()
            })
            .min()
            .unwrap_or_default()
    };
    let noop = best(false);
    let traced = best(true);
    let run = run_blast(
        &db,
        "roundRobin",
        PARTITIONS,
        NODES,
        ExecOptions {
            threads: Some(1),
            trace: true,
            ..ExecOptions::default()
        },
    );
    let summary = run
        .report
        .trace
        .as_ref()
        .map(papar_trace::summary_json)
        .unwrap_or_else(|| "null".to_string());
    TraceOverhead {
        noop,
        traced,
        summary,
    }
}

/// Host core count, as the engine's default thread count would see it.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Serialize the rows as the `BENCH_parallel.json` document.
pub fn to_json(rows: &[Row], scale: &Scale, overhead: &TraceOverhead) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"experiment\": \"thread-scaling\",\n");
    s.push_str("  \"workflow\": \"blast_partition (fig. 8, roundRobin)\",\n");
    s.push_str(&format!("  \"host_cores\": {},\n", host_cores()));
    s.push_str(&format!("  \"nodes\": {NODES},\n"));
    s.push_str(&format!("  \"partitions\": {PARTITIONS},\n"));
    s.push_str(&format!(
        "  \"sequences\": {},\n",
        (scale.env_nr_sequences / 2).max(1000)
    ));
    s.push_str(&format!("  \"runs_per_point\": {},\n", measure::RUNS));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"threads\": {}, \"wall_ms\": {:.3}, \"speedup\": {:.3}, \"identical\": {}}}{}\n",
            r.threads,
            r.wall.as_secs_f64() * 1e3,
            r.speedup,
            r.identical,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"trace_overhead\": {{\"noop_ms\": {:.3}, \"traced_ms\": {:.3}, \"ratio\": {:.3}}},\n",
        overhead.noop.as_secs_f64() * 1e3,
        overhead.traced.as_secs_f64() * 1e3,
        overhead.ratio(),
    ));
    s.push_str(&format!("  \"trace\": {}\n", overhead.summary));
    s.push_str("}\n");
    s
}

/// Render the scaling table and write [`JSON_PATH`].
pub fn run(scale: &Scale) -> Table {
    let rs = rows(scale);
    let mut t = Table::new(
        "Thread scaling: wall-clock time of the muBLASTP workflow",
        &["threads", "wall-clock", "speedup", "output"],
    );
    for r in &rs {
        t.row(vec![
            r.threads.to_string(),
            format!("{:.1} ms", r.wall.as_secs_f64() * 1e3),
            format!("{:.2}x", r.speedup),
            if r.identical { "identical" } else { "DIVERGED" }.to_string(),
        ]);
    }
    let cores = host_cores();
    t.note(format!(
        "wall-clock (not simulated) time, mean of {} runs on a {cores}-core host; \
         speedup beyond {cores} threads is not expected here",
        measure::RUNS
    ));
    let overhead = trace_overhead(scale);
    // The "free when disabled" contract: the no-op-sink run must not be
    // slower than the traced run beyond measurement noise. A generous
    // factor plus an absolute slack keeps quick runs on busy hosts from
    // flaking while still catching a disabled path that started doing
    // real work.
    assert!(
        overhead.noop <= overhead.traced.mul_f64(1.5) + Duration::from_millis(2),
        "no-op trace sink regressed: off {:?} vs on {:?}",
        overhead.noop,
        overhead.traced,
    );
    t.note(format!(
        "trace layer: off {:.2} ms vs on {:.2} ms (best of {}; tracing costs {:.1}%)",
        overhead.noop.as_secs_f64() * 1e3,
        overhead.traced.as_secs_f64() * 1e3,
        measure::RUNS,
        (overhead.ratio() - 1.0) * 100.0,
    ));
    match std::fs::write(JSON_PATH, to_json(&rs, scale, &overhead)) {
        Ok(()) => t.note(format!("machine-readable results written to {JSON_PATH}")),
        Err(e) => t.note(format!("could not write {JSON_PATH}: {e}")),
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_thread_count_produces_identical_partitions() {
        let rs = rows(&Scale::quick());
        assert_eq!(rs.len(), THREAD_COUNTS.len());
        for r in &rs {
            assert!(r.identical, "{} threads diverged", r.threads);
            assert!(r.wall > Duration::ZERO);
        }
        assert!((rs[0].speedup - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn json_document_is_well_formed_enough() {
        let rs = rows(&Scale::quick());
        let overhead = trace_overhead(&Scale::quick());
        let json = to_json(&rs, &Scale::quick(), &overhead);
        assert!(json.contains("\"thread-scaling\""));
        assert!(json.contains("\"host_cores\""));
        assert_eq!(json.matches("\"threads\":").count(), THREAD_COUNTS.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        // The embedded span summary covers both workflow jobs.
        assert!(json.contains("\"trace_overhead\""));
        assert!(json.contains("\"total_virt_ns\""));
        assert!(json.contains("\"sort\""));
        assert!(json.contains("\"distr\""));
    }

    #[test]
    fn noop_sink_runs_carry_no_trace() {
        let overhead = trace_overhead(&Scale::quick());
        assert!(overhead.traced > Duration::ZERO);
        assert!(overhead.noop > Duration::ZERO);
        assert!(overhead.summary.contains("\"jobs\""));
    }
}
