//! One-shot workloads: `papar_cli::run` timed from the input file on disk
//! to the partition files on disk, and the traced variant that calls each
//! layer's public function in turn under its own span.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use papar_config::input::InputFormat;
use papar_config::{InputConfig, WorkflowConfig};
use papar_core::exec::{ExecOptions, WorkflowReport, WorkflowRunner};
use papar_core::physplan::FuseToggles;
use papar_core::plan::Planner;
use papar_mr::{Cluster, RetryPolicy};
use papar_record::batch::{Batch, Dataset};
use papar_record::Schema;

use crate::report::{median, ms, peak_rss_mb, windowed_p90, Outcome, Tally, MAX_FAILED, MIN_JOBS};
use crate::span::{JobTrace, Trace};
use crate::workload::{digest_dir, Oracle, Shape, Workload};

/// Largest share of a traced job's wall its layer spans may leave
/// uncovered (argument binding, runner construction and other glue
/// between the calls).
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// One finished job: host wall, virtual makespan, bytes shuffled.
struct JobSample {
    wall: Duration,
    sim: Duration,
    shuffle_bytes: u64,
}

/// Runs jobs of one shape, each into a fresh output directory (and a
/// fresh checkpoint directory when the shape checkpoints), and checks
/// every job's partitions against the oracle.
struct Runner<'a> {
    shape: Shape,
    work: &'a Path,
    threads: usize,
    oracle: Oracle,
    jobs: u64,
}

impl<'a> Runner<'a> {
    fn new(workload: Workload, work: &'a Path, threads: usize) -> Result<Runner<'a>, String> {
        let shape = workload.shapes(work).remove(0);
        let oracle = Oracle::load(work, shape.name)?;
        Ok(Runner {
            shape,
            work,
            threads,
            oracle,
            jobs: 0,
        })
    }

    /// A fresh checkpoint directory for the next job, if the shape uses
    /// one.
    fn next_job(&mut self) -> Option<PathBuf> {
        self.jobs += 1;
        let _ = std::fs::remove_dir_all(self.shape.out_dir(self.work));
        self.shape
            .checkpoint
            .then(|| self.work.join(format!("ckpt-{}", self.jobs)))
    }

    /// Compare the partition files just written with the oracle.
    fn check_output(&self) -> Result<(), String> {
        let got = digest_dir(&self.shape.out_dir(self.work))?;
        if got != self.oracle.files {
            return Err(format!(
                "{}: partitions differ from the oracle",
                self.shape.name
            ));
        }
        Ok(())
    }

    /// One untraced `papar_cli::run`, timed around the call only.
    fn untraced(&mut self, tally: &mut Tally) -> Option<JobSample> {
        let ckpt = self.next_job();
        let spec = self.shape.run_spec(self.work, self.threads, ckpt.clone());
        let t0 = Instant::now();
        let result = papar_cli::run(&spec);
        let wall = t0.elapsed();
        if let Some(dir) = ckpt {
            let _ = std::fs::remove_dir_all(dir);
        }
        let sample = result.map_err(|e| e.to_string()).and_then(|summary| {
            self.check_output()?;
            if summary.records_in != self.oracle.records {
                return Err(format!("read {} records", summary.records_in));
            }
            Ok(JobSample {
                wall,
                sim: summary.total_sim,
                shuffle_bytes: summary.jobs.iter().map(|j| j.2).sum(),
            })
        });
        tally.record(sample)
    }

    /// One traced job at `threads` engine threads.
    fn traced(&mut self, threads: usize, tally: &mut Tally) -> Option<Traced> {
        let ckpt = self.next_job();
        let spec = self.shape.run_spec(self.work, threads, ckpt.clone());
        let result = traced_job(&spec);
        let sample = result.and_then(|mut t| {
            if let Some(dir) = &ckpt {
                let (files, bytes) = dir_size(dir)?;
                t.counters.checkpoint_files = files;
                t.counters.checkpoint_bytes = bytes;
            }
            self.check_output()?;
            if t.counters.records_in != self.oracle.records as u64 {
                return Err(format!("read {} records", t.counters.records_in));
            }
            Ok(t)
        });
        if let Some(dir) = ckpt {
            let _ = std::fs::remove_dir_all(dir);
        }
        tally.record(sample)
    }
}

/// Measure the end-to-end metrics of a one-shot workload for `seconds`.
pub fn measure(
    workload: Workload,
    work: &Path,
    seconds: f64,
    threads: usize,
) -> Result<Outcome, String> {
    let mut runner = Runner::new(workload, work, threads)?;
    let mut tally = Tally::default();
    // One untimed warm-up job: it faults in the input file and the
    // allocator's arenas, which every later job finds ready.
    runner.untraced(&mut tally);
    let mut samples = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || samples.len() < MIN_JOBS {
        if let Some(s) = runner.untraced(&mut tally) {
            samples.push(s);
        }
        if tally.failed > MAX_FAILED {
            break;
        }
    }
    let mut out = Outcome::from_tally(tally);
    if let Some(first) = samples.first() {
        if samples
            .iter()
            .any(|s| s.shuffle_bytes != first.shuffle_bytes)
        {
            out.problem("shuffle_bytes differs between jobs of one input");
        }
    }
    let walls: Vec<f64> = samples.iter().map(|s| ms(s.wall)).collect();
    // Every job reads the same records, so the median job's rate is the
    // records over the median wall. A median, unlike a sum of walls, is
    // not moved by the few jobs a busy host stalls.
    let records = runner.oracle.records as f64;
    out.metric("records_per_s", records / (median(&walls) / 1e3), "1/s");
    out.metric("job_p50_ms", median(&walls), "ms");
    out.metric("job_p90_ms", windowed_p90(&walls), "ms");
    out.metric(
        "sim_makespan_ms",
        median(&samples.iter().map(|s| ms(s.sim)).collect::<Vec<_>>()),
        "ms",
    );
    out.metric(
        "shuffle_bytes",
        samples.first().map_or(0.0, |s| s.shuffle_bytes as f64),
        "bytes",
    );
    out.note(format!("jobs measured: {}", samples.len()));
    Ok(out)
}

/// Run one checked job of `workload` in this process, which must be
/// fresh, and return the process's resident-set high-water mark.
pub fn single_job(workload: Workload, work: &Path, threads: usize) -> Result<f64, String> {
    let mut runner = Runner::new(workload, work, threads)?;
    let mut tally = Tally::default();
    runner.untraced(&mut tally);
    match tally.errors.pop() {
        Some(e) => Err(e),
        None => peak_rss_mb(),
    }
}

/// Measure the per-layer metrics of a one-shot workload: traced and
/// untraced jobs alternate for `seconds`, then one traced job at a single
/// engine thread checks that every counter is thread-count invariant.
pub fn measure_traced(
    workload: Workload,
    work: &Path,
    seconds: f64,
    threads: usize,
) -> Result<Outcome, String> {
    let mut runner = Runner::new(workload, work, threads)?;
    let mut tally = Tally::default();
    runner.untraced(&mut tally);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || traced.len() < 2 {
        untraced.extend(runner.untraced(&mut tally));
        traced.extend(runner.traced(threads, &mut tally));
        if tally.failed > MAX_FAILED {
            break;
        }
    }
    let single = runner.traced(1, &mut tally);
    let mut out = Outcome::from_tally(tally);
    let Some(first) = traced.first() else {
        return Ok(out);
    };

    // Faithfulness: every job was already checked against the oracle, so
    // traced and untraced partitions are byte-identical; the counters
    // must repeat exactly across jobs and thread counts.
    for t in traced.iter().chain(&single) {
        if t.counters != first.counters {
            out.problem(format!(
                "counters differ between traced jobs: {:?} vs {:?}",
                t.counters, first.counters
            ));
            break;
        }
    }
    if untraced
        .iter()
        .any(|u| u.shuffle_bytes != first.counters.shuffle_bytes)
    {
        out.problem("traced and untraced jobs shuffled different byte counts");
    }
    let unattributed = median(
        &traced
            .iter()
            .map(|t| ms(t.trace.unattributed()) / ms(t.trace.wall))
            .collect::<Vec<_>>(),
    );
    if unattributed > UNATTRIBUTED_TOLERANCE {
        out.problem(format!(
            "layer spans cover only {:.1}% of the traced wall (tolerance {:.0}%)",
            100.0 * (1.0 - unattributed),
            100.0 * UNATTRIBUTED_TOLERANCE
        ));
    }
    out.note(format!(
        "traced jobs: {}; unattributed share of traced wall: {:.2}% (tolerance {:.0}%)",
        traced.len(),
        100.0 * unattributed,
        100.0 * UNATTRIBUTED_TOLERANCE
    ));

    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    for (metric, span) in [
        ("config.ms", "config"),
        ("load.ms", "load"),
        ("check.ms", "check"),
        ("plan.bind_ms", "plan.bind"),
        ("stats.ms", "stats"),
        ("adaptive.choose_ms", "adaptive.choose"),
        ("physplan.lower_ms", "physplan.lower"),
        ("scatter.ms", "scatter"),
        ("engine.ms", "engine"),
        ("collect.ms", "collect"),
        ("write.ms", "write"),
        ("teardown.ms", "teardown"),
    ] {
        out.metric(metric, med(&|t| ms(t.trace.total(span))), "ms");
    }
    out.metric("engine.sample_ms", med(&|t| ms(t.report.sample_time)), "ms");
    out.metric(
        "engine.map_ms",
        med(&|t| t.engine_ms(|j| j.map_time())),
        "ms",
    );
    out.metric(
        "engine.shuffle_ms",
        med(&|t| t.engine_ms(|j| j.comm_time)),
        "ms",
    );
    out.metric(
        "engine.reduce_ms",
        med(&|t| t.engine_ms(|j| j.reduce_time())),
        "ms",
    );
    out.metric("engine.task_cpu_ms", med(&Traced::task_cpu_ms), "ms");
    out.metric("reduce.skew", med(&Traced::reduce_skew), "ratio");
    let untraced_walls: Vec<f64> = untraced.iter().map(|u| ms(u.wall)).collect();
    out.metric(
        "trace.overhead_ms",
        med(&|t| ms(t.trace.wall)) - median(&untraced_walls),
        "ms",
    );
    let c = &first.counters;
    out.metric("load.bytes_read", c.bytes_read as f64, "bytes");
    out.metric(
        "load.useful_ratio",
        c.useful_bytes as f64 / c.bytes_read as f64,
        "ratio",
    );
    out.metric("reduce.staged_bytes", c.staged_bytes as f64, "bytes");
    out.metric("reduce.staged_allocs", c.staged_allocs as f64, "count");
    out.metric("reduce.tie_pairs", c.tie_pairs as f64, "count");
    out.metric("exchange.bytes", c.shuffle_bytes as f64, "bytes");
    out.metric("exchange.messages", c.messages as f64, "count");
    out.metric("write.bytes", c.write_bytes as f64, "bytes");
    out.metric("adaptive.candidates", c.candidates as f64, "count");
    out.metric("adaptive.rejected", c.rejected as f64, "count");
    out.metric("checkpoint.bytes", c.checkpoint_bytes as f64, "bytes");
    out.metric("checkpoint.files", c.checkpoint_files as f64, "count");
    Ok(out)
}

/// Counts a traced job reports; each must repeat exactly for one input,
/// whatever the engine thread count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Counters {
    records_in: u64,
    bytes_read: u64,
    useful_bytes: u64,
    shuffle_bytes: u64,
    messages: u64,
    staged_bytes: u64,
    staged_allocs: u64,
    tie_pairs: u64,
    write_bytes: u64,
    candidates: u64,
    rejected: u64,
    checkpoint_bytes: u64,
    checkpoint_files: u64,
}

/// One traced job: its spans, the engine's report and the counters.
struct Traced {
    trace: Trace,
    report: WorkflowReport,
    counters: Counters,
}

impl Traced {
    /// Sum over the workflow's MR jobs of one virtual-clock phase.
    fn engine_ms(&self, phase: impl Fn(&papar_mr::JobStats) -> Duration) -> f64 {
        self.report.jobs.iter().map(|j| ms(phase(j))).sum()
    }

    /// Measured compute time of every map and reduce task, summed.
    fn task_cpu_ms(&self) -> f64 {
        self.report
            .jobs
            .iter()
            .flat_map(|j| j.map_time_by_node.iter().chain(&j.reduce_time_by_node))
            .map(|d| ms(*d))
            .sum()
    }

    /// Slowest node's reduce time over the mean node's, summed over jobs
    /// (1.0 is perfectly balanced).
    fn reduce_skew(&self) -> f64 {
        let (mut slowest, mut mean) = (0.0, 0.0);
        for j in &self.report.jobs {
            let times: Vec<f64> = j.reduce_time_by_node.iter().map(|d| ms(*d)).collect();
            slowest += times.iter().cloned().fold(0.0, f64::max);
            mean += times.iter().sum::<f64>() / times.len().max(1) as f64;
        }
        if mean > 0.0 {
            slowest / mean
        } else {
            1.0
        }
    }
}

/// `(files, bytes)` under `dir`, recursively.
fn dir_size(dir: &Path) -> Result<(u64, u64), String> {
    let mut files = 0;
    let mut bytes = 0;
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        if meta.is_dir() {
            let (f, b) = dir_size(&entry.path())?;
            files += f;
            bytes += b;
        } else {
            files += 1;
            bytes += meta.len();
        }
    }
    Ok((files, bytes))
}

/// `papar_cli::run`'s pipeline, call for call, with a span around each
/// call into a layer. Errors are rendered, as the CLI renders them.
fn traced_job(spec: &papar_cli::RunSpec) -> Result<Traced, String> {
    let mut t = JobTrace::start();
    let (input_cfg, workflow) = t.span("config", || {
        let read = |p: &Path| {
            std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
        };
        let input_cfg = InputConfig::parse_str(&read(&spec.input_config)?)
            .map_err(|e| format!("{}: {e}", spec.input_config.display()))?;
        let workflow = WorkflowConfig::parse_str(&read(&spec.workflow)?)
            .map_err(|e| format!("{}: {e}", spec.workflow.display()))?;
        Ok::<_, String>((input_cfg, workflow))
    })?;

    let mut args = spec.args.clone();
    for name in ["input_path", "input_file"] {
        if workflow.argument(name).is_some() && !args.contains_key(name) {
            args.insert(name.to_string(), spec.data.display().to_string());
        }
    }
    if workflow.argument("output_path").is_some() && !args.contains_key("output_path") {
        args.insert(
            "output_path".to_string(),
            spec.out_dir.display().to_string(),
        );
    }

    let schema = Arc::new(Schema::from_input_config(&input_cfg));
    let records = t.span("load", || {
        papar_serve::job::load_records(&input_cfg, &schema, &spec.data, spec.records)
    })?;
    let records_in = records.len();
    let bytes_read = std::fs::metadata(&spec.data)
        .map_err(|e| e.to_string())?
        .len();
    let useful_bytes = match input_cfg.format {
        InputFormat::Binary => (records_in * schema.binary_record_width().unwrap_or(0)) as u64,
        InputFormat::Text => bytes_read,
    };

    let ctx = papar_check::CheckContext {
        args: args.clone(),
        nodes: Some(spec.nodes),
        replication: Some(spec.replication),
        records: Some(records_in),
        ..Default::default()
    };
    let analysis = t.span("check", || {
        papar_check::analyze(&workflow, std::slice::from_ref(&input_cfg), &ctx)
    });
    if analysis.has_errors() {
        return Err("rejected by static analysis".to_string());
    }
    let plan = t.span("plan.bind", || {
        Planner::new(workflow, vec![input_cfg.clone()]).bind(&args)
    });
    let plan = plan.map_err(|e| e.to_string())?;
    if !t
        .span("check", || papar_check::verify_plan(&analysis, &plan))
        .is_empty()
    {
        return Err("plan-invariant verification failed".to_string());
    }
    let [(input_name, _)] = plan.external_inputs.as_slice() else {
        return Err("the workflow must have exactly one external input".to_string());
    };
    let input_name = input_name.clone();

    let options = ExecOptions {
        threads: spec.threads,
        trace: false,
        fuse: !spec.no_fuse,
        zerocopy: !spec.no_zerocopy,
        adaptive: spec.adaptive,
        ..ExecOptions::default()
    };
    let input_batch = Batch::Flat(records);
    let decision = if spec.adaptive {
        let stats = t.span("stats", || {
            papar_core::stats::collect_for_plan(
                &plan,
                |name| (name == input_name).then_some(&input_batch),
                options.sample_stride,
            )
        });
        let stats = stats.map_err(|e| e.to_string())?;
        Some(t.span("adaptive.choose", || {
            papar_core::adaptive::choose(&plan, spec.nodes, &options, stats.as_ref())
        }))
    } else {
        None
    };
    let toggles = decision
        .as_ref()
        .map(|d| d.knobs().fuse)
        .unwrap_or_else(|| FuseToggles::from_flag(!spec.no_fuse));
    let phys = t.span("physplan.lower", || {
        papar_core::physplan::lower_with(&plan, spec.nodes, None, toggles)
    });
    let divergences = t.span("check", || {
        papar_check::verify_physical_plan(&plan, &phys, spec.nodes, None)
    });
    if !divergences.is_empty() {
        return Err("physical-plan verification failed".to_string());
    }
    let (candidates, rejected) = decision.as_ref().map_or((0, 0), |d| {
        (
            d.rationale.considered as u64,
            d.rationale.rejected.len() as u64,
        )
    });

    let mut runner = WorkflowRunner::with_options(plan, options);
    if let Some(d) = decision {
        runner = runner.with_decision(d);
    }
    if let Some(dir) = &spec.checkpoint {
        let salt = format!(
            "faults={:?} seed={} replication={} max_retries={}",
            spec.faults, spec.fault_seed, spec.replication, spec.max_retries
        );
        runner = runner.with_checkpoint(dir, false, papar_record::wire::checksum(salt.as_bytes()));
    }
    // Building the simulated cluster is part of placing the input on it.
    let cluster = t.span("scatter", || {
        let mut cluster = Cluster::try_new(spec.nodes)
            .map_err(|e| e.to_string())?
            .with_replication(spec.replication)
            .with_retry(RetryPolicy {
                max_attempts: spec.max_retries.max(1),
                ..RetryPolicy::default()
            });
        runner
            .scatter_input(
                &mut cluster,
                &input_name,
                Dataset::new(schema.clone(), input_batch),
            )
            .map_err(|e| e.to_string())?;
        Ok::<_, String>(cluster)
    });
    let mut cluster = cluster?;
    let report = t.span("engine", || runner.run(&mut cluster));
    let report = report.map_err(|e| e.to_string())?;

    let partitions = t.span("collect", || {
        std::fs::create_dir_all(&spec.out_dir)
            .map_err(|e| format!("cannot create {}: {e}", spec.out_dir.display()))?;
        cluster
            .collect(&runner.plan().output_path)
            .map_err(|e| e.to_string())
    })?;
    let write_bytes = t.span("write", || {
        let mut total = 0u64;
        for (i, part) in partitions.iter().enumerate() {
            let records = part.batch.clone().flatten();
            let (name, bytes) = match input_cfg.format {
                InputFormat::Binary => (
                    format!("partition_{i:04}.bin"),
                    papar_record::codec::binary::write(&input_cfg, &part.schema, &records, None)
                        .map_err(|e| e.to_string())?,
                ),
                InputFormat::Text => (
                    format!("partition_{i:04}.txt"),
                    papar_record::codec::text::write(&input_cfg, &part.schema, &records)
                        .map_err(|e| e.to_string())?
                        .into_bytes(),
                ),
            };
            let path = spec.out_dir.join(name);
            std::fs::write(&path, &bytes)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            total += bytes.len() as u64;
        }
        Ok::<_, String>(total)
    })?;
    // `papar_cli::run` frees the cluster's datasets and the collected
    // partitions before it returns; so does the traced job.
    t.span("teardown", move || drop((partitions, cluster, runner)));
    let trace = t.finish();

    let counters = Counters {
        records_in: records_in as u64,
        bytes_read,
        useful_bytes,
        shuffle_bytes: report.jobs.iter().map(|j| j.exchange.remote_bytes).sum(),
        messages: report.jobs.iter().map(|j| j.exchange.remote_messages).sum(),
        staged_bytes: report.jobs.iter().map(|j| j.hot.staged_bytes).sum(),
        staged_allocs: report.jobs.iter().map(|j| j.hot.staged_allocs).sum(),
        tie_pairs: report.jobs.iter().map(|j| j.hot.tie_pairs).sum(),
        write_bytes,
        candidates,
        rejected,
        checkpoint_bytes: 0,
        checkpoint_files: 0,
    };
    Ok(Traced {
        trace,
        report,
        counters,
    })
}
