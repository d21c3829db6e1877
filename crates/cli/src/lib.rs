//! The `papar` command-line tool: run a PaPar partitioning workflow over
//! real files on disk.
//!
//! This is the deployment surface a downstream user adopts: point the tool
//! at the two configuration documents, the input file, and an output
//! directory, and it parses, plans, executes on the simulated cluster, and
//! writes one output file per partition in the input's format:
//!
//! ```sh
//! papar --input-config blast_db.xml --workflow partition.xml \
//!       --data env_nr.db --out partitions/ --nodes 16 \
//!       --arg num_partitions=32
//! ```
//!
//! The library half (this module) is fully testable without spawning the
//! binary; `main.rs` is a thin argument-parsing shell around [`run`].

use papar_config::{InputConfig, WorkflowConfig};
use papar_core::exec::{ExecOptions, WorkflowRunner};
use papar_core::plan::Planner;
use papar_mr::{ChaosSpec, Cluster, RetryPolicy};
use papar_record::batch::{Batch, Dataset};
use papar_record::Schema;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Everything `papar run` needs.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Path to the InputData configuration document.
    pub input_config: PathBuf,
    /// Path to the Workflow configuration document.
    pub workflow: PathBuf,
    /// Path to the input data file.
    pub data: PathBuf,
    /// Directory to write the partition files into (created if missing).
    pub out_dir: PathBuf,
    /// Simulated cluster size.
    pub nodes: usize,
    /// Launch-time workflow arguments (`key=value` pairs). The workflow's
    /// input-path argument is bound to the data file's path automatically
    /// when not given.
    pub args: HashMap<String, String>,
    /// For binary inputs whose record region is followed by payload (e.g. a
    /// full muBLASTP database file): read exactly this many records.
    /// `None` reads the longest whole-record suffix-free prefix.
    pub records: Option<usize>,
    /// Fault spec (`crash=1,drop=2,...`) realized into a seeded schedule;
    /// `None` runs fault-free.
    pub faults: Option<String>,
    /// Seed for the fault schedule (same seed, same faults).
    pub fault_seed: u64,
    /// Replicas kept per materialized fragment (0 disables checkpointing;
    /// crashes then lose data unrecoverably).
    pub replication: usize,
    /// Executions allowed per task before the job aborts.
    pub max_retries: u32,
    /// OS threads for the engine's node tasks (`None` → `PAPAR_THREADS` or
    /// the host's available parallelism). Output bytes are identical for
    /// every value; only wall-clock time changes.
    pub threads: Option<usize>,
    /// Disable physical-plan fusion rewrites (`--no-fuse`): every logical
    /// job runs as its own MR job. Output bytes are identical either way;
    /// only job counts and shuffle traffic change.
    pub no_fuse: bool,
    /// Disable the engine's zero-copy reduce path (`--no-zerocopy`):
    /// shuffled pairs are decoded into owned values before sorting, the
    /// pre-optimization baseline. Output bytes are identical either way;
    /// only staged bytes and allocations change.
    pub no_zerocopy: bool,
    /// Print a per-phase virtual-time breakdown after the run.
    pub profile: bool,
    /// Write a Chrome trace-event JSON file of the run's span tree
    /// (loadable in chrome://tracing or Perfetto).
    pub trace_out: Option<PathBuf>,
    /// Persist per-stage progress into this run directory
    /// (`--checkpoint`); with [`RunSpec::resume`] set, completed stages
    /// are restored from it instead of re-executed.
    pub checkpoint: Option<PathBuf>,
    /// Resume from [`RunSpec::checkpoint`]'s manifest (`--resume`).
    pub resume: bool,
    /// Run the cost-based adaptive planner (`--adaptive`): a sampling
    /// pre-pass over the input feeds a candidate enumeration whose
    /// winner overrides the literal reducer/stride/boundary/fusion
    /// knobs. Output bytes are identical either way (only output-neutral
    /// knobs are tunable); `--no-adaptive` names the default explicitly.
    pub adaptive: bool,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            input_config: PathBuf::new(),
            workflow: PathBuf::new(),
            data: PathBuf::new(),
            out_dir: PathBuf::new(),
            nodes: 0,
            args: HashMap::new(),
            records: None,
            faults: None,
            fault_seed: 0,
            replication: 0,
            // Matches the engine's default retry policy; a derived zero
            // would clamp every task to a single attempt.
            max_retries: 3,
            threads: None,
            no_fuse: false,
            no_zerocopy: false,
            profile: false,
            trace_out: None,
            checkpoint: None,
            resume: false,
            adaptive: false,
        }
    }
}

/// A summary of a completed run, for printing.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Records read from the input file.
    pub records_in: usize,
    /// Partition files written, in partition order.
    pub files: Vec<PathBuf>,
    /// Per-job lines: `(job id, simulated time, shuffled bytes)`.
    pub jobs: Vec<(String, std::time::Duration, u64)>,
    /// Total simulated partitioning time.
    pub total_sim: std::time::Duration,
    /// Faults that fired during the run.
    pub faults_injected: u32,
    /// Workflow-wide recovery accounting.
    pub recovery: papar_mr::RecoveryStats,
    /// Rendered fault/recovery log lines, in order.
    pub recovery_log: Vec<String>,
    /// Warning-severity diagnostics from the pre-run static analysis
    /// (error-severity ones refuse the run instead).
    pub check_warnings: Vec<String>,
    /// Rendered per-phase breakdown table (present with `--profile`).
    pub profile: Option<String>,
    /// The Chrome trace-event file written (present with `--trace`).
    pub trace_file: Option<PathBuf>,
    /// Stages restored from the checkpoint instead of executed (0 unless
    /// `--resume` skipped work).
    pub stages_resumed: usize,
    /// Corrupt or torn checkpoint data found while resuming, already
    /// quarantined and recomputed.
    pub checkpoint_events: Vec<String>,
    /// Rendered adaptive-planner rationale (present with `--adaptive`).
    pub rationale: Option<String>,
    /// Rendered engine notes: collapsed reducer counts, post-run
    /// re-balance hints.
    pub notes: Vec<String>,
}

/// CLI error: a message for the user (exit code 1).
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn fail(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Parse one `--arg key=value` pair into the argument map, refusing
/// duplicates. Workflow arguments bind exactly once; before this check a
/// repeated `--arg` silently kept the last value, so a typo'd sweep
/// (`--arg num_partitions=4 ... --arg num_partitions=8`) ran with a
/// surprise binding instead of an error naming both values.
fn insert_arg(args: &mut HashMap<String, String>, kv: &str) -> Result<(), CliError> {
    let (k, v) = kv
        .split_once('=')
        .ok_or_else(|| fail(format!("--arg wants key=value, got '{kv}'")))?;
    if let Some(prev) = args.get(k) {
        return Err(fail(format!(
            "--arg '{k}' given twice: '{prev}' then '{v}' (each workflow argument \
             binds exactly once)"
        )));
    }
    args.insert(k.to_string(), v.to_string());
    Ok(())
}

/// Execute a run spec end-to-end.
pub fn run(spec: &RunSpec) -> Result<RunSummary, CliError> {
    let input_cfg_text = std::fs::read_to_string(&spec.input_config)
        .map_err(|e| fail(format!("cannot read {}: {e}", spec.input_config.display())))?;
    let input_cfg = InputConfig::parse_str(&input_cfg_text)
        .map_err(|e| fail(format!("{}: {e}", spec.input_config.display())))?;
    let workflow_text = std::fs::read_to_string(&spec.workflow)
        .map_err(|e| fail(format!("cannot read {}: {e}", spec.workflow.display())))?;
    let workflow = WorkflowConfig::parse_str(&workflow_text)
        .map_err(|e| fail(format!("{}: {e}", spec.workflow.display())))?;

    // Bind arguments: any hdfs-typed argument bound to the data file path
    // becomes the external input; default the conventional names.
    let mut args = spec.args.clone();
    let data_path = spec.data.display().to_string();
    for name in ["input_path", "input_file"] {
        if workflow.argument(name).is_some() && !args.contains_key(name) {
            args.insert(name.to_string(), data_path.clone());
        }
    }
    for name in ["output_path"] {
        if workflow.argument(name).is_some() && !args.contains_key(name) {
            args.insert(name.to_string(), spec.out_dir.display().to_string());
        }
    }

    let schema = Arc::new(Schema::from_input_config(&input_cfg));
    let records = read_data_file(&input_cfg, &schema, &spec.data, spec.records)?;
    let records_in = records.len();

    // Static analysis gate: refuse to start the cluster while any
    // error-severity diagnostic stands. Warnings ride along on the summary.
    let ctx = papar_check::CheckContext {
        args: args.clone(),
        nodes: Some(spec.nodes),
        replication: Some(spec.replication),
        records: Some(records_in),
        ..Default::default()
    };
    let analysis = papar_check::analyze(&workflow, std::slice::from_ref(&input_cfg), &ctx);
    if analysis.has_errors() {
        let rendered: String = analysis
            .errors()
            .iter()
            .map(|d| format!("  {d}\n"))
            .collect();
        return Err(fail(format!(
            "{} rejected by static analysis:\n{rendered}(`papar check` re-runs \
             this analysis standalone)",
            spec.workflow.display()
        )));
    }
    let check_warnings: Vec<String> = analysis.diagnostics.iter().map(|d| d.to_string()).collect();

    let planner = Planner::new(workflow, vec![input_cfg.clone()]);
    let plan = planner.bind(&args).map_err(|e| fail(e.to_string()))?;
    // The analyzer and the planner infer the same metadata independently;
    // a divergence (P099) is a framework bug and also refuses the run.
    let divergences = papar_check::verify_plan(&analysis, &plan);
    if !divergences.is_empty() {
        return Err(fail(format!(
            "plan-invariant verification failed:\n{}",
            papar_check::render_text(&divergences)
        )));
    }
    if plan.external_inputs.len() != 1 {
        return Err(fail(format!(
            "the workflow expects {} external inputs; the CLI provides exactly one (--data)",
            plan.external_inputs.len()
        )));
    }
    let input_name = plan.external_inputs[0].0.clone();
    let num_jobs = plan.jobs.len();

    let exec_options = ExecOptions {
        threads: spec.threads,
        trace: spec.profile || spec.trace_out.is_some(),
        fuse: !spec.no_fuse,
        zerocopy: !spec.no_zerocopy,
        adaptive: spec.adaptive,
        ..ExecOptions::default()
    };
    // Adaptive planning: sample the loaded input, enumerate and cost
    // candidate knob settings, and hand the winning decision to the
    // runner (the literal configured knobs become overridable defaults).
    let input_batch = Batch::Flat(records);
    let decision = if spec.adaptive {
        let stats = papar_core::stats::collect_for_plan(
            &plan,
            |name| (name == input_name).then_some(&input_batch),
            exec_options.sample_stride,
        )
        .map_err(|e| fail(e.to_string()))?;
        Some(papar_core::adaptive::choose(
            &plan,
            spec.nodes,
            &exec_options,
            stats.as_ref(),
        ))
    } else {
        None
    };

    // The physical plan the runner will execute must pass the same gate.
    let toggles = decision
        .as_ref()
        .map(|d| d.knobs().fuse)
        .unwrap_or_else(|| papar_core::physplan::FuseToggles::from_flag(!spec.no_fuse));
    let phys = papar_core::physplan::lower_with(&plan, spec.nodes, None, toggles);
    let divergences = papar_check::verify_physical_plan(&plan, &phys, spec.nodes, None);
    if !divergences.is_empty() {
        return Err(fail(format!(
            "physical-plan verification failed:\n{}",
            papar_check::render_text(&divergences)
        )));
    }
    let mut runner = WorkflowRunner::with_options(plan, exec_options);
    if let Some(d) = decision.clone() {
        runner = runner.with_decision(d);
    }
    if let Some(dir) = &spec.checkpoint {
        // Salt the resume fingerprint with everything byte-affecting the
        // runner cannot see: the fault schedule and the recovery knobs.
        let salt = format!(
            "faults={:?} seed={} replication={} max_retries={}",
            spec.faults, spec.fault_seed, spec.replication, spec.max_retries
        );
        runner = runner.with_checkpoint(
            dir,
            spec.resume,
            papar_record::wire::checksum(salt.as_bytes()),
        );
    }
    let mut cluster = Cluster::try_new(spec.nodes)
        .map_err(|e| fail(e.to_string()))?
        .with_replication(spec.replication)
        .with_retry(RetryPolicy {
            max_attempts: spec.max_retries.max(1),
            ..RetryPolicy::default()
        });
    if let Some(fault_spec) = &spec.faults {
        let chaos = ChaosSpec::parse(fault_spec).map_err(|e| fail(e.to_string()))?;
        cluster = cluster.with_fault_plan(chaos.realize(spec.fault_seed, spec.nodes, num_jobs));
    }
    runner
        .scatter_input(
            &mut cluster,
            &input_name,
            Dataset::new(schema.clone(), input_batch),
        )
        .map_err(|e| fail(e.to_string()))?;
    let report = runner.run(&mut cluster).map_err(|e| match e {
        papar_core::error::CoreError::Mr(papar_mr::MrError::ResumeMismatch { .. }) => {
            fail(format!(
                "error[P020]: {e}\n(the checkpoint was taken by a run with a different \
                 plan, input, fault seed or configuration; re-run with --checkpoint \
                 to start it over)"
            ))
        }
        e => fail(e.to_string()),
    })?;

    // Render/export the span tree before the partitions are written, so a
    // disk-full failure below still leaves the trace on disk for debugging.
    let mut profile = None;
    let mut trace_file = None;
    if let Some(trace) = &report.trace {
        if spec.profile {
            let mut rendered = papar_trace::render_profile(trace);
            // Bound-vs-observed columns: re-run the static interpretation
            // over the exact input count and line its intervals up with
            // the traced counters (debug builds additionally assert
            // containment after every stage).
            let phys = papar_core::physplan::lower_with(runner.plan(), spec.nodes, None, toggles);
            let mut opts = papar_core::bounds::BoundsOptions {
                num_nodes: spec.nodes,
                default_reducers: None,
                sources: Default::default(),
                reducer_overrides: decision
                    .as_ref()
                    .map(|d| d.knobs().sort_reducers.clone())
                    .unwrap_or_default(),
            };
            for (name, _) in &runner.plan().external_inputs {
                opts.sources.insert(
                    name.clone(),
                    papar_core::bounds::SourceBounds::exact(records_in as u64),
                );
            }
            let bounds = papar_core::bounds::compute(runner.plan(), &phys, &opts);
            let static_bounds: Vec<papar_trace::StaticBound> = bounds
                .stages
                .iter()
                .map(|s| papar_trace::StaticBound {
                    name: s.id.clone(),
                    records_in: (s.records_in.lo, s.records_in.hi),
                    records_out: (s.records_out.lo, s.records_out.hi),
                    pairs: (s.pairs.lo, s.pairs.hi),
                    max_load: (s.max_load.lo, s.max_load.hi),
                })
                .collect();
            rendered.push_str(&papar_trace::render_bounds_check(trace, &static_bounds));
            // Predicted-vs-observed row of the adaptive cost model.
            if let Some(r) = &report.rationale {
                rendered.push('\n');
                rendered.push_str(&papar_trace::render_prediction_check(
                    trace,
                    &r.stats_job,
                    &papar_trace::Prediction {
                        cost_ns: r.predicted.cost_ns,
                        max_load: r.predicted.max_load,
                        shuffle_bytes: r.predicted.shuffle_bytes,
                    },
                ));
            }
            profile = Some(rendered);
        }
        if let Some(path) = &spec.trace_out {
            std::fs::write(path, papar_trace::to_chrome_json(trace))
                .map_err(|e| fail(format!("cannot write {}: {e}", path.display())))?;
            trace_file = Some(path.clone());
        }
    }

    let partitions = cluster
        .take(&runner.plan().output_path)
        .map_err(|e| fail(e.to_string()))?;
    let files =
        papar_serve::job::write_partitions(&input_cfg, partitions, &spec.out_dir).map_err(fail)?;

    Ok(RunSummary {
        records_in,
        files,
        jobs: report
            .jobs
            .iter()
            .map(|j| (j.name.clone(), j.sim_time(), j.exchange.remote_bytes))
            .collect(),
        total_sim: report.total_sim_time(),
        faults_injected: report.faults_injected(),
        recovery: report.total_recovery(),
        recovery_log: report
            .recovery_events
            .iter()
            .map(|e| e.to_string())
            .collect(),
        check_warnings,
        profile,
        trace_file,
        stages_resumed: report.stages_resumed,
        checkpoint_events: report.checkpoint_events.clone(),
        rationale: report.rationale.as_ref().map(|r| r.render()),
        notes: report.notes.iter().map(|n| n.to_string()).collect(),
    })
}

/// Read the input data file per its configuration — delegated to the
/// loader the daemon uses ([`papar_serve::job::load_records`]), so
/// `papar run` and a served job can never diverge on how a file's
/// record region is bounded.
fn read_data_file(
    cfg: &InputConfig,
    schema: &Schema,
    path: &Path,
    records: Option<usize>,
) -> Result<Vec<papar_record::Record>, CliError> {
    papar_serve::job::load_records(cfg, schema, path, records).map_err(fail)
}

/// Everything `papar check` needs.
#[derive(Debug, Clone, Default)]
pub struct CheckSpec {
    /// Path to the Workflow configuration document.
    pub workflow: PathBuf,
    /// Paths to InputData configuration documents (any number, including
    /// zero — unresolvable formats are then diagnosed).
    pub input_configs: Vec<PathBuf>,
    /// Cluster size, when known (enables partition-count checks).
    pub nodes: Option<usize>,
    /// Replication factor, when known.
    pub replication: Option<usize>,
    /// Input record count, when known (enables `L_m^{km}` divisibility).
    pub records: Option<usize>,
    /// Launch arguments; the analysis is symbolic for any left unbound.
    pub args: HashMap<String, String>,
    /// Emit machine-readable JSON instead of one-per-line text.
    pub json: bool,
    /// Run the interval bounds analysis (`--bounds`): bind the plan with
    /// placeholder paths, lower it, propagate cardinality/volume/skew
    /// intervals, and print the per-stage table plus P021/W007/W008/W009.
    pub bounds: bool,
    /// Promote warning-severity diagnostics to errors (`--deny-warnings`):
    /// a warnings-only run then exits 1 instead of 0.
    pub deny_warnings: bool,
    /// `W008` threshold (`--skew-ratio`, default 4.0): worst-case
    /// busiest-partition load over the fair share.
    pub skew_ratio: Option<f64>,
    /// Declared upper bound on distinct values of any single input field
    /// (`--distinct-keys`); enables `P021`.
    pub distinct_keys: Option<u64>,
}

/// What `papar check` found, rendered and counted.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Rendered diagnostics (text or JSON per the spec).
    pub output: String,
    /// Error-severity count (non-zero → exit code 1).
    pub errors: usize,
    /// Warning-severity count.
    pub warnings: usize,
}

/// Run the static analyzer over configuration documents on disk.
pub fn run_check(spec: &CheckSpec) -> Result<CheckReport, CliError> {
    let workflow_xml = std::fs::read_to_string(&spec.workflow)
        .map_err(|e| fail(format!("cannot read {}: {e}", spec.workflow.display())))?;
    let mut input_texts: Vec<(String, String)> = Vec::new();
    for p in &spec.input_configs {
        let text = std::fs::read_to_string(p)
            .map_err(|e| fail(format!("cannot read {}: {e}", p.display())))?;
        let label = p
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| p.display().to_string());
        input_texts.push((label, text));
    }
    let ctx = papar_check::CheckContext {
        args: spec.args.clone(),
        nodes: spec.nodes,
        replication: spec.replication,
        records: spec.records,
        ..Default::default()
    };
    let inputs: Vec<(&str, &str)> = input_texts
        .iter()
        .map(|(l, t)| (l.as_str(), t.as_str()))
        .collect();
    let mut analysis = papar_check::check_sources(&workflow_xml, &inputs, &ctx);

    // Cross-check the inference against the compiled plan whenever the
    // documents are clean enough to bind with the given arguments.
    let mut bounds_table = None;
    if !analysis.has_errors() {
        if let Ok(wf) = WorkflowConfig::parse_str(&workflow_xml) {
            let cfgs: Vec<InputConfig> = input_texts
                .iter()
                .filter_map(|(_, t)| InputConfig::parse_str(t).ok())
                .collect();
            // Path arguments bind to placeholders — neither the
            // cross-check nor the bounds analysis reads data.
            let mut args = spec.args.clone();
            for (name, placeholder) in [
                ("input_path", "/plan/input"),
                ("input_file", "/plan/input"),
                ("output_path", "/plan/output"),
            ] {
                if wf.argument(name).is_some() && !args.contains_key(name) {
                    args.insert(name.to_string(), placeholder.to_string());
                }
            }
            if let Ok(plan) = Planner::new(wf.clone(), cfgs).bind(&args) {
                let divergences = papar_check::verify_plan(&analysis, &plan);
                analysis.diagnostics.extend(divergences);
                if spec.bounds {
                    let nodes = spec.nodes.unwrap_or(4);
                    let phys = papar_core::physplan::lower(&plan, nodes, None, true);
                    let report = papar_check::analyze_bounds(
                        &wf,
                        &plan,
                        &phys,
                        &papar_check::BoundsConfig {
                            num_nodes: nodes,
                            default_reducers: None,
                            records: spec.records.map(|n| n as u64),
                            distinct_keys: spec.distinct_keys,
                            skew_ratio: spec.skew_ratio.unwrap_or(4.0),
                            reducer_overrides: Default::default(),
                        },
                    );
                    analysis.diagnostics.extend(report.diagnostics);
                    bounds_table = Some(report.table);
                }
            } else if spec.bounds {
                return Err(fail(
                    "--bounds needs the workflow to bind; pass the missing --arg values",
                ));
            }
        }
    }
    // `--deny-warnings` promotes every warning to an error, so a
    // warnings-only run exits 1 instead of 0. Codes stay W0xx: the finding
    // is the same, only the policy differs.
    if spec.deny_warnings {
        for d in &mut analysis.diagnostics {
            d.severity = papar_check::Severity::Error;
        }
    }

    let errors = analysis.errors().len();
    let warnings = analysis.diagnostics.len() - errors;
    let output = if spec.json {
        papar_check::json::to_json(&analysis.diagnostics)
    } else {
        let mut out = papar_check::render_text(&analysis.diagnostics);
        if let Some(table) = bounds_table {
            out.push_str(&table);
        }
        out.push_str(&format!(
            "{}: {errors} error(s), {warnings} warning(s)",
            spec.workflow.display()
        ));
        out
    };
    Ok(CheckReport {
        output,
        errors,
        warnings,
    })
}

/// Parse `papar check` arguments into a [`CheckSpec`].
pub fn parse_check_args<I: Iterator<Item = String>>(mut argv: I) -> Result<CheckSpec, CliError> {
    let mut spec = CheckSpec::default();
    let need = |flag: &str, it: &mut I| -> Result<String, CliError> {
        it.next()
            .ok_or_else(|| fail(format!("{flag} needs a value")))
    };
    let parse_usize = |flag: &str, v: String| -> Result<usize, CliError> {
        v.parse()
            .map_err(|_| fail(format!("{flag} wants a non-negative integer, got '{v}'")))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--workflow" => spec.workflow = need("--workflow", &mut argv)?.into(),
            "--input-config" => spec
                .input_configs
                .push(need("--input-config", &mut argv)?.into()),
            "--nodes" => {
                spec.nodes = Some(parse_usize("--nodes", need("--nodes", &mut argv)?)?);
            }
            "--replication" => {
                spec.replication = Some(parse_usize(
                    "--replication",
                    need("--replication", &mut argv)?,
                )?);
            }
            "--records" => {
                spec.records = Some(parse_usize("--records", need("--records", &mut argv)?)?);
            }
            "--arg" => insert_arg(&mut spec.args, &need("--arg", &mut argv)?)?,
            "--format" => {
                let v = need("--format", &mut argv)?;
                spec.json = match v.as_str() {
                    "json" => true,
                    "text" => false,
                    other => {
                        return Err(fail(format!(
                            "--format wants 'text' or 'json', got '{other}'"
                        )))
                    }
                };
            }
            "--bounds" => spec.bounds = true,
            "--deny-warnings" => spec.deny_warnings = true,
            "--skew-ratio" => {
                let v = need("--skew-ratio", &mut argv)?;
                let r: f64 = v
                    .parse()
                    .map_err(|_| fail(format!("--skew-ratio wants a number, got '{v}'")))?;
                if !r.is_finite() || r < 1.0 {
                    return Err(fail(format!("--skew-ratio wants a number >= 1, got '{v}'")));
                }
                spec.skew_ratio = Some(r);
            }
            "--distinct-keys" => {
                let v = need("--distinct-keys", &mut argv)?;
                spec.distinct_keys = Some(v.parse().map_err(|_| {
                    fail(format!(
                        "--distinct-keys wants a non-negative integer, got '{v}'"
                    ))
                })?);
            }
            "-h" | "--help" => return Err(fail(CHECK_USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{CHECK_USAGE}"))),
        }
    }
    if spec.workflow.as_os_str().is_empty() {
        return Err(fail(format!("--workflow is required\n{CHECK_USAGE}")));
    }
    Ok(spec)
}

/// Usage text for `papar check`.
pub const CHECK_USAGE: &str = "\
usage: papar check --workflow <xml> [--input-config <xml>]...
                   [--nodes N] [--replication N] [--records N]
                   [--arg key=value]... [--format text|json]
                   [--bounds] [--distinct-keys N] [--skew-ratio R]
                   [--deny-warnings]

Statically analyzes the workflow without reading any data: dataflow over
$variable references, schema inference through every operator, distribution
legality, and determinism lints. Arguments left unbound are analyzed
symbolically. Exit code 0 when clean or warnings only, 1 when any
error-severity diagnostic is found, 2 on usage errors.

Bounds analysis (abstract interpretation over the physical plan):
  --bounds           propagate record/byte/distinct-key/max-load intervals
                     through every physical stage; prints a per-stage table
                     and enables P021/W007/W008/W009. Use --records N to make
                     source counts exact; unhinted sources stay [0, ?].
  --distinct-keys N  declared bound on distinct values of any input field
                     (needed for P021: reducers that can never receive a key)
  --skew-ratio R     W008 threshold: flag stages whose worst-case partition
                     load exceeds R times the fair share (default 4.0)
  --deny-warnings    promote warnings to errors: warnings-only runs exit 1";

/// Everything `papar plan` needs.
#[derive(Debug, Clone)]
pub struct PlanSpec {
    /// Path to the Workflow configuration document.
    pub workflow: PathBuf,
    /// Paths to InputData configuration documents.
    pub input_configs: Vec<PathBuf>,
    /// Cluster size the plan is lowered for (the group→split fusion gate
    /// depends on it).
    pub nodes: usize,
    /// Launch arguments. Conventional path arguments (`input_path`,
    /// `input_file`, `output_path`) default to placeholders — planning
    /// never reads data, so any concrete string binds.
    pub args: HashMap<String, String>,
    /// Lower with fusion rewrites disabled.
    pub no_fuse: bool,
    /// Print the full logical→physical mapping instead of the one-line
    /// summary.
    pub explain: bool,
    /// Exact record count of every external input (`--records`); makes
    /// the `--explain` bound columns exact instead of `[0, ?]`.
    pub records: Option<u64>,
    /// Run the adaptive planner and print its rationale (`--adaptive`).
    /// With [`PlanSpec::data`] set, the real sampling pre-pass feeds it;
    /// without data it degenerates to weighing fusion toggles.
    pub adaptive: bool,
    /// Input data file to sample for `--adaptive` (`--data`); read with
    /// the first `--input-config`, never partitioned.
    pub data: Option<PathBuf>,
}

impl Default for PlanSpec {
    fn default() -> Self {
        PlanSpec {
            workflow: PathBuf::new(),
            input_configs: Vec::new(),
            nodes: 4,
            args: HashMap::new(),
            no_fuse: false,
            explain: false,
            records: None,
            adaptive: false,
            data: None,
        }
    }
}

/// What `papar plan` computed, rendered and counted.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Rendered plan: the full `--explain` mapping, or a one-line summary.
    pub output: String,
    /// Logical jobs in the bound workflow plan.
    pub logical_jobs: usize,
    /// Physical stages after lowering.
    pub stages: usize,
    /// Whether fusion rewrites were enabled.
    pub fused: bool,
}

/// Bind a workflow and lower it to a physical plan, without reading data.
pub fn run_plan(spec: &PlanSpec) -> Result<PlanReport, CliError> {
    let workflow_text = std::fs::read_to_string(&spec.workflow)
        .map_err(|e| fail(format!("cannot read {}: {e}", spec.workflow.display())))?;
    let workflow = WorkflowConfig::parse_str(&workflow_text)
        .map_err(|e| fail(format!("{}: {e}", spec.workflow.display())))?;
    let mut input_cfgs = Vec::new();
    for p in &spec.input_configs {
        let text = std::fs::read_to_string(p)
            .map_err(|e| fail(format!("cannot read {}: {e}", p.display())))?;
        input_cfgs.push(
            InputConfig::parse_str(&text).map_err(|e| fail(format!("{}: {e}", p.display())))?,
        );
    }

    // Planning never touches data, so conventional path arguments bind to
    // placeholders when the user does not care to provide them.
    let mut args = spec.args.clone();
    for (name, placeholder) in [
        ("input_path", "/plan/input"),
        ("input_file", "/plan/input"),
        ("output_path", "/plan/output"),
    ] {
        if workflow.argument(name).is_some() && !args.contains_key(name) {
            args.insert(name.to_string(), placeholder.to_string());
        }
    }

    let plan = Planner::new(workflow.clone(), input_cfgs.clone())
        .bind(&args)
        .map_err(|e| fail(e.to_string()))?;

    // Adaptive planning: sample the data file (when given) and run the
    // enumerate → cost → choose loop; the rationale prints after the
    // plan and the bound table reflects the chosen reducer counts.
    let decision = if spec.adaptive {
        let exec_options = ExecOptions {
            fuse: !spec.no_fuse,
            adaptive: true,
            ..ExecOptions::default()
        };
        let stats = match (&spec.data, input_cfgs.first()) {
            (Some(data), Some(cfg)) => {
                let schema = Arc::new(Schema::from_input_config(cfg));
                let records = read_data_file(cfg, &schema, data, None)?;
                let batch = Batch::Flat(records);
                papar_core::stats::collect_for_plan(
                    &plan,
                    |name| (plan.external_inputs.iter().any(|(n, _)| n == name)).then_some(&batch),
                    exec_options.sample_stride,
                )
                .map_err(|e| fail(e.to_string()))?
            }
            _ => None,
        };
        Some(papar_core::adaptive::choose(
            &plan,
            spec.nodes,
            &exec_options,
            stats.as_ref(),
        ))
    } else {
        None
    };

    let toggles = decision
        .as_ref()
        .map(|d| d.knobs().fuse)
        .unwrap_or_else(|| papar_core::physplan::FuseToggles::from_flag(!spec.no_fuse));
    let phys = papar_core::physplan::lower_with(&plan, spec.nodes, None, toggles);
    let divergences = papar_check::verify_physical_plan(&plan, &phys, spec.nodes, None);
    if !divergences.is_empty() {
        return Err(fail(format!(
            "physical-plan verification failed:\n{}",
            papar_check::render_text(&divergences)
        )));
    }
    let mut output = if spec.explain {
        // The explain text itself is fingerprint-stable (checkpoint resume
        // hashes it); the bound table rides along after it.
        let mut out = papar_core::physplan::explain(&plan, &phys);
        let report = papar_check::analyze_bounds(
            &workflow,
            &plan,
            &phys,
            &papar_check::BoundsConfig {
                num_nodes: spec.nodes,
                default_reducers: None,
                records: spec.records,
                reducer_overrides: decision
                    .as_ref()
                    .map(|d| d.knobs().sort_reducers.clone())
                    .unwrap_or_default(),
                ..Default::default()
            },
        );
        out.push_str("\nstatic bounds (intervals admitted by the declared sources):\n");
        out.push_str(&report.table);
        out
    } else {
        format!(
            "workflow '{}': {} logical job(s) -> {} physical stage(s) ({})\n\
             (`papar plan --explain` prints the full logical→physical mapping)",
            plan.id,
            plan.jobs.len(),
            phys.stages.len(),
            if phys.fused { "fused" } else { "--no-fuse" },
        )
    };
    if let Some(d) = &decision {
        output.push('\n');
        output.push_str(&d.rationale.render());
    }
    Ok(PlanReport {
        output,
        logical_jobs: plan.jobs.len(),
        stages: phys.stages.len(),
        fused: phys.fused,
    })
}

/// Parse `papar plan` arguments into a [`PlanSpec`].
pub fn parse_plan_args<I: Iterator<Item = String>>(mut argv: I) -> Result<PlanSpec, CliError> {
    let mut spec = PlanSpec::default();
    let need = |flag: &str, it: &mut I| -> Result<String, CliError> {
        it.next()
            .ok_or_else(|| fail(format!("{flag} needs a value")))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--workflow" => spec.workflow = need("--workflow", &mut argv)?.into(),
            "--input-config" => spec
                .input_configs
                .push(need("--input-config", &mut argv)?.into()),
            "--nodes" => {
                let v = need("--nodes", &mut argv)?;
                spec.nodes = v
                    .parse()
                    .map_err(|_| fail(format!("--nodes wants a positive integer, got '{v}'")))?;
                if spec.nodes == 0 {
                    return Err(fail("--nodes wants a positive integer, got '0'"));
                }
            }
            "--arg" => insert_arg(&mut spec.args, &need("--arg", &mut argv)?)?,
            "--no-fuse" => spec.no_fuse = true,
            "--explain" => spec.explain = true,
            "--adaptive" => spec.adaptive = true,
            "--no-adaptive" => spec.adaptive = false,
            "--data" => spec.data = Some(need("--data", &mut argv)?.into()),
            "--records" => {
                let v = need("--records", &mut argv)?;
                spec.records = Some(v.parse().map_err(|_| {
                    fail(format!("--records wants a non-negative integer, got '{v}'"))
                })?);
            }
            "-h" | "--help" => return Err(fail(PLAN_USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{PLAN_USAGE}"))),
        }
    }
    if spec.workflow.as_os_str().is_empty() {
        return Err(fail(format!("--workflow is required\n{PLAN_USAGE}")));
    }
    Ok(spec)
}

/// Usage text for `papar plan`.
pub const PLAN_USAGE: &str = "\
usage: papar plan --workflow <xml> [--input-config <xml>]...
                  [--nodes N] [--arg key=value]... [--no-fuse] [--explain]
                  [--records N] [--adaptive [--data <file>]]

Binds the workflow and lowers it to the physical plan `papar run` would
execute, without reading any data. `--explain` prints every logical job and
every physical stage with its fusion and streaming annotations, followed by
the static bound table (record/pair/max-load intervals per stage; `--records
N` makes source counts exact). `--no-fuse` shows the unfused plan.
`--adaptive` runs the cost-based planner and prints its rationale — every
candidate considered, every rejection and its reason, and the winner's
predicted cost; give `--data <file>` to feed it the real sampling pre-pass
(otherwise it only weighs fusion toggles). Conventional path arguments
(input_path, input_file, output_path) default to placeholders. Exit code 0 on
success, 1 when binding or physical-plan verification fails, 2 on usage
errors.";

/// Parse command-line arguments into a [`RunSpec`].
pub fn parse_args<I: Iterator<Item = String>>(mut argv: I) -> Result<RunSpec, CliError> {
    let mut spec = RunSpec {
        nodes: 4,
        max_retries: 3,
        ..Default::default()
    };
    let need = |flag: &str, it: &mut I| -> Result<String, CliError> {
        it.next()
            .ok_or_else(|| fail(format!("{flag} needs a value")))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--input-config" => spec.input_config = need("--input-config", &mut argv)?.into(),
            "--workflow" => spec.workflow = need("--workflow", &mut argv)?.into(),
            "--data" => spec.data = need("--data", &mut argv)?.into(),
            "--out" => spec.out_dir = need("--out", &mut argv)?.into(),
            "--nodes" => {
                let v = need("--nodes", &mut argv)?;
                spec.nodes = v
                    .parse()
                    .map_err(|_| fail(format!("--nodes wants a positive integer, got '{v}'")))?;
                if spec.nodes == 0 {
                    return Err(fail("--nodes wants a positive integer, got '0'"));
                }
            }
            "--records" => {
                let v = need("--records", &mut argv)?;
                spec.records = Some(v.parse().map_err(|_| {
                    fail(format!("--records wants a non-negative integer, got '{v}'"))
                })?);
            }
            "--arg" => insert_arg(&mut spec.args, &need("--arg", &mut argv)?)?,
            "--faults" => {
                let v = need("--faults", &mut argv)?;
                // Validate now so the user hears about a typo before any
                // data is read.
                ChaosSpec::parse(&v).map_err(|e| fail(e.to_string()))?;
                spec.faults = Some(v);
            }
            "--fault-seed" => {
                let v = need("--fault-seed", &mut argv)?;
                spec.fault_seed = v
                    .parse()
                    .map_err(|_| fail(format!("--fault-seed wants an integer, got '{v}'")))?;
            }
            "--replication" => {
                let v = need("--replication", &mut argv)?;
                spec.replication = v
                    .parse()
                    .map_err(|_| fail(format!("--replication wants an integer, got '{v}'")))?;
            }
            "--max-retries" => {
                let v = need("--max-retries", &mut argv)?;
                spec.max_retries = v
                    .parse()
                    .map_err(|_| fail(format!("--max-retries wants an integer, got '{v}'")))?;
                if spec.max_retries == 0 {
                    return Err(fail("--max-retries wants a positive integer, got '0'"));
                }
            }
            "--threads" => {
                let v = need("--threads", &mut argv)?;
                let t: usize = v
                    .parse()
                    .map_err(|_| fail(format!("--threads wants a positive integer, got '{v}'")))?;
                if t == 0 {
                    return Err(fail("--threads wants a positive integer, got '0'"));
                }
                spec.threads = Some(t);
            }
            "--no-fuse" => spec.no_fuse = true,
            "--no-zerocopy" => spec.no_zerocopy = true,
            "--adaptive" => spec.adaptive = true,
            "--no-adaptive" => spec.adaptive = false,
            "--profile" => spec.profile = true,
            "--trace" => spec.trace_out = Some(need("--trace", &mut argv)?.into()),
            "--checkpoint" => {
                let dir: PathBuf = need("--checkpoint", &mut argv)?.into();
                if spec.checkpoint.as_ref().is_some_and(|d| *d != dir) {
                    return Err(fail("--checkpoint and --resume name different directories"));
                }
                spec.checkpoint = Some(dir);
            }
            "--resume" => {
                let dir: PathBuf = need("--resume", &mut argv)?.into();
                if spec.checkpoint.as_ref().is_some_and(|d| *d != dir) {
                    return Err(fail("--checkpoint and --resume name different directories"));
                }
                spec.checkpoint = Some(dir);
                spec.resume = true;
            }
            "-h" | "--help" => {
                return Err(fail(USAGE));
            }
            other => return Err(fail(format!("unknown flag '{other}'\n{USAGE}"))),
        }
    }
    for (flag, p) in [
        ("--input-config", &spec.input_config),
        ("--workflow", &spec.workflow),
        ("--data", &spec.data),
        ("--out", &spec.out_dir),
    ] {
        if p.as_os_str().is_empty() {
            return Err(fail(format!("{flag} is required\n{USAGE}")));
        }
    }
    Ok(spec)
}

/// Usage text.
pub const USAGE: &str = "\
usage: papar [run] --input-config <xml> --workflow <xml> --data <file> --out <dir>
             [--nodes N] [--records N] [--arg key=value]...
             [--faults SPEC] [--fault-seed N] [--replication N] [--max-retries N]
             [--threads N] [--no-fuse] [--no-zerocopy] [--adaptive] [--profile]
             [--trace <file>] [--checkpoint <dir> | --resume <dir>]
       papar check --workflow <xml> [options]   (see `papar check --help`)
       papar plan --workflow <xml> [options]    (see `papar plan --help`)

Runs the PaPar partitioning workflow described by the two configuration
documents over the data file, on an N-node simulated cluster, and writes
one file per partition into the output directory.

Fault injection (chaos testing the simulated cluster):
  --faults SPEC      inject faults, e.g. 'crash=1,drop=2,corrupt=1,straggler=1'
  --fault-seed N     seed for fault placement (same seed, same schedule; default 0)
  --replication N    replicas per fragment; crashes need N >= 1 to recover (default 0)
  --max-retries N    executions allowed per task before aborting (default 3)

Performance:
  --threads N        OS threads for node tasks; output bytes are identical for
                     every N (default: PAPAR_THREADS or available parallelism)
  --no-fuse          run every logical job as its own MR job instead of fusing
                     adjacent sort+distribute / group+split pairs; output bytes
                     are identical, only job counts and shuffle traffic change
                     (`papar plan --explain` shows what fusion would do)
  --no-zerocopy      decode shuffled pairs into owned values before the reduce
                     sort (the pre-optimization baseline) instead of sorting
                     borrowed views with packed key prefixes; output bytes are
                     identical, only staged bytes and allocations change
                     (compare with --profile's staged/allocs columns)
  --adaptive         run the cost-based adaptive planner: a sampling pre-pass
                     summarizes the input's key distribution, candidate plans
                     (reducer counts, sampling stride, range-vs-cyclic
                     boundaries, per-rewrite fusion) are priced with the cost
                     model under static bounds, and the cheapest admissible one
                     runs; the rationale is printed and output bytes stay
                     identical (only output-neutral knobs are tuned)
  --no-adaptive      keep the configured literal knobs (the default, named)

Observability:
  --profile          print a per-phase virtual-time breakdown (paper Fig. 13 style)
  --trace FILE       write a Chrome trace-event JSON span tree; open it in
                     chrome://tracing or https://ui.perfetto.dev. The file is
                     byte-identical for every --threads value.

Checkpointing (crash-consistent; resumed output is byte-identical to a cold run):
  --checkpoint DIR   durably publish each completed stage's output fragments and
                     stats into DIR (write-ahead manifest, fsync+rename commits)
  --resume DIR       validate DIR's manifest, skip its completed stages and
                     re-execute from the first incomplete one; refuses with
                     error[P020] when the plan/input/seed/config fingerprint
                     differs. Corrupt or torn data is quarantined (*.quarantine)
                     and recomputed, never silently reused.";

// ---------------------------------------------------------------------
// papar serve / submit / status: the resident daemon surface.
// ---------------------------------------------------------------------

/// Everything `papar serve` needs.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Where to listen: a Unix socket path, or `tcp:HOST:PORT`.
    pub socket: String,
    /// Pending-job admission limit (queued + running).
    pub queue_capacity: usize,
    /// Compiled plans kept resident.
    pub plan_cache: usize,
    /// Decoded input files kept resident.
    pub data_cache: usize,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            socket: String::new(),
            queue_capacity: 32,
            plan_cache: 16,
            data_cache: 8,
        }
    }
}

/// Parse `papar serve` arguments into a [`ServeSpec`].
pub fn parse_serve_args<I: Iterator<Item = String>>(mut argv: I) -> Result<ServeSpec, CliError> {
    let mut spec = ServeSpec::default();
    let need = |flag: &str, it: &mut I| -> Result<String, CliError> {
        it.next()
            .ok_or_else(|| fail(format!("{flag} needs a value")))
    };
    let parse_cap = |flag: &str, v: String| -> Result<usize, CliError> {
        let n: usize = v
            .parse()
            .map_err(|_| fail(format!("{flag} wants a positive integer, got '{v}'")))?;
        if n == 0 {
            return Err(fail(format!("{flag} wants a positive integer, got '0'")));
        }
        Ok(n)
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--socket" => spec.socket = need("--socket", &mut argv)?,
            "--queue" => {
                spec.queue_capacity = parse_cap("--queue", need("--queue", &mut argv)?)?;
            }
            "--plan-cache" => {
                spec.plan_cache = parse_cap("--plan-cache", need("--plan-cache", &mut argv)?)?;
            }
            "--data-cache" => {
                spec.data_cache = parse_cap("--data-cache", need("--data-cache", &mut argv)?)?;
            }
            "-h" | "--help" => return Err(fail(SERVE_USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{SERVE_USAGE}"))),
        }
    }
    if spec.socket.is_empty() {
        return Err(fail(format!("--socket is required\n{SERVE_USAGE}")));
    }
    Ok(spec)
}

/// Run the daemon until a `papar submit --shutdown` or SIGTERM/SIGINT,
/// then drain and exit. Startup validation (socket, `PAPAR_THREADS`)
/// fails here, before any request is accepted.
pub fn run_serve(spec: &ServeSpec) -> Result<(), CliError> {
    let server = papar_serve::Server::bind(papar_serve::ServeOptions {
        endpoint: papar_serve::Endpoint::parse(&spec.socket),
        queue_capacity: spec.queue_capacity,
        plan_cache: spec.plan_cache,
        data_cache: spec.data_cache,
        handle_signals: true,
    })
    .map_err(|e| fail(e.to_string()))?;
    eprintln!(
        "papar serve: listening on {} (engine threads: {}, queue capacity: {})",
        server.endpoint(),
        server.default_threads(),
        spec.queue_capacity,
    );
    server.run().map_err(|e| fail(e.to_string()))
}

/// Everything `papar submit` needs.
#[derive(Debug, Clone, Default)]
pub struct SubmitSpec {
    /// The daemon's socket (same syntax as `papar serve --socket`).
    pub socket: String,
    /// The job, with `papar run`'s flag names.
    pub job: papar_serve::JobSpec,
    /// Return immediately after admission instead of waiting for the
    /// result (`--detach`); poll with `papar status <job-id>`.
    pub detach: bool,
    /// Ask the daemon to drain its queue and exit (`--shutdown`).
    pub shutdown: bool,
}

/// Parse `papar submit` arguments into a [`SubmitSpec`].
pub fn parse_submit_args<I: Iterator<Item = String>>(mut argv: I) -> Result<SubmitSpec, CliError> {
    let mut spec = SubmitSpec {
        job: papar_serve::JobSpec {
            nodes: 4,
            ..papar_serve::JobSpec::default()
        },
        ..SubmitSpec::default()
    };
    let mut args: HashMap<String, String> = HashMap::new();
    let need = |flag: &str, it: &mut I| -> Result<String, CliError> {
        it.next()
            .ok_or_else(|| fail(format!("{flag} needs a value")))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--socket" => spec.socket = need("--socket", &mut argv)?,
            "--input-config" => spec.job.input_config = need("--input-config", &mut argv)?,
            "--workflow" => spec.job.workflow = need("--workflow", &mut argv)?,
            "--data" => spec.job.data = need("--data", &mut argv)?,
            "--out" => spec.job.out_dir = need("--out", &mut argv)?,
            "--nodes" => {
                let v = need("--nodes", &mut argv)?;
                spec.job.nodes = v
                    .parse()
                    .map_err(|_| fail(format!("--nodes wants a positive integer, got '{v}'")))?;
                if spec.job.nodes == 0 {
                    return Err(fail("--nodes wants a positive integer, got '0'"));
                }
            }
            "--records" => {
                let v = need("--records", &mut argv)?;
                spec.job.records = Some(v.parse().map_err(|_| {
                    fail(format!("--records wants a non-negative integer, got '{v}'"))
                })?);
            }
            "--arg" => insert_arg(&mut args, &need("--arg", &mut argv)?)?,
            "--threads" => {
                let v = need("--threads", &mut argv)?;
                let t: u32 = v
                    .parse()
                    .map_err(|_| fail(format!("--threads wants a positive integer, got '{v}'")))?;
                if t == 0 {
                    return Err(fail("--threads wants a positive integer, got '0'"));
                }
                spec.job.threads = Some(t);
            }
            "--no-fuse" => spec.job.no_fuse = true,
            "--no-zerocopy" => spec.job.no_zerocopy = true,
            "--adaptive" => spec.job.adaptive = true,
            "--no-adaptive" => spec.job.adaptive = false,
            "--detach" => spec.detach = true,
            "--shutdown" => spec.shutdown = true,
            "-h" | "--help" => return Err(fail(SUBMIT_USAGE)),
            other => return Err(fail(format!("unknown flag '{other}'\n{SUBMIT_USAGE}"))),
        }
    }
    if spec.socket.is_empty() {
        return Err(fail(format!("--socket is required\n{SUBMIT_USAGE}")));
    }
    if !spec.shutdown {
        for (flag, v) in [
            ("--input-config", &spec.job.input_config),
            ("--workflow", &spec.job.workflow),
            ("--data", &spec.job.data),
            ("--out", &spec.job.out_dir),
        ] {
            if v.is_empty() {
                return Err(fail(format!("{flag} is required\n{SUBMIT_USAGE}")));
            }
        }
    }
    // Sorted for a deterministic wire encoding (the daemon re-sorts for
    // hashing anyway; this keeps repeated submits byte-identical on the
    // wire too).
    let mut pairs: Vec<(String, String)> = args.into_iter().collect();
    pairs.sort();
    spec.job.args = pairs;
    // The daemon resolves paths against *its* working directory;
    // absolutize against ours so `papar submit` behaves like `papar run`
    // regardless of where the daemon was started.
    for p in [
        &mut spec.job.input_config,
        &mut spec.job.workflow,
        &mut spec.job.data,
        &mut spec.job.out_dir,
    ] {
        let path = std::path::Path::new(p.as_str());
        if !p.is_empty() && path.is_relative() {
            if let Ok(cwd) = std::env::current_dir() {
                *p = cwd.join(path).display().to_string();
            }
        }
    }
    Ok(spec)
}

/// Execute a submit: admit the job and either detach or block for the
/// result. Returns the lines to print.
pub fn run_submit(spec: &SubmitSpec) -> Result<String, CliError> {
    let endpoint = papar_serve::Endpoint::parse(&spec.socket);
    let mut client = papar_serve::Client::connect(&endpoint).map_err(|e| fail(e.to_string()))?;
    if spec.shutdown {
        client.shutdown().map_err(|e| fail(e.to_string()))?;
        return Ok("daemon is draining its queue and shutting down".to_string());
    }
    let (id, position) = client
        .submit(spec.job.clone())
        .map_err(|e| fail(e.to_string()))?;
    if spec.detach {
        return Ok(format!(
            "job {id} queued at position {position}\n(`papar status {id} --socket {}` follows it)",
            spec.socket
        ));
    }
    let report = client.wait(id).map_err(|e| fail(e.to_string()))?;
    render_job_report(&report)
}

/// Everything `papar status` needs.
#[derive(Debug, Clone, Default)]
pub struct StatusSpec {
    /// The daemon's socket.
    pub socket: String,
    /// The job to report on; `None` pings the daemon and prints its
    /// lifetime counters instead.
    pub job: Option<u64>,
}

/// Parse `papar status` arguments into a [`StatusSpec`].
pub fn parse_status_args<I: Iterator<Item = String>>(mut argv: I) -> Result<StatusSpec, CliError> {
    let mut spec = StatusSpec::default();
    let need = |flag: &str, it: &mut I| -> Result<String, CliError> {
        it.next()
            .ok_or_else(|| fail(format!("{flag} needs a value")))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--socket" => spec.socket = need("--socket", &mut argv)?,
            "-h" | "--help" => return Err(fail(STATUS_USAGE)),
            other => {
                let id: u64 = other.parse().map_err(|_| {
                    fail(format!("expected a job id, got '{other}'\n{STATUS_USAGE}"))
                })?;
                if spec.job.is_some() {
                    return Err(fail(format!("more than one job id given\n{STATUS_USAGE}")));
                }
                spec.job = Some(id);
            }
        }
    }
    if spec.socket.is_empty() {
        return Err(fail(format!("--socket is required\n{STATUS_USAGE}")));
    }
    Ok(spec)
}

/// Execute a status query. Returns the lines to print.
pub fn run_status(spec: &StatusSpec) -> Result<String, CliError> {
    let endpoint = papar_serve::Endpoint::parse(&spec.socket);
    let mut client = papar_serve::Client::connect(&endpoint).map_err(|e| fail(e.to_string()))?;
    match spec.job {
        Some(id) => {
            let report = client.status(id).map_err(|e| fail(e.to_string()))?;
            render_job_report(&report)
        }
        None => {
            let stats = client.ping().map_err(|e| fail(e.to_string()))?;
            Ok(format!(
                "daemon alive on {}\n\
                 jobs: {} done, {} failed\n\
                 plans: {} resident, {} hit(s), {} miss(es)\n\
                 data: {} hit(s), {} miss(es)",
                spec.socket,
                stats.jobs_done,
                stats.jobs_failed,
                stats.plans_cached,
                stats.plan_hits,
                stats.plan_misses,
                stats.data_hits,
                stats.data_misses,
            ))
        }
    }
}

/// Render a job report the way the daemon's stats deserve: one state
/// line, then the job's own detail (summary + profile table, or the
/// failure). A `Failed` report comes back as `Err` so callers exit 1.
fn render_job_report(report: &papar_serve::JobReport) -> Result<String, CliError> {
    use papar_serve::JobStateKind;
    match report.state {
        JobStateKind::Queued { position } => {
            Ok(format!("job {}: queued at position {position}", report.id))
        }
        JobStateKind::Running => Ok(format!("job {}: running", report.id)),
        JobStateKind::Done => Ok(format!(
            "job {}: done in {} ms\n{}",
            report.id,
            report.wall_ms,
            report.detail.trim_end()
        )),
        JobStateKind::Failed => Err(fail(format!(
            "job {} failed: {}",
            report.id,
            report.detail.trim_end()
        ))),
    }
}

/// Usage text for `papar serve`.
pub const SERVE_USAGE: &str = "\
usage: papar serve --socket <path|tcp:HOST:PORT>
                   [--queue N] [--plan-cache N] [--data-cache N]

Runs the resident partitioning daemon: compiled plans and decoded input
files stay cached between requests (LRU, keyed by the plan fingerprint),
and jobs execute one at a time on a resident cluster — output bytes are
identical to one-shot `papar run`. Submit work with `papar submit`, follow
it with `papar status`. SIGTERM/SIGINT (or `papar submit --shutdown`)
drains the queue and exits cleanly.

  --socket S       Unix socket path, or tcp:HOST:PORT (tcp:127.0.0.1:0
                   picks a free port and prints it)
  --queue N        admission limit on pending jobs; submits beyond it are
                   refused with a typed queue-full error (default 32)
  --plan-cache N   compiled plans kept resident (default 16)
  --data-cache N   decoded input files kept resident (default 8)";

/// Usage text for `papar submit`.
pub const SUBMIT_USAGE: &str = "\
usage: papar submit --socket <path|tcp:HOST:PORT>
                    --input-config <xml> --workflow <xml> --data <file> --out <dir>
                    [--nodes N] [--records N] [--arg key=value]...
                    [--threads N] [--no-fuse] [--no-zerocopy] [--adaptive]
                    [--detach]
       papar submit --socket <path|tcp:HOST:PORT> --shutdown

Submits one partitioning job to a `papar serve` daemon. Without --detach,
blocks until the job completes and prints the same summary `papar run`
would (plus cache verdicts and the profile table); with --detach, prints
the job id immediately. --shutdown asks the daemon to drain and exit.
Paths are resolved against this command's working directory. Exit code 0
on success, 1 when the job fails or the daemon refuses it, 2 on usage
errors.";

/// Usage text for `papar status`.
pub const STATUS_USAGE: &str = "\
usage: papar status [<job-id>] --socket <path|tcp:HOST:PORT>

With a job id: prints the job's state — queue position while queued, or
the completed job's summary, cache verdicts, and per-phase profile table.
Without one: pings the daemon and prints its lifetime counters (jobs,
plan/data cache hits). Exit code 0 on success, 1 when the job failed or
the daemon is unreachable, 2 on usage errors.";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_args_happy_path() {
        let spec = parse_args(
            [
                "--input-config",
                "in.xml",
                "--workflow",
                "wf.xml",
                "--data",
                "d.bin",
                "--out",
                "parts",
                "--nodes",
                "8",
                "--arg",
                "num_partitions=16",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(spec.nodes, 8);
        assert_eq!(spec.args["num_partitions"], "16");
        assert_eq!(spec.out_dir, PathBuf::from("parts"));
    }

    #[test]
    fn parse_args_chaos_flags() {
        let spec = parse_args(
            [
                "--input-config",
                "in.xml",
                "--workflow",
                "wf.xml",
                "--data",
                "d.bin",
                "--out",
                "parts",
                "--faults",
                "crash=1,straggler=2",
                "--fault-seed",
                "99",
                "--replication",
                "2",
                "--max-retries",
                "5",
                "--threads",
                "4",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(spec.faults.as_deref(), Some("crash=1,straggler=2"));
        assert_eq!(spec.fault_seed, 99);
        assert_eq!(spec.replication, 2);
        assert_eq!(spec.max_retries, 5);
        assert_eq!(spec.threads, Some(4));
        // Defaults: no profiling, no trace export.
        assert!(!spec.profile);
        assert!(spec.trace_out.is_none());
        // Defaults: fault-free, no replication, 3 attempts.
        let spec = parse_args(
            [
                "--input-config",
                "a",
                "--workflow",
                "b",
                "--data",
                "c",
                "--out",
                "d",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(spec.faults.is_none());
        assert_eq!(spec.replication, 0);
        assert_eq!(spec.max_retries, 3);
        // Default: let the engine pick its thread count.
        assert!(spec.threads.is_none());
    }

    #[test]
    fn parse_args_observability_flags() {
        let spec = parse_args(
            [
                "--input-config",
                "a",
                "--workflow",
                "b",
                "--data",
                "c",
                "--out",
                "d",
                "--profile",
                "--trace",
                "trace.json",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(spec.profile);
        assert_eq!(spec.trace_out, Some(PathBuf::from("trace.json")));
        // --trace requires a path.
        let e = parse_args(["--trace"].iter().map(|s| s.to_string())).unwrap_err();
        assert!(e.to_string().contains("needs a value"), "{e}");
    }

    #[test]
    fn parse_args_rejects_bad_input() {
        let parse = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--nodes", "x"]).is_err());
        let e = parse(&["--nodes", "0"]).unwrap_err();
        assert!(e.to_string().contains("positive integer"), "{e}");
        assert!(parse(&["--arg", "noequals"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        // Chaos flags validate eagerly.
        let e = parse(&["--faults", "meteor=1"]).unwrap_err();
        assert!(e.to_string().contains("unknown fault kind"), "{e}");
        assert!(parse(&["--fault-seed", "x"]).is_err());
        assert!(parse(&["--replication", "-1"]).is_err());
        let e = parse(&["--max-retries", "0"]).unwrap_err();
        assert!(e.to_string().contains("positive"), "{e}");
        let e = parse(&["--threads", "0"]).unwrap_err();
        assert!(e.to_string().contains("positive"), "{e}");
        assert!(parse(&["--threads", "x"]).is_err());
        // Missing required flags.
        assert!(parse(&[]).is_err());
        let e = parse(&["--input-config", "a", "--workflow", "b", "--data", "c"]).unwrap_err();
        assert!(e.to_string().contains("--out"), "{e}");
    }

    #[test]
    fn parse_args_checkpoint_flags() {
        let base = [
            "--input-config",
            "a",
            "--workflow",
            "b",
            "--data",
            "c",
            "--out",
            "d",
        ];
        let parse =
            |extra: &[&str]| parse_args(base.iter().chain(extra.iter()).map(|s| s.to_string()));
        // Defaults: no checkpointing.
        let spec = parse(&[]).unwrap();
        assert!(spec.checkpoint.is_none());
        assert!(!spec.resume);
        // --checkpoint writes; --resume reads and writes.
        let spec = parse(&["--checkpoint", "run1"]).unwrap();
        assert_eq!(spec.checkpoint, Some(PathBuf::from("run1")));
        assert!(!spec.resume);
        let spec = parse(&["--resume", "run1"]).unwrap();
        assert_eq!(spec.checkpoint, Some(PathBuf::from("run1")));
        assert!(spec.resume);
        // Naming the same dir twice is fine; different dirs conflict.
        let spec = parse(&["--checkpoint", "run1", "--resume", "run1"]).unwrap();
        assert!(spec.resume);
        let e = parse(&["--checkpoint", "run1", "--resume", "run2"]).unwrap_err();
        assert!(e.to_string().contains("different directories"), "{e}");
        let e = parse(&["--resume", "run2", "--checkpoint", "run1"]).unwrap_err();
        assert!(e.to_string().contains("different directories"), "{e}");
        // Both flags need a value.
        assert!(parse_args(["--checkpoint"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_args(["--resume"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn parse_args_no_fuse_flag() {
        let base = [
            "--input-config",
            "a",
            "--workflow",
            "b",
            "--data",
            "c",
            "--out",
            "d",
        ];
        let spec = parse_args(base.iter().map(|s| s.to_string())).unwrap();
        assert!(!spec.no_fuse, "fusion is on by default");
        let with = base.iter().chain(&["--no-fuse"]).map(|s| s.to_string());
        assert!(parse_args(with).unwrap().no_fuse);
    }

    #[test]
    fn parse_args_no_zerocopy_flag() {
        let base = [
            "--input-config",
            "a",
            "--workflow",
            "b",
            "--data",
            "c",
            "--out",
            "d",
        ];
        let spec = parse_args(base.iter().map(|s| s.to_string())).unwrap();
        assert!(
            !spec.no_zerocopy,
            "the zero-copy reduce path is on by default"
        );
        let with = base.iter().chain(&["--no-zerocopy"]).map(|s| s.to_string());
        assert!(parse_args(with).unwrap().no_zerocopy);
    }

    #[test]
    fn parse_plan_args_happy_path() {
        let spec = parse_plan_args(
            [
                "--workflow",
                "wf.xml",
                "--input-config",
                "in.xml",
                "--nodes",
                "8",
                "--arg",
                "num_partitions=16",
                "--no-fuse",
                "--explain",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(spec.workflow, PathBuf::from("wf.xml"));
        assert_eq!(spec.input_configs, vec![PathBuf::from("in.xml")]);
        assert_eq!(spec.nodes, 8);
        assert_eq!(spec.args["num_partitions"], "16");
        assert!(spec.no_fuse);
        assert!(spec.explain);
        // Defaults.
        let spec = parse_plan_args(["--workflow", "w"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(spec.nodes, 4);
        assert!(!spec.no_fuse);
        assert!(!spec.explain);
    }

    #[test]
    fn parse_plan_args_rejects_bad_input() {
        let parse = |v: &[&str]| parse_plan_args(v.iter().map(|s| s.to_string()));
        let e = parse(&[]).unwrap_err();
        assert!(e.to_string().contains("--workflow"), "{e}");
        assert!(parse(&["--workflow", "w", "--nodes", "0"]).is_err());
        assert!(parse(&["--workflow", "w", "--arg", "noequals"]).is_err());
        assert!(parse(&["--workflow", "w", "--bogus"]).is_err());
    }

    #[test]
    fn run_plan_explains_fusion_on_the_blast_example() {
        let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
        let spec = PlanSpec {
            workflow: format!("{configs}/blast_partition.xml").into(),
            input_configs: vec![format!("{configs}/blast_db.xml").into()],
            args: [("num_partitions".to_string(), "8".to_string())]
                .into_iter()
                .collect(),
            explain: true,
            ..Default::default()
        };
        let fused = run_plan(&spec).unwrap();
        assert_eq!((fused.logical_jobs, fused.stages), (2, 1));
        assert!(fused.fused);
        assert!(fused.output.contains("L0+L1"), "{}", fused.output);
        assert!(
            fused.output.contains("streams '/user/sort_output'"),
            "{}",
            fused.output
        );
        let unfused = run_plan(&PlanSpec {
            no_fuse: true,
            ..spec.clone()
        })
        .unwrap();
        assert_eq!((unfused.logical_jobs, unfused.stages), (2, 2));
        assert!(!unfused.fused);
        assert!(unfused.output.contains("--no-fuse"), "{}", unfused.output);
        // The one-line summary without --explain still counts stages.
        let summary = run_plan(&PlanSpec {
            explain: false,
            ..spec
        })
        .unwrap();
        assert!(
            summary
                .output
                .contains("2 logical job(s) -> 1 physical stage(s)"),
            "{}",
            summary.output
        );
    }

    #[test]
    fn parse_check_args_happy_path() {
        let spec = parse_check_args(
            [
                "--workflow",
                "wf.xml",
                "--input-config",
                "a.xml",
                "--input-config",
                "b.xml",
                "--nodes",
                "8",
                "--arg",
                "num_partitions=16",
                "--format",
                "json",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(spec.workflow, PathBuf::from("wf.xml"));
        assert_eq!(spec.input_configs.len(), 2);
        assert_eq!(spec.nodes, Some(8));
        assert!(spec.replication.is_none());
        assert_eq!(spec.args["num_partitions"], "16");
        assert!(spec.json);
    }

    #[test]
    fn parse_check_args_rejects_bad_input() {
        let parse = |v: &[&str]| parse_check_args(v.iter().map(|s| s.to_string()));
        // --workflow is the only required flag.
        let e = parse(&[]).unwrap_err();
        assert!(e.to_string().contains("--workflow"), "{e}");
        assert!(parse(&["--workflow", "w", "--format", "yaml"]).is_err());
        assert!(parse(&["--workflow", "w", "--nodes", "x"]).is_err());
        assert!(parse(&["--workflow", "w", "--arg", "noequals"]).is_err());
        assert!(parse(&["--workflow", "w", "--bogus"]).is_err());
    }

    #[test]
    fn parse_check_args_bounds_flags() {
        let spec = parse_check_args(
            [
                "--workflow",
                "wf.xml",
                "--bounds",
                "--records",
                "1000",
                "--distinct-keys",
                "7",
                "--skew-ratio",
                "2.5",
                "--deny-warnings",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(spec.bounds);
        assert!(spec.deny_warnings);
        assert_eq!(spec.records, Some(1000));
        assert_eq!(spec.distinct_keys, Some(7));
        assert_eq!(spec.skew_ratio, Some(2.5));
        // Defaults: bounds analysis and warning promotion are opt-in.
        let spec = parse_check_args(["--workflow", "w"].iter().map(|s| s.to_string())).unwrap();
        assert!(!spec.bounds);
        assert!(!spec.deny_warnings);
        assert!(spec.skew_ratio.is_none());
        assert!(spec.distinct_keys.is_none());
        // Ratios below 1 or non-numeric are rejected.
        let parse = |v: &[&str]| parse_check_args(v.iter().map(|s| s.to_string()));
        assert!(parse(&["--workflow", "w", "--skew-ratio", "0.5"]).is_err());
        assert!(parse(&["--workflow", "w", "--skew-ratio", "x"]).is_err());
        assert!(parse(&["--workflow", "w", "--distinct-keys", "x"]).is_err());
    }

    #[test]
    fn run_check_bounds_prints_the_stage_table_on_fig8() {
        let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
        let spec = CheckSpec {
            workflow: format!("{configs}/blast_partition.xml").into(),
            input_configs: vec![format!("{configs}/blast_db.xml").into()],
            nodes: Some(4),
            records: Some(1000),
            args: [("num_partitions".to_string(), "8".to_string())]
                .into_iter()
                .collect(),
            bounds: true,
            ..Default::default()
        };
        let report = run_check(&spec).unwrap();
        assert_eq!(report.errors, 0, "{}", report.output);
        // The per-stage table shows the fused stage with exact counts.
        assert!(report.output.contains("max-load"), "{}", report.output);
        assert!(report.output.contains("sort+distr"), "{}", report.output);
        assert!(report.output.contains("1000"), "{}", report.output);
    }

    #[test]
    fn run_check_deny_warnings_promotes_to_errors() {
        let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
        let base = CheckSpec {
            workflow: format!("{configs}/blast_partition.xml").into(),
            input_configs: vec![format!("{configs}/blast_db.xml").into()],
            nodes: Some(4),
            records: Some(1000),
            args: [("num_partitions".to_string(), "8".to_string())]
                .into_iter()
                .collect(),
            ..Default::default()
        };
        // Fig 8 is warnings-only (W004 + W006): exit would be 0.
        let report = run_check(&base).unwrap();
        assert_eq!(report.errors, 0, "{}", report.output);
        assert!(report.warnings > 0, "{}", report.output);
        // --deny-warnings flips the same findings to error severity.
        let strict = CheckSpec {
            deny_warnings: true,
            ..base
        };
        let report = run_check(&strict).unwrap();
        assert_eq!(report.warnings, 0, "{}", report.output);
        assert!(report.errors > 0, "{}", report.output);
        assert!(report.output.contains("error[W0"), "{}", report.output);
    }

    #[test]
    fn run_plan_explain_appends_the_bounds_table() {
        let configs = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
        let spec = PlanSpec {
            workflow: format!("{configs}/blast_partition.xml").into(),
            input_configs: vec![format!("{configs}/blast_db.xml").into()],
            args: [("num_partitions".to_string(), "8".to_string())]
                .into_iter()
                .collect(),
            explain: true,
            records: Some(640),
            ..Default::default()
        };
        let report = run_plan(&spec).unwrap();
        assert!(report.output.contains("static bounds"), "{}", report.output);
        assert!(report.output.contains("max-load"), "{}", report.output);
        assert!(report.output.contains("640"), "{}", report.output);
        // Without --records the table still prints, with ? for unknowns.
        let report = run_plan(&PlanSpec {
            records: None,
            ..spec
        })
        .unwrap();
        assert!(report.output.contains("[0, ?]"), "{}", report.output);
    }

    #[test]
    fn run_check_reports_errors_without_reading_data() {
        let dir = std::env::temp_dir().join(format!("papar-check-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wf = dir.join("wf.xml");
        std::fs::write(
            &wf,
            r#"<workflow id="w" name="n">
  <operators>
    <operator id="s" operator="Sort">
      <param name="inputPath" type="String" value="$missing"/>
      <param name="outputPath" type="String" value="/out"/>
      <param name="key" type="KeyId" value="k"/>
    </operator>
  </operators>
</workflow>"#,
        )
        .unwrap();
        let spec = CheckSpec {
            workflow: wf,
            ..Default::default()
        };
        let report = run_check(&spec).unwrap();
        assert!(report.errors > 0);
        assert!(report.output.contains("P001"), "{}", report.output);
        // JSON mode round-trips through the parser.
        let json_spec = CheckSpec { json: true, ..spec };
        let report = run_check(&json_spec).unwrap();
        assert!(papar_check::json::from_json(&report.output).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn missing_files_are_reported_with_paths() {
        let spec = RunSpec {
            input_config: "/nonexistent/in.xml".into(),
            workflow: "/nonexistent/wf.xml".into(),
            data: "/nonexistent/d".into(),
            out_dir: std::env::temp_dir(),
            nodes: 2,
            args: HashMap::new(),
            records: None,
            ..Default::default()
        };
        let e = run(&spec).unwrap_err();
        assert!(e.to_string().contains("/nonexistent/in.xml"), "{e}");
    }
}
