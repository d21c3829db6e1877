//! Executing one submitted job on the daemon's resident state.
//!
//! [`execute`] is `papar run`'s pipeline — read, check, plan, verify,
//! lower, scatter, run, take, write — with the expensive stages
//! routed through the resident caches and the resident cluster. Every
//! step calls the *same* engine functions in the *same* order with the
//! *same* options as `crates/cli`'s one-shot path, so a served job's
//! partition files are byte-identical to `papar run`'s; the CI `serve`
//! job `cmp`s them to keep that true.

use crate::cache::{CachedPlan, DataCache, DataKey, PlanCache};
use crate::protocol::JobSpec;
use crate::queue::JobOutcome;
use papar_config::input::InputFormat;
use papar_config::{InputConfig, WorkflowConfig};
use papar_core::exec::{plan_fingerprint_with, ExecOptions, WorkflowRunner};
use papar_core::plan::Planner;
use papar_mr::{Cluster, RetryPolicy};
use papar_record::batch::{Batch, Dataset};
use papar_record::{wire, Record, Schema};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Everything the worker thread keeps alive between jobs.
pub struct Resources {
    /// The resident cluster; rebuilt only when a request asks for a
    /// different node count, [`Cluster::reset`] otherwise.
    pub cluster: Option<Cluster>,
    /// Compiled plans by fingerprint.
    pub plans: PlanCache,
    /// Decoded input files.
    pub data: DataCache,
    /// The validated startup thread budget, used when a job does not
    /// override `--threads`. Pinning it per job keeps one request's
    /// override from leaking into the next on the reused cluster.
    pub default_threads: usize,
}

impl Resources {
    /// Fresh resources with the given cache capacities.
    pub fn new(plan_cap: usize, data_cap: usize, default_threads: usize) -> Resources {
        Resources {
            cluster: None,
            plans: PlanCache::new(plan_cap),
            data: DataCache::new(data_cap),
            default_threads: default_threads.max(1),
        }
    }
}

/// Read an input data file per its configuration — the loader `papar
/// run` and the daemon share. Binary files may carry payload beyond the
/// record region: `records` bounds the region explicitly; otherwise the
/// longest whole-record prefix after `start_position` is read (the
/// paper's "treat every 16 bytes as an entry" reading of Figure 4). Only
/// the header and the record region are read from disk.
pub fn load_records(
    cfg: &InputConfig,
    schema: &Schema,
    path: &Path,
    records: Option<usize>,
) -> Result<Vec<Record>, String> {
    let cannot_read = |e: std::io::Error| format!("cannot read {}: {e}", path.display());
    match cfg.format {
        InputFormat::Binary => {
            let file = File::open(path).map_err(cannot_read)?;
            let len = file.metadata().map_err(cannot_read)?.len();
            let width = schema
                .binary_record_width()
                .ok_or_else(|| "binary schema has variable-width fields".to_string())?;
            let start = cfg.start_position;
            if len < start {
                return Err(format!(
                    "{} is shorter than start_position {start}",
                    path.display()
                ));
            }
            let available = len - start;
            let region = match records {
                Some(n) => {
                    let need = (n as u64).saturating_mul(width as u64);
                    if available < need {
                        return Err(format!(
                            "--records {n} wants {need} bytes after the header, file has {available}"
                        ));
                    }
                    need
                }
                None => available / width as u64 * width as u64,
            };
            let want = start + region;
            let mut bytes = Vec::with_capacity(
                usize::try_from(want)
                    .map_err(|_| format!("{} is too large to read", path.display()))?,
            );
            file.take(want)
                .read_to_end(&mut bytes)
                .map_err(cannot_read)?;
            if (bytes.len() as u64) < want {
                return Err(format!(
                    "{} shrank while being read: wanted {want} bytes, got {}",
                    path.display(),
                    bytes.len()
                ));
            }
            papar_record::codec::binary::read(cfg, schema, &bytes).map_err(|e| e.to_string())
        }
        InputFormat::Text => {
            let text = std::fs::read_to_string(path).map_err(cannot_read)?;
            papar_record::codec::text::read(cfg, schema, &text).map_err(|e| e.to_string())
        }
    }
}

/// Write each output partition to `out_dir` (created if missing) in the
/// input's on-disk format, as `partition_{i:04}.bin` or `.txt` in
/// partition order — the writer `papar run` and the daemon share. Each
/// partition is consumed and freed once its file is written.
pub fn write_partitions(
    input_cfg: &InputConfig,
    partitions: Vec<Dataset>,
    out_dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let mut files = Vec::with_capacity(partitions.len());
    for (i, part) in partitions.into_iter().enumerate() {
        let records = part.batch.flatten();
        let (path, bytes) = match input_cfg.format {
            InputFormat::Binary => (
                out_dir.join(format!("partition_{i:04}.bin")),
                papar_record::codec::binary::write(input_cfg, &part.schema, &records, None)
                    .map_err(|e| e.to_string())?,
            ),
            InputFormat::Text => (
                out_dir.join(format!("partition_{i:04}.txt")),
                papar_record::codec::text::write(input_cfg, &part.schema, &records)
                    .map_err(|e| e.to_string())?
                    .into_bytes(),
            ),
        };
        std::fs::write(&path, bytes)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        files.push(path);
    }
    Ok(files)
}

/// Hash of the raw request: everything that decides what planning would
/// produce *and* what the static-analysis gate would say. The effective
/// arguments (with the conventional `input_path`/`output_path`
/// defaults) are a pure function of the workflow text, the given args,
/// and the data/out paths — all hashed here — so a spec-hash hit is
/// safe to serve without re-deriving them. The data file's size and
/// mtime are included because the gate's record-count checks read the
/// data; a changed file must re-plan.
fn spec_hash(spec: &JobSpec, cfg_text: &str, wf_text: &str, len: u64, mtime_ns: u128) -> u64 {
    let mut canon = String::new();
    let _ = writeln!(canon, "input_config:\n{cfg_text}");
    let _ = writeln!(canon, "workflow:\n{wf_text}");
    let _ = writeln!(canon, "data={} len={len} mtime={mtime_ns}", spec.data);
    let _ = writeln!(canon, "out={}", spec.out_dir);
    let _ = writeln!(canon, "nodes={}", spec.nodes);
    let mut args: Vec<&(String, String)> = spec.args.iter().collect();
    args.sort();
    for (k, v) in args {
        let _ = writeln!(canon, "arg {k}={v}");
    }
    let _ = writeln!(canon, "records={:?}", spec.records);
    let _ = writeln!(canon, "fuse={}", !spec.no_fuse);
    let _ = writeln!(canon, "adaptive={}", spec.adaptive);
    wire::checksum(canon.as_bytes())
}

/// Compile a job's plan the way `papar run` does: parse both documents,
/// derive the effective arguments, run the static-analysis gate, bind,
/// verify, lower, verify again.
fn compile_plan(
    spec: &JobSpec,
    cfg_text: &str,
    wf_text: &str,
    records: &[Record],
    options: &ExecOptions,
) -> Result<CachedPlan, String> {
    let records_in = records.len();
    let input_cfg =
        InputConfig::parse_str(cfg_text).map_err(|e| format!("{}: {e}", spec.input_config))?;
    let workflow =
        WorkflowConfig::parse_str(wf_text).map_err(|e| format!("{}: {e}", spec.workflow))?;

    let mut args: HashMap<String, String> = spec.args.iter().cloned().collect();
    for name in ["input_path", "input_file"] {
        if workflow.argument(name).is_some() && !args.contains_key(name) {
            args.insert(name.to_string(), spec.data.clone());
        }
    }
    for name in ["output_path"] {
        if workflow.argument(name).is_some() && !args.contains_key(name) {
            args.insert(name.to_string(), spec.out_dir.clone());
        }
    }

    let ctx = papar_check::CheckContext {
        args: args.clone(),
        nodes: Some(spec.nodes as usize),
        replication: Some(0),
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
        return Err(format!(
            "{} rejected by static analysis:\n{rendered}(`papar check` re-runs this \
             analysis standalone)",
            spec.workflow
        ));
    }
    let warnings: Vec<String> = analysis.diagnostics.iter().map(|d| d.to_string()).collect();

    let planner = Planner::new(workflow, vec![input_cfg.clone()]);
    let plan = planner.bind(&args).map_err(|e| e.to_string())?;
    let divergences = papar_check::verify_plan(&analysis, &plan);
    if !divergences.is_empty() {
        return Err(format!(
            "plan-invariant verification failed:\n{}",
            papar_check::render_text(&divergences)
        ));
    }
    if plan.external_inputs.len() != 1 {
        return Err(format!(
            "the workflow expects {} external inputs; a submit provides exactly one (--data)",
            plan.external_inputs.len()
        ));
    }
    let input_name = plan.external_inputs[0].0.clone();

    // Adaptive planning: run the sampling pre-pass over the loaded
    // records and let the cost-based planner pick the knobs; the
    // decision travels with the cached plan and its rationale is folded
    // into the fingerprint below.
    let decision = if spec.adaptive {
        let batch = Batch::Flat(records.to_vec());
        let stats = papar_core::stats::collect_for_plan(
            &plan,
            |name| (name == input_name).then_some(&batch),
            options.sample_stride,
        )
        .map_err(|e| e.to_string())?;
        Some(papar_core::adaptive::choose(
            &plan,
            spec.nodes as usize,
            options,
            stats.as_ref(),
        ))
    } else {
        None
    };

    let toggles = decision
        .as_ref()
        .map(|d| d.knobs().fuse)
        .unwrap_or_else(|| papar_core::physplan::FuseToggles::from_flag(!spec.no_fuse));
    let phys = papar_core::physplan::lower_with(&plan, spec.nodes as usize, None, toggles);
    let divergences = papar_check::verify_physical_plan(&plan, &phys, spec.nodes as usize, None);
    if !divergences.is_empty() {
        return Err(format!(
            "physical-plan verification failed:\n{}",
            papar_check::render_text(&divergences)
        ));
    }
    let num_jobs = plan.jobs.len();
    let fingerprint = plan_fingerprint_with(
        &plan,
        &phys,
        spec.nodes as usize,
        options,
        decision.as_ref().map(|d| &d.rationale),
    );
    let schema = Arc::new(Schema::from_input_config(&input_cfg));
    Ok(CachedPlan {
        plan,
        phys,
        input_cfg,
        schema,
        warnings,
        input_name,
        num_jobs,
        fingerprint,
        decision,
    })
}

/// Run one job on the resident state. Returns the rendered outcome or
/// the failure message; never panics — any error travels back to the
/// client as the job's `Failed` detail.
pub fn execute(spec: &JobSpec, res: &mut Resources) -> Result<JobOutcome, String> {
    let started = Instant::now();
    if spec.nodes == 0 {
        return Err("--nodes must be at least 1".to_string());
    }
    let cfg_text = std::fs::read_to_string(&spec.input_config)
        .map_err(|e| format!("cannot read {}: {e}", spec.input_config))?;
    let wf_text = std::fs::read_to_string(&spec.workflow)
        .map_err(|e| format!("cannot read {}: {e}", spec.workflow))?;
    let meta =
        std::fs::metadata(&spec.data).map_err(|e| format!("cannot stat {}: {e}", spec.data))?;
    let mtime_ns = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map(|d| d.as_nanos())
        .unwrap_or(0);

    // Thread budget resolution happens here, not in ExecOptions::default,
    // so a request without an override cannot inherit the previous
    // request's setting from the reused cluster.
    let threads = spec
        .threads
        .map(|t| t as usize)
        .unwrap_or(res.default_threads)
        .max(1);
    let options = ExecOptions {
        threads: Some(threads),
        trace: true,
        fuse: !spec.no_fuse,
        zerocopy: !spec.no_zerocopy,
        adaptive: spec.adaptive,
        ..ExecOptions::default()
    };

    // Data first (the analysis gate inside planning needs the record
    // count): resident when the same file (same size/mtime/bound/
    // config) was decoded before.
    let data_misses_before = res.data.misses;
    let records = load_data(spec, &cfg_text, res, meta.len(), mtime_ns)?;
    let data_cache_hit = res.data.misses == data_misses_before;
    let records_in = records.len();

    // Plan: resident on a repeated request, compiled fresh otherwise.
    let shash = spec_hash(spec, &cfg_text, &wf_text, meta.len(), mtime_ns);
    let (cached, plan_cache_hit) = match res.plans.get_by_spec(shash) {
        Some(cached) => (cached, true),
        None => {
            let cached = Arc::new(compile_plan(spec, &cfg_text, &wf_text, &records, &options)?);
            res.plans.insert(shash, cached.clone());
            (cached, false)
        }
    };

    // Cluster: reuse unless the node count changed; reset wipes data,
    // traces, and fault state but keeps the thread budget.
    let rebuild = !matches!(&res.cluster, Some(c) if c.num_nodes() == spec.nodes as usize);
    if rebuild {
        res.cluster = Some(
            Cluster::try_new(spec.nodes as usize)
                .map_err(|e| e.to_string())?
                .with_replication(0)
                .with_retry(RetryPolicy {
                    max_attempts: 3,
                    ..RetryPolicy::default()
                }),
        );
    }
    let cluster = res.cluster.as_mut().expect("cluster just ensured");
    if !rebuild {
        cluster.reset();
    }

    let mut runner = WorkflowRunner::with_options(cached.plan.clone(), options);
    if let Some(d) = cached.decision.clone() {
        runner = runner.with_decision(d);
    }
    runner
        .scatter_input(
            cluster,
            &cached.input_name,
            Dataset::new(cached.schema.clone(), Batch::Flat((*records).clone())),
        )
        .map_err(|e| e.to_string())?;
    let report = runner.run(cluster).map_err(|e| e.to_string())?;

    // Write each output partition with `papar run`'s writer.
    let partitions = cluster
        .take(&runner.plan().output_path)
        .map_err(|e| e.to_string())?;
    let files = write_partitions(&cached.input_cfg, partitions, Path::new(&spec.out_dir))?;

    // Render the report the way `papar run` prints its summary, plus
    // the cache verdicts and the profile table from this request's
    // span tree.
    let mut detail = String::new();
    for w in &cached.warnings {
        let _ = writeln!(detail, "{w}");
    }
    let _ = writeln!(detail, "read {records_in} records from {}", spec.data);
    let _ = writeln!(
        detail,
        "plan {:#018x}: cache {}",
        cached.fingerprint,
        if plan_cache_hit { "hit" } else { "miss" }
    );
    let _ = writeln!(
        detail,
        "data {}: cache {}",
        spec.data,
        if data_cache_hit { "hit" } else { "miss" }
    );
    if let Some(d) = &cached.decision {
        detail.push_str(&d.rationale.render());
    }
    for note in &report.notes {
        let _ = writeln!(detail, "note: {note}");
    }
    for stats in &report.jobs {
        let _ = writeln!(
            detail,
            "job '{}': {:?} simulated, {} bytes shuffled",
            stats.name,
            stats.sim_time(),
            stats.exchange.remote_bytes
        );
    }
    let _ = writeln!(
        detail,
        "total simulated partitioning time: {:?}",
        report.total_sim_time()
    );
    let _ = writeln!(detail, "wrote {} partitions:", files.len());
    for f in &files {
        let _ = writeln!(detail, "  {}", f.display());
    }
    if let Some(trace) = &report.trace {
        detail.push_str(&papar_trace::render_profile(trace));
    }

    Ok(JobOutcome {
        detail,
        plan_fingerprint: cached.fingerprint,
        plan_cache_hit,
        data_cache_hit,
        wall_ms: started.elapsed().as_millis() as u64,
        sim_ns: report.total_sim_time().as_nanos() as u64,
    })
}

/// Fetch the decoded input through the data cache. A miss parses the
/// input config (cheap — a page of XML) and decodes the file; the
/// expensive decode is what the cache elides.
fn load_data(
    spec: &JobSpec,
    cfg_text: &str,
    res: &mut Resources,
    len: u64,
    mtime_ns: u128,
) -> Result<Arc<Vec<Record>>, String> {
    let key = DataKey {
        path: spec.data.clone(),
        len,
        mtime_ns,
        records: spec.records,
        config_hash: wire::checksum(cfg_text.as_bytes()),
    };
    if let Some(records) = res.data.get(&key) {
        return Ok(records);
    }
    let cfg =
        InputConfig::parse_str(cfg_text).map_err(|e| format!("{}: {e}", spec.input_config))?;
    let schema = Arc::new(Schema::from_input_config(&cfg));
    let records = Arc::new(load_records(
        &cfg,
        &schema,
        Path::new(&spec.data),
        spec.records.map(|n| n as usize),
    )?);
    res.data.insert(key, records.clone());
    Ok(records)
}
