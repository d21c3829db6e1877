//! The papar file-to-files benchmark binary. `run.py` drives it:
//!
//! ```text
//! perfbench setup    --workload W --seed N --work DIR --repeat K
//! perfbench measure  --workload W --work DIR --seconds S --trace 0|1
//! perfbench job      --workload W --work DIR
//! perfbench generate --workload W --seed N --work DIR --repeat K
//! ```
//!
//! `setup` generates the workload's input files into DIR at least K
//! times (more while generation is cheap) and prints every generation
//! time; then, untimed, it syncs the files and computes the oracle
//! digests. `generate` only repeats the timed generations: `run.py` calls
//! it again after measuring, so that set-up is sampled at two moments of
//! the run, not in one window of a few seconds. `measure` runs the
//! workload for S seconds over those files and prints one JSON object:
//! the end-to-end metrics untraced, the per-layer metrics traced. `job`
//! runs one checked job (for the daemon: a warmed daemon serving one cycle
//! of the mix) and prints the process's peak resident set in MiB.

mod oneshot;
mod report;
mod serve;
mod span;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use workload::Workload;

/// `setup` and `generate` generate the inputs again while the generations
/// so far took less than this many seconds, up to [`MAX_SETUPS`] times:
/// the median of a cheap generation is then taken over more samples.
const SETUP_SECONDS: f64 = 1.5;
const MAX_SETUPS: usize = 25;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    work: PathBuf,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("missing command (setup, generate, measure or job)")?;
    let mut workload = None;
    let mut seed = 0;
    let mut work = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut repeat = 1;
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--work" => work = Some(PathBuf::from(&value)),
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value == "1",
            "--repeat" => repeat = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("missing --workload")?,
        seed,
        work: work.ok_or("missing --work")?,
        seconds,
        trace,
        repeat: repeat.max(1),
    })
}

/// Generate the inputs into a fresh work directory at least `--repeat`
/// times, syncing them after each timed generation; returns the times.
fn time_generations(args: &Args) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    while times.len() < args.repeat
        || (times.iter().sum::<f64>() < SETUP_SECONDS && times.len() < MAX_SETUPS)
    {
        let _ = std::fs::remove_dir_all(&args.work);
        let t0 = Instant::now();
        let written = workload::generate(args.workload, args.seed, &args.work)?;
        times.push(t0.elapsed().as_secs_f64());
        workload::sync(&written)?;
    }
    Ok(times)
}

fn run(args: &Args) -> Result<String, String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    match args.command.as_str() {
        "setup" => {
            let times = time_generations(args)?;
            workload::make_oracles(args.workload, args.seed, &args.work)?;
            Ok(format!("{{\"setup_times\": {times:?}}}"))
        }
        "generate" => {
            let times = time_generations(args)?;
            Ok(format!("{{\"setup_times\": {times:?}}}"))
        }
        "measure" => {
            let mut out = match (args.workload, args.trace) {
                (Workload::ServeWarmMix, trace) => {
                    serve::measure(args.workload, &args.work, args.seconds, threads, trace)?
                }
                (w, false) => oneshot::measure(w, &args.work, args.seconds, threads)?,
                (w, true) => oneshot::measure_traced(w, &args.work, args.seconds, threads)?,
            };
            out.note(format!("engine threads: {threads}"));
            Ok(out.to_json())
        }
        "job" => {
            let peak = match args.workload {
                Workload::ServeWarmMix => serve::single_cycle(args.workload, &args.work, threads)?,
                w => oneshot::single_job(w, &args.work, threads)?,
            };
            Ok(peak.to_string())
        }
        other => Err(format!("unknown command {other}")),
    }
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
