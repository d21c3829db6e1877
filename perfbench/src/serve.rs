//! `serve_warm_mix`: one client in a closed loop against a resident
//! in-process daemon over loopback TCP, cycling through small Fig 8 and
//! Fig 10 requests whose plans and inputs the daemon's caches hold.

use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use papar_serve::protocol::{CacheOutcome, Endpoint, JobReport, JobStateKind};
use papar_serve::{Client, JobSpec, ServeError, ServeOptions, Server};

use crate::report::{median, ms, peak_rss_mb, windowed_p90, Outcome, Tally, MAX_FAILED, MIN_JOBS};
use crate::workload::{digest_dir, Oracle, Shape, Workload};

/// Daemon start-ups timed per run; their median is the set-up time.
const SETUPS: usize = 5;

type Daemon = (Client, JoinHandle<Result<(), ServeError>>);

fn start_daemon() -> Result<Daemon, String> {
    let server = Server::bind(ServeOptions {
        endpoint: Endpoint::Tcp("127.0.0.1:0".to_string()),
        ..ServeOptions::default()
    })
    .map_err(|e| e.to_string())?;
    let endpoint = server.endpoint().clone();
    let handle = std::thread::spawn(move || server.run());
    let client = Client::connect(&endpoint).map_err(|e| e.to_string())?;
    Ok((client, handle))
}

fn stop_daemon((mut client, handle): Daemon) -> Result<(), String> {
    client.shutdown().map_err(|e| e.to_string())?;
    handle
        .join()
        .map_err(|_| "the daemon thread panicked".to_string())?
        .map_err(|e| e.to_string())
}

/// Bytes shuffled, as the job report's per-job lines state them.
fn shuffled_bytes(detail: &str) -> u64 {
    detail
        .lines()
        .filter(|l| l.starts_with("job '"))
        .filter_map(|l| l.strip_suffix(" bytes shuffled"))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// One completed request, as the client saw it.
struct Request {
    shape: usize,
    rtt: Duration,
    shuffle_bytes: u64,
    report: JobReport,
}

/// The client side of the loop: submits one shape's spec, waits for it,
/// and checks its partitions and shuffle volume against the oracle.
struct Mix<'a> {
    work: &'a Path,
    shapes: Vec<Shape>,
    specs: Vec<JobSpec>,
    oracles: Vec<Oracle>,
}

impl<'a> Mix<'a> {
    fn new(workload: Workload, work: &'a Path, threads: usize) -> Result<Mix<'a>, String> {
        let shapes = workload.shapes(work);
        Ok(Mix {
            work,
            specs: shapes.iter().map(|s| s.job_spec(work, threads)).collect(),
            oracles: shapes
                .iter()
                .map(|s| Oracle::load(work, s.name))
                .collect::<Result<_, _>>()?,
            shapes,
        })
    }

    /// Start a daemon and warm both caches with one request of each shape.
    fn warm_daemon(&self, tally: &mut Tally) -> Result<Daemon, String> {
        let (mut client, handle) = start_daemon()?;
        for (i, spec) in self.specs.iter().enumerate() {
            tally.record(self.submit(&mut client, i, spec));
        }
        Ok((client, handle))
    }

    fn submit(&self, client: &mut Client, shape: usize, spec: &JobSpec) -> Result<Request, String> {
        let _ = std::fs::remove_dir_all(self.shapes[shape].out_dir(self.work));
        let t0 = Instant::now();
        let (id, _) = client.submit(spec.clone()).map_err(|e| e.to_string())?;
        let report = client.wait(id).map_err(|e| e.to_string())?;
        let rtt = t0.elapsed();
        self.check(shape, rtt, report)
    }

    fn check(&self, shape: usize, rtt: Duration, report: JobReport) -> Result<Request, String> {
        let name = self.shapes[shape].name;
        if report.state != JobStateKind::Done {
            return Err(format!(
                "{name}: job ended {:?}: {}",
                report.state, report.detail
            ));
        }
        let oracle = &self.oracles[shape];
        if digest_dir(&self.shapes[shape].out_dir(self.work))? != oracle.files {
            return Err(format!("{name}: partitions differ from the one-shot run"));
        }
        let shuffle_bytes = shuffled_bytes(&report.detail);
        if shuffle_bytes != oracle.shuffle_bytes {
            return Err(format!(
                "{name}: shuffled {shuffle_bytes} bytes, the one-shot run {}",
                oracle.shuffle_bytes
            ));
        }
        Ok(Request {
            shape,
            rtt,
            shuffle_bytes,
            report,
        })
    }
}

/// Run a warmed daemon through one cycle of the mix in this process,
/// which must be fresh, and return the process's resident-set high-water
/// mark.
pub fn single_cycle(workload: Workload, work: &Path, threads: usize) -> Result<f64, String> {
    let mix = Mix::new(workload, work, threads)?;
    let mut tally = Tally::default();
    let (mut client, handle) = mix.warm_daemon(&mut tally)?;
    for &shape in workload.cycle() {
        tally.record(mix.submit(&mut client, shape, &mix.specs[shape]));
    }
    stop_daemon((client, handle))?;
    match tally.errors.pop() {
        Some(e) => Err(e),
        None => peak_rss_mb(),
    }
}

/// Measure `serve_warm_mix`. Untraced, this gives the end-to-end
/// metrics; traced, the per-layer ones. Both time the same client calls:
/// the daemon's layers cannot be called from outside it, so the traced
/// run adds no spans and reads the layers from the daemon's reports.
pub fn measure(
    workload: Workload,
    work: &Path,
    seconds: f64,
    threads: usize,
    traced: bool,
) -> Result<Outcome, String> {
    let mix = Mix::new(workload, work, threads)?;
    let mut tally = Tally::default();

    // Set-up: start the daemon and warm both caches with one request of
    // each shape, several times; the last daemon stays up.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            stop_daemon(d)?;
        }
        let t0 = Instant::now();
        daemon = Some(mix.warm_daemon(&mut tally)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (mut client, handle) = daemon.expect("at least one set-up");

    let cycle = workload.cycle();
    let mut measured = Vec::new();
    // Records over client wall, per cycle whose requests all succeeded.
    let mut cycle_rates = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds || measured.len() < MIN_JOBS {
        let done = measured.len();
        for &shape in cycle {
            measured.extend(tally.record(mix.submit(&mut client, shape, &mix.specs[shape])));
        }
        let this_cycle = &measured[done..];
        if this_cycle.len() == cycle.len() {
            let records: usize = this_cycle
                .iter()
                .map(|r| mix.oracles[r.shape].records)
                .sum();
            let wall: f64 = this_cycle.iter().map(|r| r.rtt.as_secs_f64()).sum();
            cycle_rates.push(records as f64 / wall);
        }
        if tally.failed > MAX_FAILED {
            break;
        }
    }

    // Thread-count invariance: the same requests at one engine thread.
    for (i, spec) in mix.specs.iter().enumerate() {
        let single = JobSpec {
            threads: Some(1),
            ..spec.clone()
        };
        tally.record(mix.submit(&mut client, i, &single));
    }
    let stats = client.ping().map_err(|e| e.to_string());
    stop_daemon((client, handle))?;
    let stats = stats?;

    let mut out = Outcome::from_tally(tally);
    if stats.jobs_failed > 0 {
        out.problem(format!("the daemon failed {} jobs", stats.jobs_failed));
    }
    // Bytes one cycle shuffles, as the measured requests' reports state
    // them (the reports carry no message count).
    let cycle_shuffle: f64 = cycle
        .iter()
        .filter_map(|&s| measured.iter().find(|r| r.shape == s))
        .map(|r| r.shuffle_bytes as f64)
        .sum();
    let rtt: Vec<f64> = measured.iter().map(|r| ms(r.rtt)).collect();
    if traced {
        let server: Vec<f64> = measured.iter().map(|r| r.report.wall_ms as f64).collect();
        let wait: Vec<f64> = rtt.iter().zip(&server).map(|(r, s)| r - s).collect();
        let ratio = |hit: &dyn Fn(&Request) -> bool| {
            measured.iter().filter(|r| hit(r)).count() as f64 / measured.len().max(1) as f64
        };
        out.metric("serve.rtt_ms", median(&rtt), "ms");
        out.metric("serve.server_ms", median(&server), "ms");
        out.metric("serve.wait_ms", median(&wait), "ms");
        out.metric(
            "serve.plan_hit_ratio",
            ratio(&|r| r.report.plan_cache == CacheOutcome::Hit),
            "ratio",
        );
        out.metric(
            "serve.data_hit_ratio",
            ratio(&|r| r.report.data_cache == CacheOutcome::Hit),
            "ratio",
        );
        out.metric("exchange.bytes", cycle_shuffle, "bytes");
    } else {
        out.metric("records_per_s", median(&cycle_rates), "1/s");
        out.metric("job_p50_ms", median(&rtt), "ms");
        out.metric("job_p90_ms", windowed_p90(&rtt), "ms");
        out.metric(
            "sim_makespan_ms",
            median(
                &measured
                    .iter()
                    .map(|r| r.report.sim_ns as f64 / 1e6)
                    .collect::<Vec<_>>(),
            ),
            "ms",
        );
        out.metric("shuffle_bytes", cycle_shuffle, "bytes");
    }
    out.note(format!(
        "requests measured: {} ({} per cycle)",
        measured.len(),
        cycle.len()
    ));
    out.metric("setup_daemon_s", median(&setups), "s");
    Ok(out)
}
