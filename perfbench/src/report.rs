//! Job accounting, summary statistics and the JSON line a measurement
//! prints for `run.py`.

use std::time::Duration;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// This process's resident-set high-water mark in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Fewest jobs a measured run holds, whatever its length: across the
/// [`P90_WINDOWS`] windows of [`windowed_p90`] at least ten samples then
/// lie beyond the 90th percentile.
pub const MIN_JOBS: usize = 100;

/// Consecutive windows a run's jobs are split into for [`windowed_p90`].
pub const P90_WINDOWS: usize = 5;

/// A measurement stops early once more jobs than this have failed: its
/// result is incorrect anyway.
pub const MAX_FAILED: u64 = 3;

/// The 90th percentile by nearest rank; 0 when empty.
fn p90(values: &[f64]) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (0.9 * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median over [`P90_WINDOWS`] consecutive, equally sized windows of
/// `values` (in the order the jobs finished) of each window's 90th
/// percentile. The host this runs on slows down for a minute or two at a
/// time; a p90 over the whole run then jumps with the share of the run
/// such a spell covers, while the median window ignores a spell that
/// covers at most two windows. A tail that every window has still shows.
pub fn windowed_p90(values: &[f64]) -> f64 {
    let n = values.len();
    let windows: Vec<f64> = (0..P90_WINDOWS)
        .map(|w| &values[w * n / P90_WINDOWS..(w + 1) * n / P90_WINDOWS])
        .filter(|window| !window.is_empty())
        .map(p90)
        .collect();
    median(&windows)
}

/// Jobs attempted and failed. A failed job is one that returned an error
/// or whose output did not match the oracle; it never stops the run.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record<T>(&mut self, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 5 {
                    self.errors.push(e);
                }
                None
            }
        }
    }
}

/// The result of one measurement.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    /// Failed consistency checks; any one makes the result incorrect.
    problems: Vec<String>,
    /// Context printed with the result (sample counts, check margins).
    notes: Vec<String>,
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    pub fn from_tally(tally: Tally) -> Outcome {
        Outcome {
            attempted: tally.attempted,
            failed: tally.failed,
            problems: tally.errors,
            ..Outcome::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn problem(&mut self, message: impl Into<String>) {
        self.problems.push(message.into());
    }

    pub fn note(&mut self, message: impl Into<String>) {
        self.notes.push(message.into());
    }

    /// One JSON object; `run.py` turns it into the benchmark's result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    format!("{value:?}")
                } else {
                    "null".to_string()
                };
                format!(
                    "{}: {{\"value\": {value}, \"unit\": {}}}",
                    quote(name),
                    quote(unit)
                )
            })
            .collect();
        let list = |items: &[String]| {
            items
                .iter()
                .map(|s| quote(s))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \
             \"notes\": [{}], \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            list(&self.problems),
            list(&self.notes),
            metrics.join(", ")
        )
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
