//! The four workloads: what each one runs, how its inputs are generated
//! from the seed, and the oracle digests its outputs are checked against.

use std::io::Write;
use std::path::{Path, PathBuf};

use mublastp::baseline::{self, BaselinePolicy};
use mublastp::dbgen::DbSpec;
use papar_cli::RunSpec;
use papar_record::wire::checksum;
use papar_serve::JobSpec;

/// Simulated cluster size of every job.
const NODES: usize = 4;
/// Output partitions of every job.
const PARTITIONS: usize = 8;

/// Sequences in the `fig8_blast` database.
const FIG8_SEQUENCES: usize = 125_000;
/// `livejournal_like` divisor of the `fig10_hybrid` graph (about 69k
/// edges).
const FIG10_DIVISOR: usize = 1_000;
/// Sequences in the Fig 8 request of `serve_warm_mix`.
const SERVE_FIG8_SEQUENCES: usize = 20_000;
/// `livejournal_like` divisor of the Fig 10 request of `serve_warm_mix`
/// (about 20k edges).
const SERVE_FIG10_DIVISOR: usize = 3_450;
/// Records in the `fig8_skew_durable` index.
const SKEW_RECORDS: usize = 125_000;

const BLAST_DB_XML: &str = "examples/configs/blast_db.xml";
const BLAST_PARTITION_XML: &str = "examples/configs/blast_partition.xml";
const GRAPH_EDGE_XML: &str = "examples/configs/graph_edge.xml";
const HYBRID_CUT_XML: &str = "examples/configs/hybrid_cut.xml";
const SKEW_SORT_XML: &str = "perfbench/configs/skew_sort.xml";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig8Blast,
    Fig10Hybrid,
    ServeWarmMix,
    Fig8SkewDurable,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "fig8_blast" => Workload::Fig8Blast,
            "fig10_hybrid" => Workload::Fig10Hybrid,
            "serve_warm_mix" => Workload::ServeWarmMix,
            "fig8_skew_durable" => Workload::Fig8SkewDurable,
            _ => return None,
        })
    }

    /// The job shapes this workload submits. `serve_warm_mix` cycles
    /// through them in [`Workload::cycle`] order; the one-shot workloads
    /// have exactly one.
    pub fn shapes(self, work: &Path) -> Vec<Shape> {
        let partitions = ("num_partitions", PARTITIONS.to_string());
        match self {
            Workload::Fig8Blast => vec![Shape::fig8("fig8", work, FIG8_SEQUENCES)],
            Workload::Fig10Hybrid => vec![Shape::fig10("fig10", work, FIG10_DIVISOR)],
            Workload::ServeWarmMix => vec![
                Shape::fig8("fig8", work, SERVE_FIG8_SEQUENCES),
                Shape::fig10("fig10", work, SERVE_FIG10_DIVISOR),
            ],
            Workload::Fig8SkewDurable => vec![Shape {
                name: "skew",
                input_config: BLAST_DB_XML.into(),
                workflow: SKEW_SORT_XML.into(),
                data: work.join("skewed.db"),
                args: vec![partitions],
                records: Some(SKEW_RECORDS),
                adaptive: true,
                checkpoint: true,
            }],
        }
    }

    /// Indexes into [`Workload::shapes`], one cycle of the request mix.
    /// One Fig 8 request per two Fig 10 requests: with a 1:1 mix the
    /// median latency would fall in the gap between the two request sizes
    /// and jump between them from run to run, and the small Fig 8 file's
    /// shuffle volume varies more from seed to seed than the graph's.
    pub fn cycle(self) -> &'static [usize] {
        match self {
            Workload::ServeWarmMix => &[0, 1, 1],
            _ => &[0],
        }
    }
}

/// One job: the documents, the data file and the knobs it runs with.
#[derive(Debug, Clone)]
pub struct Shape {
    pub name: &'static str,
    pub input_config: PathBuf,
    pub workflow: PathBuf,
    pub data: PathBuf,
    pub args: Vec<(&'static str, String)>,
    /// Index entries to read (Fig 8 inputs carry payload after them).
    pub records: Option<usize>,
    pub adaptive: bool,
    /// Persist stage progress into a fresh directory per job.
    pub checkpoint: bool,
}

impl Shape {
    fn fig8(name: &'static str, work: &Path, sequences: usize) -> Shape {
        Shape {
            name,
            input_config: BLAST_DB_XML.into(),
            workflow: BLAST_PARTITION_XML.into(),
            data: work.join(format!("{name}.db")),
            args: vec![("num_partitions", PARTITIONS.to_string())],
            records: Some(sequences),
            adaptive: false,
            checkpoint: false,
        }
    }

    fn fig10(name: &'static str, work: &Path, divisor: usize) -> Shape {
        Shape {
            name,
            input_config: GRAPH_EDGE_XML.into(),
            workflow: HYBRID_CUT_XML.into(),
            data: work.join(format!("{name}.txt")),
            args: vec![
                ("num_partitions", PARTITIONS.to_string()),
                ("threshold", hybrid_threshold(divisor).to_string()),
            ],
            records: None,
            adaptive: false,
            checkpoint: false,
        }
    }

    /// Where this shape's partition files are written.
    pub fn out_dir(&self, work: &Path) -> PathBuf {
        work.join(format!("out-{}", self.name))
    }

    /// The one-shot `papar run` of this shape.
    pub fn run_spec(&self, work: &Path, threads: usize, checkpoint: Option<PathBuf>) -> RunSpec {
        RunSpec {
            input_config: self.input_config.clone(),
            workflow: self.workflow.clone(),
            data: self.data.clone(),
            out_dir: self.out_dir(work),
            nodes: NODES,
            args: self
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            records: self.records,
            threads: Some(threads),
            adaptive: self.adaptive,
            checkpoint,
            ..RunSpec::default()
        }
    }

    /// The daemon submission of this shape.
    pub fn job_spec(&self, work: &Path, threads: usize) -> JobSpec {
        JobSpec {
            input_config: self.input_config.display().to_string(),
            workflow: self.workflow.display().to_string(),
            data: self.data.display().to_string(),
            out_dir: self.out_dir(work).display().to_string(),
            nodes: NODES as u32,
            args: self
                .args
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            records: self.records.map(|n| n as u64),
            threads: Some(threads as u32),
            no_fuse: false,
            no_zerocopy: false,
            adaptive: self.adaptive,
        }
    }
}

/// The degree threshold of the hybrid cut, scaled with the graph the
/// way the repository's Fig 15 experiment scales it.
fn hybrid_threshold(divisor: usize) -> usize {
    (200 / (divisor / 16).max(1)).max(8)
}

/// What a correct job of one shape produces.
pub struct Oracle {
    /// Input records the job partitions.
    pub records: usize,
    /// Bytes shuffled by the reference run (0 when the oracle is not a
    /// run of the program).
    pub shuffle_bytes: u64,
    /// `(file name, FNV-1a digest)` of every partition file.
    pub files: Vec<(String, u64)>,
}

impl Oracle {
    fn path(work: &Path, shape: &str) -> PathBuf {
        work.join(format!("oracle-{shape}.txt"))
    }

    fn save(&self, work: &Path, shape: &str) -> Result<(), String> {
        let mut text = format!("{} {}\n", self.records, self.shuffle_bytes);
        for (name, digest) in &self.files {
            text.push_str(&format!("{name} {digest:016x}\n"));
        }
        write(&Oracle::path(work, shape), text.as_bytes())
    }

    pub fn load(work: &Path, shape: &str) -> Result<Oracle, String> {
        let path = Oracle::path(work, shape);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let bad = || format!("malformed oracle file {}", path.display());
        let mut lines = text.lines();
        let (records, shuffle) = lines
            .next()
            .and_then(|l| l.split_once(' '))
            .ok_or_else(bad)?;
        let files = lines
            .map(|l| {
                let (name, digest) = l.split_once(' ').ok_or_else(bad)?;
                let digest = u64::from_str_radix(digest, 16).map_err(|_| bad())?;
                Ok((name.to_string(), digest))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Oracle {
            records: records.parse().map_err(|_| bad())?,
            shuffle_bytes: shuffle.parse().map_err(|_| bad())?,
            files,
        })
    }
}

/// Write a file. Set-up syncs the inputs afterwards, outside its timer
/// (see [`sync`]).
fn write(path: &Path, bytes: &[u8]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("cannot write {}: {e}", path.display());
    let mut file = std::fs::File::create(path).map_err(err)?;
    file.write_all(bytes).map_err(err)
}

/// Flush files to disk, so that their write-back does not land in the
/// measurement that follows.
pub fn sync(paths: &[PathBuf]) -> Result<(), String> {
    for path in paths {
        std::fs::File::open(path)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("cannot sync {}: {e}", path.display()))?;
    }
    Ok(())
}

/// `(file name, digest)` of every file in `dir`, sorted by name.
pub fn digest_dir(dir: &Path) -> Result<Vec<(String, u64)>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    let mut names = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
        names.push(entry.file_name().to_string_lossy().into_owned());
    }
    names.sort();
    names
        .into_iter()
        .map(|name| {
            let path = dir.join(&name);
            let bytes =
                std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            Ok((name, checksum(&bytes)))
        })
        .collect()
}

/// Generate every input file of `workload` from `seed` into `work`;
/// returns the files written. This is the timed part of set-up.
pub fn generate(workload: Workload, seed: u64, work: &Path) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let mut written = Vec::new();
    for shape in workload.shapes(work) {
        let bytes = match (workload, shape.name) {
            (Workload::Fig8SkewDurable, _) => {
                let n = shape.records.expect("the skewed index has a record count");
                index_file(&skewed_entries(n, seed))
            }
            (_, "fig8") => {
                let n = shape.records.expect("Fig 8 jobs read a set record count");
                DbSpec::env_nr_scaled(n, seed).generate().to_bytes()
            }
            (_, "fig10") => {
                let graph =
                    powerlyra::gen::presets::livejournal_like(fig10_divisor(workload), seed)
                        .map_err(|e| e.to_string())?;
                powerlyra::gen::to_snap_text(&graph).into_bytes()
            }
            (_, other) => unreachable!("no generator for shape {other}"),
        };
        write(&shape.data, &bytes)?;
        written.push(shape.data);
    }
    Ok(written)
}

/// Compute the oracle digest of every shape of `workload` over the inputs
/// [`generate`] wrote from `seed`. Set-up does this once, outside its
/// timer.
pub fn make_oracles(workload: Workload, seed: u64, work: &Path) -> Result<(), String> {
    for shape in workload.shapes(work) {
        match (workload, shape.name) {
            (Workload::Fig8Blast, _) => {
                // The baseline partitions the generator's own index, not
                // the program's decoding of the file.
                let n = shape.records.expect("Fig 8 jobs read a set record count");
                let db = DbSpec::env_nr_scaled(n, seed).generate();
                baseline_oracle(&db.index, n).save(work, shape.name)?;
            }
            (Workload::Fig8SkewDurable, _) => {
                // The oracle is the literal plan: no adaptive planner,
                // no checkpoint.
                let literal = Shape {
                    adaptive: false,
                    checkpoint: false,
                    ..shape.clone()
                };
                reference_run(&literal, work, shape.name)?;
            }
            _ => reference_run(&shape, work, shape.name)?,
        }
    }
    Ok(())
}

fn fig10_divisor(workload: Workload) -> usize {
    if workload == Workload::Fig10Hybrid {
        FIG10_DIVISOR
    } else {
        SERVE_FIG10_DIVISOR
    }
}

/// The muBLASTP baseline's cyclic partitioning, encoded the way a
/// partition file stores it: a zeroed header, then the entries.
fn baseline_oracle(index: &[mublastp::dbformat::IndexEntry], records: usize) -> Oracle {
    let run = baseline::partition(index, PARTITIONS, BaselinePolicy::Cyclic);
    let files = run
        .partitions
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let entries: Vec<[i32; 4]> = part
                .iter()
                .map(|e| [e.seq_start, e.seq_size, e.desc_start, e.desc_size])
                .collect();
            (
                format!("partition_{i:04}.bin"),
                checksum(&index_file(&entries)),
            )
        })
        .collect();
    Oracle {
        records,
        shuffle_bytes: 0,
        files,
    }
}

/// A one-shot run at one engine thread, as the oracle of `name`.
fn reference_run(shape: &Shape, work: &Path, name: &str) -> Result<(), String> {
    let spec = shape.run_spec(work, 1, None);
    let _ = std::fs::remove_dir_all(&spec.out_dir);
    let summary = papar_cli::run(&spec).map_err(|e| format!("reference run failed: {e}"))?;
    let oracle = Oracle {
        records: summary.records_in,
        shuffle_bytes: summary.jobs.iter().map(|j| j.2).sum(),
        files: digest_dir(&spec.out_dir)?,
    };
    std::fs::remove_dir_all(&spec.out_dir).map_err(|e| e.to_string())?;
    oracle.save(work, name)
}

/// Bytes of a BLAST index file: the 32-byte header region (zeroed), then
/// four little-endian 32-bit fields per entry.
fn index_file(entries: &[[i32; 4]]) -> Vec<u8> {
    let mut out = vec![0u8; 32];
    out.reserve(entries.len() * 16);
    for entry in entries {
        for field in entry {
            out.extend_from_slice(&field.to_le_bytes());
        }
    }
    out
}

/// The repository's adversarially skewed `seq_size` distribution (the
/// adaptive-planner ablation's): one hot key, 7, and a Zipf-like tail.
/// Seeded here, where the ablation's generator is fixed. The ablation
/// gives the hot key half the entries, which is exactly the planner's
/// admissibility limit for 8 reducers (4 fair shares of 1/8), so its
/// choice flips from seed to seed; 60% keeps the same adversarial shape
/// with one choice on every seed.
fn skewed_entries(n: usize, seed: u64) -> Vec<[i32; 4]> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    if state == 0 {
        state = 1;
    }
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|i| {
            let key = if next() % 100 < 60 {
                7
            } else {
                let a = next() % 1024;
                let b = next() % 1024;
                1 + ((a * b) >> 5) as i32
            };
            [i as i32, key, (i * 8) as i32, 16]
        })
        .collect()
}
