//! The original muBLASTP partitioner — the Figure 13 baseline.
//!
//! muBLASTP ships a *single-node, multithreaded* partitioning method
//! ("the current implementation of muBLASTP partitioning only provides a
//! multithreaded method for the input database ... it can not scale out on
//! 16 nodes"). Its optimized ("cyclic") variant is exactly paper Figure 1:
//! stable-sort the index by encoded sequence length, then deal entries to
//! partitions round-robin. The default ("block") variant keeps the number
//! of sequences per partition similar by cutting contiguous chunks.
//!
//! Fidelity notes:
//!
//! * The sort is a qsort-style comparison sort driven through an opaque
//!   function pointer — the shape of the original C implementation, and
//!   deliberately *not* the standard-library sort PaPar's engine uses (the
//!   paper credits part of PaPar's single-node win to its ASPaS sort).
//! * Intra-node threading is modeled, not executed: the host may have
//!   fewer cores than the paper's 16, so the run measures its serial and
//!   parallelizable phases separately and [`BaselineRun::modeled_time`]
//!   applies an Amdahl-style speedup with an efficiency knob to the
//!   parallelizable part. DESIGN.md documents this substitution.

use std::time::{Duration, Instant};

use crate::dbformat::IndexEntry;
use crate::recalc;

/// Which of the two built-in muBLASTP policies to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselinePolicy {
    /// Sort by `seq_size`, deal round-robin (Figure 1).
    Cyclic,
    /// Contiguous equal-count chunks, no sort.
    Block,
}

/// Result of one baseline partitioning run.
#[derive(Debug, Clone)]
pub struct BaselineRun {
    /// The partitions, entries still carrying their original pointers.
    pub partitions: Vec<Vec<IndexEntry>>,
    /// The partitions after index recalculation (prefix-sum pointers).
    pub recalculated: Vec<Vec<IndexEntry>>,
    /// Measured time of the parallelizable phase (the sort).
    pub sort_time: Duration,
    /// Measured time of the serial phases (scatter + pointer
    /// recalculation, serial in the original implementation).
    pub serial_time: Duration,
}

impl BaselineRun {
    /// Modeled wall time on a single node with `threads` threads.
    ///
    /// Amdahl with imperfect scaling: the sort speeds up by
    /// `1 + (threads-1) * efficiency`, the serial phases do not. muBLASTP's
    /// published scaling suggests an efficiency around 0.6 on a 16-core
    /// node (sorting is memory-bound).
    pub fn modeled_time(&self, threads: usize, efficiency: f64) -> Duration {
        let eff_threads = 1.0 + (threads.max(1) as f64 - 1.0) * efficiency.clamp(0.0, 1.0);
        Duration::from_secs_f64(self.sort_time.as_secs_f64() / eff_threads) + self.serial_time
    }

    /// Measured single-thread wall time.
    pub fn serial_total(&self) -> Duration {
        self.sort_time + self.serial_time
    }
}

/// A qsort-style sort: comparison through an opaque function pointer, as
/// the original C code does (`qsort(3)` cannot inline its comparator).
fn qsort_by(entries: &mut [IndexEntry], cmp: fn(&IndexEntry, &IndexEntry) -> std::cmp::Ordering) {
    // Classic recursive quicksort with middle pivot and insertion-sort tail,
    // mirroring a typical libc qsort; stability is achieved by the caller
    // comparing on (key, original position).
    fn inner(
        v: &mut [(IndexEntry, usize)],
        cmp: fn(&IndexEntry, &IndexEntry) -> std::cmp::Ordering,
    ) {
        if v.len() <= 12 {
            // Insertion sort.
            for i in 1..v.len() {
                let mut j = i;
                while j > 0 && full_cmp(&v[j - 1], &v[j], cmp) == std::cmp::Ordering::Greater {
                    v.swap(j - 1, j);
                    j -= 1;
                }
            }
            return;
        }
        let pivot = v[v.len() / 2];
        let (mut lt, mut i, mut gt) = (0usize, 0usize, v.len());
        while i < gt {
            match full_cmp(&v[i], &pivot, cmp) {
                std::cmp::Ordering::Less => {
                    v.swap(lt, i);
                    lt += 1;
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    gt -= 1;
                    v.swap(i, gt);
                }
                std::cmp::Ordering::Equal => i += 1,
            }
        }
        inner(&mut v[..lt], cmp);
        inner(&mut v[gt..], cmp);
    }
    fn full_cmp(
        a: &(IndexEntry, usize),
        b: &(IndexEntry, usize),
        cmp: fn(&IndexEntry, &IndexEntry) -> std::cmp::Ordering,
    ) -> std::cmp::Ordering {
        cmp(&a.0, &b.0).then(a.1.cmp(&b.1))
    }
    let mut tagged: Vec<(IndexEntry, usize)> = entries
        .iter()
        .copied()
        .enumerate()
        .map(|(i, e)| (e, i))
        .collect();
    inner(&mut tagged, cmp);
    for (slot, (e, _)) in entries.iter_mut().zip(tagged) {
        *slot = e;
    }
}

/// Run the baseline partitioner.
///
/// The returned entry partitions (pre-recalculation) are byte-for-byte what
/// the PaPar-generated `sort + distribute(cyclic)` workflow produces — the
/// paper's correctness claim ("the partitions produced by the framework
/// should be the same to those generated by the original partitioning
/// algorithms").
pub fn partition(
    index: &[IndexEntry],
    num_partitions: usize,
    policy: BaselinePolicy,
) -> BaselineRun {
    assert!(num_partitions > 0, "need at least one partition");
    let t0 = Instant::now();
    let ordered: Vec<IndexEntry> = match policy {
        BaselinePolicy::Cyclic => {
            let mut v = index.to_vec();
            qsort_by(&mut v, |a, b| a.seq_size.cmp(&b.seq_size));
            v
        }
        BaselinePolicy::Block => index.to_vec(),
    };
    let sort_time = t0.elapsed();

    let t1 = Instant::now();
    let mut partitions: Vec<Vec<IndexEntry>> = (0..num_partitions).map(|_| Vec::new()).collect();
    match policy {
        BaselinePolicy::Cyclic => {
            for (g, e) in ordered.iter().enumerate() {
                partitions[g % num_partitions].push(*e);
            }
        }
        BaselinePolicy::Block => {
            let n = ordered.len();
            let base = n / num_partitions;
            let extra = n % num_partitions;
            let mut start = 0;
            for (p, part) in partitions.iter_mut().enumerate() {
                let sz = base + usize::from(p < extra);
                part.extend_from_slice(&ordered[start..start + sz]);
                start += sz;
            }
        }
    }
    let recalculated: Vec<Vec<IndexEntry>> =
        partitions.iter().map(|p| recalc::recalculate(p)).collect();
    let serial_time = t1.elapsed();
    BaselineRun {
        partitions,
        recalculated,
        sort_time,
        serial_time,
    }
}

/// Materialize every partition as a standalone database, measuring the
/// payload-copy time.
///
/// The real muBLASTP partitioner rewrites the partition *files* — index
/// plus sequence and description payloads — which is the memory-bound bulk
/// of its runtime and the reason it "can not scale out" (paper Section
/// IV-B). The baseline pays this on one node; a PaPar deployment pays
/// `1/N`-th of it per node.
pub fn materialize_payloads(
    db: &crate::dbformat::BlastDb,
    partitions: &[Vec<IndexEntry>],
) -> crate::Result<(Vec<crate::dbformat::BlastDb>, Duration)> {
    let t0 = Instant::now();
    let mut out = Vec::with_capacity(partitions.len());
    for part in partitions {
        out.push(recalc::extract_partition(db, part)?);
    }
    Ok((out, t0.elapsed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbgen::DbSpec;

    fn entry(seq_start: i32, seq_size: i32) -> IndexEntry {
        IndexEntry {
            seq_start,
            seq_size,
            desc_start: seq_start,
            desc_size: 10,
        }
    }

    #[test]
    fn figure1_worked_example() {
        // Paper Figure 1: four entries sorted by seq_size then dealt to two
        // partitions round-robin.
        let index = vec![entry(0, 94), entry(94, 100), entry(194, 99), entry(293, 91)];
        let run = partition(&index, 2, BaselinePolicy::Cyclic);
        // Sorted: 91, 94, 99, 100 -> P0 gets {91, 99}, P1 gets {94, 100}.
        assert_eq!(
            run.partitions[0]
                .iter()
                .map(|e| e.seq_size)
                .collect::<Vec<_>>(),
            vec![91, 99]
        );
        assert_eq!(
            run.partitions[1]
                .iter()
                .map(|e| e.seq_size)
                .collect::<Vec<_>>(),
            vec![94, 100]
        );
        // Matching the figure's seq_starts.
        assert_eq!(run.partitions[0][0].seq_start, 293);
        assert_eq!(run.partitions[1][1].seq_start, 94);
    }

    #[test]
    fn cyclic_balances_counts_and_sizes() {
        let db = DbSpec::env_nr_scaled(4000, 11).generate();
        let run = partition(&db.index, 8, BaselinePolicy::Cyclic);
        let counts: Vec<usize> = run.partitions.iter().map(Vec::len).collect();
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
        let sizes: Vec<i64> = run
            .partitions
            .iter()
            .map(|p| p.iter().map(|e| i64::from(e.seq_size)).sum())
            .collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let min = *sizes.iter().min().unwrap() as f64;
        assert!(
            max / min < 1.05,
            "cyclic partitions should have near-equal encoded size: {sizes:?}"
        );
    }

    #[test]
    fn block_preserves_input_order() {
        let db = DbSpec::env_nr_scaled(100, 3).generate();
        let run = partition(&db.index, 4, BaselinePolicy::Block);
        let flat: Vec<IndexEntry> = run.partitions.concat();
        assert_eq!(flat, db.index);
        let counts: Vec<usize> = run.partitions.iter().map(Vec::len).collect();
        assert_eq!(counts, vec![25, 25, 25, 25]);
    }

    #[test]
    fn qsort_is_stable_via_position_tiebreak() {
        let index = vec![entry(0, 50), entry(1, 50), entry(2, 50), entry(3, 40)];
        let run = partition(&index, 1, BaselinePolicy::Cyclic);
        let starts: Vec<i32> = run.partitions[0].iter().map(|e| e.seq_start).collect();
        assert_eq!(starts, vec![3, 0, 1, 2]);
    }

    #[test]
    fn recalculated_pointers_are_prefix_sums() {
        let db = DbSpec::env_nr_scaled(50, 5).generate();
        let run = partition(&db.index, 3, BaselinePolicy::Cyclic);
        for part in &run.recalculated {
            let mut seq_off = 0i32;
            let mut desc_off = 0i32;
            for e in part {
                assert_eq!(e.seq_start, seq_off);
                assert_eq!(e.desc_start, desc_off);
                seq_off += e.seq_size;
                desc_off += e.desc_size;
            }
        }
    }

    #[test]
    fn modeled_time_decreases_with_threads_but_saturates() {
        let db = DbSpec::env_nr_scaled(20_000, 9).generate();
        let run = partition(&db.index, 16, BaselinePolicy::Cyclic);
        let t1 = run.modeled_time(1, 0.6);
        let t8 = run.modeled_time(8, 0.6);
        let t16 = run.modeled_time(16, 0.6);
        assert!(t8 < t1);
        assert!(t16 <= t8);
        // Serial fraction bounds the speedup.
        assert!(t16 >= run.serial_time);
        assert_eq!(run.modeled_time(1, 0.6), run.serial_total());
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let run = partition(&[], 4, BaselinePolicy::Cyclic);
        assert_eq!(run.partitions.len(), 4);
        assert!(run.partitions.iter().all(Vec::is_empty));
        let one = partition(&[entry(0, 10)], 4, BaselinePolicy::Block);
        assert_eq!(one.partitions.iter().map(Vec::len).sum::<usize>(), 1);
    }
}
