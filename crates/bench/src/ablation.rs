//! Ablation experiments for the design choices Section III-D calls out:
//! CSR/CSC shuffle compression ("up to 13% improvement") and distributed
//! data sampling.

use papar_core::exec::{ExecOptions, SamplingMode};

use crate::datasets::{databases, graphs, scaled_threshold, Scale};
use crate::report::{fmt_ratio, Table};
use crate::workflows::run_hybrid;

/// A1 — shuffle compression on the hybrid-cut: bytes with and without
/// CSC-compressing packed entries.
pub fn compression(scale: &Scale) -> Table {
    let mut t = Table::new(
        "Ablation A1: CSC shuffle compression (hybrid-cut)",
        &["graph", "bytes plain", "bytes compressed", "saving"],
    );
    let threshold = scaled_threshold(scale);
    for (name, graph) in graphs(scale) {
        let bytes = |compress: bool| {
            run_hybrid(
                &graph,
                16,
                threshold,
                // Deliberately co-prime with the partition count so group
                // placement and distribute routing do not coincide and the
                // shuffle actually crosses nodes.
                7,
                ExecOptions {
                    compression: compress,
                    ..ExecOptions::default()
                },
            )
            .report
            .total_shuffled_bytes()
        };
        let plain = bytes(false);
        let compressed = bytes(true);
        t.row(vec![
            name.to_string(),
            plain.to_string(),
            compressed.to_string(),
            format!(
                "{:.1}%",
                100.0 * (plain as f64 - compressed as f64) / plain as f64
            ),
        ]);
    }
    t.note("paper observed up to 13% communication improvement; the saving depends on the input");
    t
}

/// A2 — distributed sampling vs naive first-fragment sampling: reducer
/// balance of the sort job on the (length-clustered) databases.
pub fn sampling(scale: &Scale) -> Table {
    use crate::workflows::{blast_workflow, BLAST_INPUT_CFG};
    use papar_core::exec::WorkflowRunner;
    use papar_core::plan::Planner;
    use papar_mr::Cluster;
    use papar_record::batch::{Batch, Dataset};

    let mut t = Table::new(
        "Ablation A2: reduce-range sampling (sort job reducer balance)",
        &["database", "sampling", "max/avg reducer load"],
    );
    for (name, db) in databases(scale) {
        for (label, mode) in [
            ("distributed", SamplingMode::Distributed),
            ("first-fragment", SamplingMode::FirstFragmentOnly),
        ] {
            let planner =
                Planner::from_xml(&blast_workflow("roundRobin"), &[BLAST_INPUT_CFG]).unwrap();
            let mut a = std::collections::HashMap::new();
            a.insert("input_path".to_string(), "/in".to_string());
            a.insert("output_path".to_string(), "/out".to_string());
            a.insert("num_partitions".to_string(), "16".to_string());
            let plan = planner.bind(&a).unwrap();
            // Fusion would stream the sorted intermediate straight into the
            // distribute; this ablation inspects it, so keep it materialized.
            let runner = WorkflowRunner::with_options(
                plan,
                ExecOptions {
                    sampling: mode,
                    fuse: false,
                    ..ExecOptions::default()
                },
            );
            let mut cluster = Cluster::new(16);
            let schema = runner.plan().external_inputs[0].1.schema.clone();
            runner
                .scatter_input(
                    &mut cluster,
                    "/in",
                    Dataset::new(schema, Batch::Flat(db.index_records())),
                )
                .unwrap();
            runner.run(&mut cluster).unwrap();
            let sizes: Vec<usize> = cluster
                .collect("/user/sort_output")
                .unwrap()
                .iter()
                .map(|d| d.batch.record_count())
                .collect();
            let avg = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
            let max = *sizes.iter().max().unwrap() as f64;
            t.row(vec![
                name.to_string(),
                label.to_string(),
                fmt_ratio(max / avg),
            ]);
        }
    }
    t.note("distributed sampling keeps every reducer near 1.0x the mean; naive sampling overloads some reducer");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_saves_bytes_on_every_graph() {
        let t = compression(&Scale::quick());
        for row in &t.rows {
            let plain: u64 = row[1].parse().unwrap();
            let compressed: u64 = row[2].parse().unwrap();
            assert!(compressed < plain, "{}: {compressed} !< {plain}", row[0]);
        }
    }

    #[test]
    fn distributed_sampling_balances_better() {
        let t = sampling(&Scale::quick());
        // Rows come in (distributed, first-fragment) pairs per database.
        for pair in t.rows.chunks(2) {
            let good: f64 = pair[0][2].parse().unwrap();
            let naive: f64 = pair[1][2].parse().unwrap();
            assert!(
                good <= naive,
                "{}: distributed {good} should balance at least as well as naive {naive}",
                pair[0][0]
            );
            // Quick-scale samples are small; allow some jitter but stay
            // far from the naive mode's collapse.
            assert!(
                good < 2.0,
                "{}: distributed sampling too skewed: {good}",
                pair[0][0]
            );
        }
    }
}
