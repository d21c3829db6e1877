//! Thread-count invariance of the engine, as a dedicated suite: the same
//! workflow over the same input must produce byte-identical partitions
//! no matter how many OS threads the phases use. CI also runs this file
//! under ThreadSanitizer (nightly toolchain), so it deliberately drives
//! the threaded map/sort/shuffle/reduce paths hard enough for data races
//! to surface.

use papar_core::exec::{ExecOptions, WorkflowRunner};
use papar_core::plan::Planner;
use papar_mr::Cluster;
use papar_record::batch::{Batch, Dataset};
use papar_record::{rec, Record};
use std::collections::HashMap;

const BLAST_INPUT_CFG: &str = r#"
<input id="blast_db" name="BLAST Database file">
  <input_format>binary</input_format>
  <start_position>32</start_position>
  <element>
    <value name="seq_start" type="integer"/>
    <value name="seq_size" type="integer"/>
    <value name="desc_start" type="integer"/>
    <value name="desc_size" type="integer"/>
  </element>
</input>"#;

const SORT_DISTR_WORKFLOW: &str = r#"
<workflow id="blast_partition" name="BLAST database partition">
  <arguments>
    <param name="input_path" type="hdfs" format="blast_db"/>
    <param name="output_path" type="hdfs" format="blast_db"/>
    <param name="num_partitions" type="integer"/>
  </arguments>
  <operators>
    <operator id="sort" operator="Sort">
      <param name="inputPath" type="String" value="$input_path"/>
      <param name="outputPath" type="String" value="/user/sort_output"/>
      <param name="key" type="KeyId" value="seq_size"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="$sort.outputPath"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="distrPolicy" type="DistrPolicy" value="roundRobin"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;

const EDGE_INPUT_CFG: &str = r#"
<input id="graph_edge" name="edge lists">
  <input_format>text</input_format>
  <element>
    <value name="vertex_a" type="String"/>
    <delimiter value="\t"/>
    <value name="vertex_b" type="String"/>
    <delimiter value="\n"/>
  </element>
</input>"#;

const HYBRID_WORKFLOW: &str = r#"
<workflow id="hybrid_cut" name="Hybrid-cut">
  <arguments>
    <param name="input_file" type="hdfs" format="graph_edge"/>
    <param name="output_path" type="hdfs" format="graph_edge"/>
    <param name="num_partitions" type="integer"/>
    <param name="threshold" type="integer"/>
  </arguments>
  <operators>
    <operator id="group" operator="group">
      <param name="inputPath" type="String" value="$input_file"/>
      <param name="outputPath" type="String" value="/tmp/group" format="pack"/>
      <param name="key" type="KeyId" value="vertex_b"/>
      <addon operator="count" key="vertex_b" attr="indegree"/>
    </operator>
    <operator id="split" operator="Split">
      <param name="inputPath" type="String" value="$group.outputPath"/>
      <param name="outputPathList" type="StringList"
             value="/tmp/split/high_degree,/tmp/split/low_degree"
             format="unpack,orig"/>
      <param name="key" type="KeyId" value="$group.$indegree"/>
      <param name="policy" type="SplitPolicy" value="{&gt;=, $threshold},{&lt;,$threshold}"/>
    </operator>
    <operator id="distr" operator="Distribute">
      <param name="inputPath" type="String" value="/tmp/split/"/>
      <param name="outputPath" type="String" value="$output_path"/>
      <param name="policy" type="distrPolicy" value="graphVertexCut"/>
      <param name="numPartitions" type="integer" value="$num_partitions"/>
    </operator>
  </operators>
</workflow>"#;

fn args(pairs: &[(&str, &str)]) -> HashMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Run the workflow at `threads` engine threads and render every output
/// partition as display tuples.
fn partitions(
    workflow: &str,
    input_cfg: &str,
    launch_args: &HashMap<String, String>,
    input: &[Record],
    nodes: usize,
    threads: usize,
    fuse: bool,
) -> Vec<Vec<String>> {
    let planner = Planner::from_xml(workflow, &[input_cfg]).unwrap();
    let plan = planner.bind(launch_args).unwrap();
    let input_name = plan.external_inputs[0].0.clone();
    let schema = plan.external_inputs[0].1.schema.clone();
    let runner = WorkflowRunner::with_options(
        plan,
        ExecOptions {
            threads: Some(threads),
            fuse,
            ..ExecOptions::default()
        },
    );
    let mut cluster = Cluster::new(nodes);
    runner
        .scatter_input(
            &mut cluster,
            &input_name,
            Dataset::new(schema, Batch::Flat(input.to_vec())),
        )
        .unwrap();
    runner.run(&mut cluster).unwrap();
    cluster
        .collect(&runner.plan().output_path)
        .unwrap()
        .iter()
        .map(|d| {
            d.batch
                .clone()
                .flatten()
                .iter()
                .map(Record::display_tuple)
                .collect()
        })
        .collect()
}

#[test]
fn sort_distribute_partitions_are_thread_count_invariant() {
    // Heavy key duplication stresses tie-breaking in the reduce-side sort;
    // 4000 records split over several nodes keeps every phase threaded.
    let input: Vec<Record> = (0..4000).map(|i| rec![i, (i * 7919) % 97, 0, 0]).collect();
    let launch = args(&[
        ("input_path", "/data/env_nr"),
        ("output_path", "/data/parts"),
        ("num_partitions", "8"),
    ]);
    for fuse in [true, false] {
        let baseline = partitions(
            SORT_DISTR_WORKFLOW,
            BLAST_INPUT_CFG,
            &launch,
            &input,
            4,
            1,
            fuse,
        );
        for threads in [2, 4, 8] {
            let got = partitions(
                SORT_DISTR_WORKFLOW,
                BLAST_INPUT_CFG,
                &launch,
                &input,
                4,
                threads,
                fuse,
            );
            assert_eq!(
                baseline, got,
                "partitions changed at {threads} threads (fuse={fuse})"
            );
        }
    }
}

#[test]
fn hybrid_cut_partitions_are_thread_count_invariant() {
    // A skewed graph: a few very hot in-vertices plus a long tail, so
    // both split branches carry data and the shuffle is imbalanced.
    let mut input = Vec::new();
    for i in 0..1500u32 {
        let dst = if i % 3 == 0 { i % 5 } else { 100 + (i % 350) };
        input.push(rec![format!("s{}", i % 211), format!("v{dst}")]);
    }
    let launch = args(&[
        ("input_file", "/data/edges"),
        ("output_path", "/data/parts"),
        ("num_partitions", "6"),
        ("threshold", "20"),
    ]);
    for fuse in [true, false] {
        let baseline = partitions(HYBRID_WORKFLOW, EDGE_INPUT_CFG, &launch, &input, 3, 1, fuse);
        for threads in [2, 4, 8] {
            let got = partitions(
                HYBRID_WORKFLOW,
                EDGE_INPUT_CFG,
                &launch,
                &input,
                3,
                threads,
                fuse,
            );
            assert_eq!(
                baseline, got,
                "partitions changed at {threads} threads (fuse={fuse})"
            );
        }
    }
}
