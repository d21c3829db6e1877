//! # PaPar — a Parallel Data Partitioning framework for big data applications
//!
//! A from-scratch Rust reproduction of *PaPar: A Parallel Data Partitioning
//! Framework for Big Data Applications* (Wang, Zhang, Zhang, Pumma, Feng —
//! IPDPS 2017).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`config`] — XML configuration frontend (InputData / Workflow / operator
//!   registration documents).
//! * [`record`] — record schema, typed values, binary/text codecs, the
//!   packed format and CSR/CSC compression.
//! * [`mr`] — the simulated message-passing cluster and MapReduce engine
//!   standing in for MR-MPI.
//! * [`core`] — the framework itself: operators, stride-permutation
//!   distribution policies, the workflow planner and the executor.
//! * [`check`] — the static workflow analyzer behind `papar check`:
//!   dataflow, schema inference, distribution legality, typed diagnostics.
//! * [`trace`] — the observability layer: workflow span trees, counters,
//!   skew histograms, Chrome trace-event export and profile rendering.
//! * [`mublastp`] — the muBLASTP driving application substrate.
//! * [`powerlyra`] — the PowerLyra driving application substrate.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the full system
//! inventory and experiment index.

pub use papar_check as check;
pub use papar_config as config;
pub use papar_core as core;
pub use papar_mr as mr;
pub use papar_record as record;
pub use papar_trace as trace;

pub use mublastp;
pub use powerlyra;

/// Convenience prelude importing the types used by almost every program.
pub mod prelude {
    pub use papar_config::{InputConfig, WorkflowConfig};
    pub use papar_core::exec::{ExecOptions, WorkflowRunner};
    pub use papar_core::plan::{Planner, WorkflowPlan};
    pub use papar_core::policy::{DistrPolicy, StridePermutation};
    pub use papar_mr::cluster::Cluster;
    pub use papar_record::{Batch, Record, Schema, Value};
}
