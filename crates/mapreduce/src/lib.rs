//! A MapReduce engine in the image of Hadoop 1.x, as Hive 0.13 used it
//! (paper Section 2).
//!
//! The engine **really executes** jobs: input splits are read through the
//! file-format readers, map-side operator graphs process rows (or
//! vectorized pipelines process batches), ReduceSink records are
//! partitioned into byte runs sorted by `(key, tag)`, merged and pushed
//! through reduce-side graphs with an EndGroup signal after each key group
//! (after each window of whole groups when the stage runs on batches), and
//! intermediate job outputs are written back to the DFS as SequenceFiles —
//! which is exactly why unnecessary Map-only jobs cost real I/O (paper
//! Section 5.1) — and deleted once no later job of the query reads them.
//!
//! On top of the real execution, a calibrated [`cost::CostModel`] converts
//! the measured work (bytes, seeks, CPU seconds) into *simulated cluster
//! elapsed time*: per-task startup, disk/network bandwidths, and wave
//! scheduling over `nodes × slots` (the paper's cluster: 10 slaves × 3
//! slots, Reduce starting after the whole Map phase).

pub mod cost;
pub mod engine;
pub mod job;

pub use cost::{ClusterConfig, CostModel};
pub use engine::{DagReport, JobReport, MrEngine};
pub use job::{
    JobInput, JobOutput, JobSpec, MapPipeline, MapPipelineFactory, ReducePipeline,
    ReducePipelineFactory, SideBuild, SideInput, SideReader, SideTable, SideTables, VectorStage,
};
