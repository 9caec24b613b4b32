//! Job descriptions: what the query planner's task compiler produces.

pub use crate::engine::SideReader;
use hive_common::{DataType, Result, Schema};
use hive_exec::graph::OperatorGraph;
use hive_formats::{AcidOverlay, FormatKind, SearchArgument};
use std::collections::HashMap;
use std::sync::Arc;

/// One scanned input of a job's Map phase.
#[derive(Clone)]
pub struct JobInput {
    /// The alias rows of this input enter the map graph under.
    pub alias: String,
    /// Files of the table (or of a previous job's output directory).
    pub paths: Vec<String>,
    pub format: FormatKind,
    pub schema: Schema,
    /// Top-level columns the map side needs (column pruning).
    pub projection: Option<Vec<usize>>,
    /// Predicates pushed down to the reader (ORC PPD).
    pub sarg: Option<SearchArgument>,
    /// ACID merge-on-read overlay. When present, masked rows never reach
    /// the map graph: the engine drops them by skip-aware file ordinal —
    /// reader-reported for formats with data skipping (ORC keeps its
    /// block-range splits and PPD), sequential for formats scanned
    /// whole-file (one split per file).
    pub overlay: Option<AcidOverlay>,
    /// Set when every file of the input is stored in the order of this
    /// table column and the plan relies on it: each map task then owns a
    /// range of its keys (`KeyRange`) instead of a byte range, so every row
    /// of one key reaches the same task.
    pub key_order: Option<usize>,
}

impl JobInput {
    /// Whether rows of this input are addressed by physical file ordinal:
    /// an ACID overlay masks by it, and a projected virtual column
    /// ([`VIRTUAL_COLUMNS`](hive_formats::delta::VIRTUAL_COLUMNS)) reports
    /// it. Such a scan reads only base copies, and whole files for formats
    /// that track no ordinals.
    pub fn by_ordinal(&self) -> bool {
        let width = self.schema.len();
        let projects_virtual = |p: &Vec<usize>| p.iter().any(|&c| c >= width);
        self.overlay.is_some() || self.projection.as_ref().is_some_and(projects_virtual)
    }
}

/// A broadcast ("distributed cache") input: the small table of a Map Join.
/// The engine builds its hash table once per job, before the map tasks
/// start, and every map task probes that one table.
#[derive(Clone)]
pub struct SideInput {
    pub alias: String,
    pub paths: Vec<String>,
    pub format: FormatKind,
    pub schema: Schema,
    pub projection: Option<Vec<usize>>,
    /// ACID merge-on-read overlay of the small table: masked rows never
    /// enter the hash table.
    pub overlay: Option<AcidOverlay>,
    /// Set for a range map join's side: each map task builds its own table
    /// from the side's rows in the task's key range, instead of the job
    /// building one for all.
    pub ranged: Option<RangedSide>,
    /// Builds the table from the side's rows; the planner supplies it.
    pub build: SideBuild,
}

/// How a range map join's side is read per task: its rows whose `column`
/// (a table column, stored in key order) lies in the task's key range,
/// through a SARG that adds the range to the side scan's own predicates.
#[derive(Clone, Debug)]
pub struct RangedSide {
    pub column: usize,
    pub sarg: Option<SearchArgument>,
}

/// A Map Join's small table as its engine probes it, built once per job and
/// shared by every map task.
#[derive(Clone)]
pub enum SideTable {
    /// Probed a row at a time.
    Rows(Arc<hive_exec::operators::MapJoinTable>),
    /// Probed a batch at a time.
    Batches(Arc<hive_vector::MapJoinTable>),
}

/// The built side tables of a job, by side-input alias.
pub type SideTables = HashMap<String, SideTable>;

/// Builds a side input's table from the reader over its files.
pub type SideBuild = Arc<dyn Fn(&mut SideReader<'_>) -> Result<SideTable> + Send + Sync>;

/// The batch-mode entry of the map pipeline for one input alias (paper
/// Section 6): the engine wraps reader batches in `Message::Batch` and
/// pushes them straight into the graph at `root`. The vectorized operators
/// themselves are ordinary graph nodes, adapters then one sink: the whole
/// stage runs batch-native, scan to sink.
pub struct VectorStage {
    /// Column types of the scan batch.
    pub batch_types: Vec<DataType>,
    /// Graph node batches are pushed into.
    pub root: usize,
    /// Last vectorized node of the alias's chain (scan profile reads its
    /// logical row counters).
    pub terminal: usize,
    /// Set when `root` is a `VectorFilter`: the batch columns its predicate
    /// reads first. The engine has the reader fill only those; the filter
    /// materializes the others for the rows it keeps.
    pub first_columns: Option<Vec<usize>>,
}

/// The per-task map pipeline: one operator graph with one entry root per
/// input alias; aliases in `vector` are fed batches, the rest rows.
pub struct MapPipeline {
    pub graph: OperatorGraph,
    /// alias → root operator id rows are pushed into (row-mode aliases).
    pub roots: HashMap<String, usize>,
    /// alias → batch entry; aliases absent here are row-mode scans.
    pub vector: HashMap<String, VectorStage>,
}

/// Builds a fresh map pipeline per task around the job's side tables, which
/// its Map Join operators probe.
pub type MapPipelineFactory = Arc<dyn Fn(&SideTables) -> Result<MapPipeline> + Send + Sync>;

/// The per-task reduce pipeline: the operator graph, the root the reducer
/// driver pushes into, and what the shuffle hands it.
pub struct ReducePipeline {
    pub graph: OperatorGraph,
    pub root: usize,
    /// Per shuffle tag: the types of its records' columns, keys then values.
    pub shuffled: Vec<Vec<DataType>>,
    /// Set when the stage runs batch-native: per shuffle tag, how many of
    /// its columns are the key, and the column types of the batches the
    /// driver decodes its records into (the shuffled columns, then the
    /// scratch columns the stage's expressions fill).
    pub batches: Option<Vec<(usize, Vec<DataType>)>>,
}

impl ReducePipeline {
    /// A row-mode pipeline: records reach `root` as rows.
    pub fn rows(graph: OperatorGraph, root: usize) -> ReducePipeline {
        ReducePipeline {
            graph,
            root,
            shuffled: Vec::new(),
            batches: None,
        }
    }
}

/// Builds a fresh reduce pipeline per reduce task.
pub type ReducePipelineFactory = Arc<dyn Fn() -> Result<ReducePipeline> + Send + Sync>;

/// Where a job's output goes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobOutput {
    /// Final job: collect rows for the client.
    Collect,
    /// Intermediate job: write SequenceFile part files under this prefix,
    /// to be re-read by a downstream job ("loading intermediate results
    /// back from HDFS" — the cost Section 5.1 eliminates).
    Intermediate { path_prefix: String },
}

/// One MapReduce job. Cloning is cheap — the pipeline factories are
/// shared behind `Arc`s — which is what lets the server's plan cache hand
/// the same compiled jobs to many executions.
#[derive(Clone)]
pub struct JobSpec {
    pub name: String,
    pub inputs: Vec<JobInput>,
    pub side_inputs: Vec<SideInput>,
    pub map_factory: MapPipelineFactory,
    /// `None` → Map-only job.
    pub reduce_factory: Option<ReducePipelineFactory>,
    pub num_reducers: usize,
    pub output: JobOutput,
}

// The worker-pool engine shares `&JobSpec` across task workers and, under
// `hive.exec.parallel`, across job-runner threads. These assertions pin the
// required auto-traits at compile time.
const _: () = {
    const fn assert_send<T: Send + ?Sized>() {}
    const fn assert_sync<T: Sync + ?Sized>() {}
    assert_send::<MapPipeline>();
    assert_send::<JobSpec>();
    assert_sync::<JobSpec>();
};

impl JobSpec {
    /// Short structural description (used by EXPLAIN and tests).
    pub fn describe(&self) -> String {
        format!(
            "{}: {} input(s), {} side, {}, {} reducer(s), output {:?}",
            self.name,
            self.inputs.len(),
            self.side_inputs.len(),
            if self.reduce_factory.is_some() {
                "map+reduce"
            } else {
                "map-only"
            },
            self.num_reducers,
            self.output
        )
    }
}
