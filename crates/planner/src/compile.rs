//! The task compiler: operator DAG → DAG of MapReduce jobs (paper
//! Section 2: "the task compiler ... breaks the operator tree to multiple
//! stages represented by executable tasks").
//!
//! Job boundaries are the ReduceSink→consumer edges plus any
//! IntermediateCut nodes. The compiler:
//!
//! * groups operators into fragments,
//! * emits one shuffle job per reduce fragment (its map side being the
//!   fragments feeding its ReduceSinks) and one map-only job per source
//!   fragment ending in a sink,
//! * decides Map-only-job merging per Section 5.1 (the
//!   `hive.optimize.merge.maponly.jobs` knob and the hash-table size
//!   threshold),
//! * inserts the Demux/Mux coordination operators into Reduce-side
//!   operator graphs (Section 5.2.2, Figure 5),
//! * invokes the vectorization pass on every map and reduce stage
//!   (Section 6.4).

use crate::correlation::fragments;
use crate::plan::{AggCall, GroupByPhase, PlanGraph, PlanNode, PlanOp};
use crate::semantic::Translation;
use crate::vectorize;
use hive_common::config::keys;
use hive_common::{HiveConf, HiveError, Result};
use hive_exec::graph::OperatorGraph;
use hive_exec::operators as ops;
use hive_mapreduce::job::{
    JobInput, JobOutput, JobSpec, MapPipeline, MapPipelineFactory, RangedSide, ReducePipeline,
    ReducePipelineFactory, SideBuild, SideInput, SideReader, SideTable, SideTables,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static QUERY_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Total hash-table bytes a fragment's Map Joins may hold before the
/// Section 5.1 merge of Map-only jobs is refused (Hive's default, 10 MB).
const MERGE_MAPONLY_THRESHOLD: u64 = 10_000_000;

/// A fully compiled query. Cloneable (job pipeline factories are shared
/// `Arc`s) so the server's plan cache can reuse one compilation across
/// executions; see [`CompiledQuery::rebase`].
#[derive(Clone)]
pub struct CompiledQuery {
    pub jobs: Vec<JobSpec>,
    /// Driver-side final sort: output column index + ascending.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<u64>,
    pub output_names: Vec<String>,
    pub explain: String,
    /// Scratch prefix (`/tmp/query-<N>`) this compilation's intermediate
    /// job outputs live under. Unique per compilation.
    pub tmp_base: String,
}

impl CompiledQuery {
    /// A copy of this plan with every intermediate path moved under a
    /// fresh `/tmp/query-<N>` prefix. A cached plan must be rebased before
    /// each execution: two statements running the same cached plan
    /// concurrently would otherwise collide on intermediate part files.
    pub fn rebase(&self) -> CompiledQuery {
        let fresh = fresh_tmp_base();
        let moved = |p: &str| {
            if let Some(rest) = p.strip_prefix(&self.tmp_base) {
                format!("{fresh}{rest}")
            } else {
                p.to_string()
            }
        };
        let mut out = self.clone();
        for job in &mut out.jobs {
            for input in &mut job.inputs {
                for p in &mut input.paths {
                    *p = moved(p);
                }
            }
            for side in &mut job.side_inputs {
                for p in &mut side.paths {
                    *p = moved(p);
                }
            }
            if let JobOutput::Intermediate { path_prefix } = &mut job.output {
                *path_prefix = moved(path_prefix);
            }
        }
        out.explain = out.explain.replace(&self.tmp_base, &fresh);
        out.tmp_base = fresh;
        out
    }
}

/// A fresh, process-unique scratch prefix for one query's intermediates.
pub fn fresh_tmp_base() -> String {
    let qid = QUERY_COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("/tmp/query-{qid}")
}

/// Where a map input's rows come from.
#[derive(Clone, PartialEq)]
enum Feed {
    /// A plan TableScan.
    Scan(usize),
    /// A previous job's output under `prefix`, holding the rows of plan
    /// node `node` (a cut, or the node above a reduce-side ReduceSink).
    Intermediate { prefix: String, node: usize },
}

/// One map-side input of a job (compile-time form).
#[derive(Clone)]
struct MapInput {
    alias: String,
    feed: Feed,
    /// Plan node ids executed in this input's chain.
    nodes: Vec<usize>,
    /// ReduceSink plan id → shuffle tag.
    rs_tags: BTreeMap<usize, usize>,
    /// Whether the chain runs batch-native (set once the job's inputs are
    /// known; its side tables are built for that engine).
    vectorized: bool,
}

impl MapInput {
    /// The plan node whose rows the input's batches hold: the scan, or the
    /// node an intermediate was written from.
    fn input_node(&self) -> usize {
        match self.feed {
            Feed::Scan(node) | Feed::Intermediate { node, .. } => node,
        }
    }
}

/// Compile an (optimized) translation into jobs.
pub fn compile(t: &Translation, conf: &HiveConf) -> Result<CompiledQuery> {
    let mut g = t.graph.clone();
    insert_cuts(&mut g, conf)?;
    crate::order::plan_ordered(&mut g, false)?;
    let tmp_base = fresh_tmp_base();

    let frag_of = fragments(&g);
    // Fragment → members.
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (&node, &f) in &frag_of {
        members.entry(f).or_default().push(node);
    }

    // Classify each fragment.
    struct FragInfo {
        nodes: Vec<usize>,
        /// RS nodes here whose child is elsewhere.
        sink_rs: Vec<usize>,
        sink_cuts: Vec<usize>,
        has_fs: bool,
    }
    let mut infos: BTreeMap<usize, FragInfo> = BTreeMap::new();
    for (&f, nodes) in &members {
        let mut info = FragInfo {
            nodes: nodes.clone(),
            sink_rs: Vec::new(),
            sink_cuts: Vec::new(),
            has_fs: false,
        };
        for &n in nodes {
            match &g.node(n).op {
                PlanOp::ReduceSink {
                    degenerate: false, ..
                } => info.sink_rs.push(n),
                PlanOp::IntermediateCut => info.sink_cuts.push(n),
                PlanOp::FileSink => info.has_fs = true,
                _ => {}
            }
        }
        infos.insert(f, info);
    }
    let feeding = feeding_by_fragment(&g, &frag_of);

    // Topological order of fragments along boundary edges.
    let frag_order = order_fragments(&g, &frag_of, &infos.keys().copied().collect::<Vec<_>>());

    let mut jobs = Vec::new();
    // Boundary node (RS in reduce fragment, or Cut) → intermediate prefix.
    let mut intermediates: HashMap<usize, String> = HashMap::new();
    let mut explain = String::new();

    for f in frag_order {
        let info = &infos[&f];
        let feeding_rs = feeding.get(&f).map_or(&[][..], Vec::as_slice);
        let is_reduce = !feeding_rs.is_empty();
        if !is_reduce && !info.has_fs && info.sink_cuts.is_empty() {
            // A pure map fragment: executed as part of a shuffle job.
            continue;
        }

        // ----- Output of this job. -------------------------------------
        let sink_count = info.has_fs as usize
            + usize::from(!info.sink_cuts.is_empty())
            + usize::from(is_reduce && !info.sink_rs.is_empty());
        if sink_count != 1 {
            return Err(HiveError::Plan(format!(
                "fragment has {sink_count} output kinds; exactly one supported"
            )));
        }
        let job_idx = jobs.len();
        let output = if info.has_fs {
            JobOutput::Collect
        } else {
            let prefix = format!("{tmp_base}/job-{job_idx}");
            for &cut in &info.sink_cuts {
                intermediates.insert(cut, prefix.clone());
            }
            if is_reduce {
                for &rs in &info.sink_rs {
                    intermediates.insert(rs, prefix.clone());
                }
            }
            JobOutput::Intermediate {
                path_prefix: prefix,
            }
        };

        // ----- Map side. -------------------------------------------------
        let vectorize = conf.get_bool(keys::VECTORIZED_ENABLED)?;
        let mut map_inputs = if is_reduce {
            build_map_inputs(&g, &frag_of, &feeding, feeding_rs, &intermediates)?
        } else {
            // Map-only job: the fragment itself is the map side.
            build_maponly_input(&g, &info.nodes, &intermediates)?
        };
        for mi in &mut map_inputs {
            let input = mi.input_node();
            mi.vectorized = vectorize && vectorize::vectorizes(&g.nodes, input, &mi.nodes);
        }

        // Side inputs (MapJoin hash tables) from all map nodes, each built
        // for the engine its chain runs on.
        let nodes = Arc::new(g.nodes.clone());
        let mut side_inputs = Vec::new();
        // The evidence behind each key range the job's tasks own.
        let mut order = Vec::new();
        let evidence = |table: &crate::catalog::TableMeta, o: &crate::plan::OrderedColumn| {
            let name = &table.schema.fields()[o.column].name;
            let s = if o.files == 1 { "" } else { "s" };
            format!("{}.{name} ({} file{s})", table.name, o.files)
        };
        for mi in &map_inputs {
            if let Feed::Scan(scan) = mi.feed {
                if let (Some(o), PlanOp::TableScan { table, .. }) =
                    (g.ranged.get(&scan), &g.node(scan).op)
                {
                    order.push(evidence(table, o));
                }
            }
            for &n in &mi.nodes {
                if let PlanOp::MapJoin(s) = &g.node(n).op {
                    order.extend(s.range.as_ref().map(|o| evidence(&s.table, o)));
                    side_inputs.push(SideInput {
                        alias: s.alias.clone(),
                        paths: s.table.paths.clone(),
                        format: s.table.format,
                        schema: s.table.schema.clone(),
                        projection: Some(s.projection.clone()),
                        overlay: s.table.acid.clone(),
                        ranged: s.range.map(|o| RangedSide {
                            column: o.column,
                            sarg: s.build_sarg.clone(),
                        }),
                        build: side_build(&nodes, n, mi.vectorized),
                    });
                }
            }
        }

        // num_reducers: agree across feeding RSs.
        let num_reducers = if is_reduce {
            let mut n = 0usize;
            for &rs in feeding_rs {
                let PlanOp::ReduceSink { num_reducers, .. } = &g.node(rs).op else {
                    unreachable!()
                };
                n = n.max(*num_reducers);
            }
            // A global aggregation (empty keys) forces one reducer.
            for &rs in feeding_rs {
                if let PlanOp::ReduceSink { keys, .. } = &g.node(rs).op {
                    if keys.is_empty() {
                        n = 1;
                    }
                }
            }
            n.max(1)
        } else {
            0
        };

        // ----- JobSpec inputs and factories. ------------------------------
        let mut job_inputs = Vec::new();
        for mi in &map_inputs {
            match &mi.feed {
                Feed::Scan(scan_id) => {
                    let PlanOp::TableScan {
                        table,
                        projection,
                        sarg,
                        ..
                    } = &g.node(*scan_id).op
                    else {
                        unreachable!()
                    };
                    // Predicate pushdown stays on for ACID scans: delete
                    // masks address rows by (file, ordinal) and the ORC
                    // reader reports skip-aware ordinals, so index-group
                    // skipping no longer desynchronizes the mask. A SARG is
                    // an overapproximation — rows it prunes could never
                    // reach the output, deleted or not.
                    job_inputs.push(JobInput {
                        alias: mi.alias.clone(),
                        paths: table.paths.clone(),
                        format: table.format,
                        schema: table.schema.clone(),
                        projection: Some(projection.clone()),
                        sarg: sarg.clone(),
                        overlay: table.acid.clone(),
                        key_order: g.ranged.get(scan_id).map(|o| o.column),
                    });
                }
                Feed::Intermediate { prefix, node } => {
                    let schema_cols = &g.node(*node).schema;
                    let schema = hive_common::Schema::new(
                        schema_cols
                            .iter()
                            .map(|c| hive_common::Field::new(c.name.clone(), c.data_type.clone()))
                            .collect(),
                    );
                    job_inputs.push(JobInput {
                        alias: mi.alias.clone(),
                        paths: vec![format!("{prefix}/")],
                        format: hive_formats::FormatKind::Sequence,
                        schema,
                        projection: None,
                        sarg: None,
                        overlay: None,
                        key_order: None,
                    });
                }
            }
        }

        let map_spec = Arc::new(MapBuildSpec {
            nodes,
            inputs: map_inputs.clone(),
        });
        let map_factory: MapPipelineFactory = {
            let spec = map_spec.clone();
            Arc::new(move |side| spec.build(side))
        };

        // Batches hold scalar columns only: a complex shuffled column keeps
        // the reduce stage in row mode.
        let scalar = |&rs: &usize| vectorize::all_scalar(&g.node(rs).schema);
        let reduce_factory: Option<ReducePipelineFactory> = if is_reduce {
            let spec = Arc::new(ReduceBuildSpec {
                nodes: g.nodes.clone(),
                fragment: info.nodes.clone(),
                feeding_rs: feeding_rs.to_vec(),
                vectorize: vectorize && feeding_rs.iter().all(scalar),
            });
            Some(Arc::new(move || spec.build()))
        } else {
            None
        };

        let name = format!(
            "job-{job_idx}[{}]",
            if is_reduce { "map+reduce" } else { "map-only" }
        );
        let spec = JobSpec {
            name,
            inputs: job_inputs,
            side_inputs,
            map_factory,
            reduce_factory,
            num_reducers,
            output,
        };
        explain.push_str(&spec.describe());
        explain.push('\n');
        if !order.is_empty() {
            explain.push_str(&format!("  order: {}\n", order.join(", ")));
        }
        jobs.push(spec);
    }

    explain.push_str("\noperator tree:\n");
    explain.push_str(&g.explain());

    Ok(CompiledQuery {
        jobs,
        order_by: t.order_by.clone(),
        limit: t.limit,
        output_names: t.output_names.clone(),
        explain,
        tmp_base,
    })
}

/// Fragment → the non-degenerate ReduceSinks of *other* fragments it
/// consumes, sorted by id (the shuffle-tag order). A fragment with an entry
/// runs on the reduce side of a shuffle; one without is map-side.
fn feeding_by_fragment(
    g: &PlanGraph,
    frag_of: &BTreeMap<usize, usize>,
) -> BTreeMap<usize, Vec<usize>> {
    let mut feeding: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for node in g.nodes.iter().filter(|n| n.alive) {
        let f = frag_of[&node.id];
        for &p in &node.parents {
            if matches!(
                g.node(p).op,
                PlanOp::ReduceSink {
                    degenerate: false,
                    ..
                }
            ) && frag_of.get(&p) != Some(&f)
            {
                feeding.entry(f).or_default().push(p);
            }
        }
    }
    for rs in feeding.values_mut() {
        rs.sort_unstable();
        rs.dedup();
    }
    feeding
}

/// Insert IntermediateCuts: (a) mandatory boundaries before Map-phase-only
/// operators (MapJoin, map-side GroupBy) that ended up downstream of a
/// Reduce phase — Hive materializes a temp file there and continues in the
/// next job's Map phase — and (b) boundaries after MapJoins per the
/// Section 5.1 merging rule.
fn insert_cuts(g: &mut PlanGraph, conf: &HiveConf) -> Result<()> {
    // (a) Mandatory cuts; iterate to a fixpoint since each cut changes the
    //     fragment structure.
    loop {
        let frag_of = fragments(g);
        let feeding = feeding_by_fragment(g, &frag_of);
        let offends = |id: usize| {
            let node = g.node(id);
            let map_phase_only = matches!(
                node.op,
                PlanOp::MapJoin(_)
                    | PlanOp::GroupBy {
                        phase: GroupByPhase::MapHash,
                        ..
                    }
            );
            node.alive
                && map_phase_only
                && feeding.contains_key(&frag_of[&id])
                && !node
                    .parents
                    .iter()
                    .all(|&p| matches!(g.node(p).op, PlanOp::IntermediateCut))
        };
        // Cut upstream first: a cut moves everything below it into the next
        // job's map phase, where an offender downstream may no longer offend
        // (q3's map-side GROUP BY after its map join needs no cut of its own).
        let upstream_clear = |id: usize| {
            let mut stack = g.node(id).parents.clone();
            while let Some(p) = stack.pop() {
                if offends(p) {
                    return false;
                }
                stack.extend(&g.node(p).parents);
            }
            true
        };
        let target = (0..g.nodes.len()).find(|&id| offends(id) && upstream_clear(id));
        let Some(n) = target else { break };
        let parent = g.node(n).parents[0];
        let schema = g.node(parent).schema.clone();
        g.node_mut(parent).children.retain(|&c| c != n);
        let cut = g.add(PlanOp::IntermediateCut, schema, vec![parent]);
        g.node_mut(cut).children.push(n);
        for slot in g.node_mut(n).parents.iter_mut() {
            if *slot == parent {
                *slot = cut;
            }
        }
    }

    // (b) The Section 5.1 merging rule.
    let merge = conf.get_bool(keys::MERGE_MAPONLY_JOBS)?;
    let frag_of = fragments(g);
    // Total hash-table bytes per fragment. A range map join's tables are
    // per task, each a slice of its side, and the chain above its stream
    // relies on the task's key range, so it is never cut.
    let broadcast = |n: &PlanNode| matches!(&n.op, PlanOp::MapJoin(s) if s.range.is_none());
    let mut side_bytes: BTreeMap<usize, u64> = BTreeMap::new();
    for n in g.find(broadcast) {
        if let PlanOp::MapJoin(s) = &g.node(n).op {
            *side_bytes.entry(frag_of[&n]).or_default() += s.table.size_bytes;
        }
    }
    for mj in g.find(broadcast) {
        let cut_here = !merge || side_bytes[&frag_of[&mj]] > MERGE_MAPONLY_THRESHOLD;
        if !cut_here {
            continue;
        }
        let children = g.node(mj).children.clone();
        let schema = g.node(mj).schema.clone();
        for child in children {
            // parent → cut → child.
            g.node_mut(mj).children.retain(|&c| c != child);
            let cut = g.add(PlanOp::IntermediateCut, schema.clone(), vec![mj]);
            g.node_mut(cut).children.push(child);
            for slot in g.node_mut(child).parents.iter_mut() {
                if *slot == mj {
                    *slot = cut;
                }
            }
        }
    }
    Ok(())
}

/// Topologically order fragments along boundary (RS/Cut → child) edges.
fn order_fragments(g: &PlanGraph, frag_of: &BTreeMap<usize, usize>, frags: &[usize]) -> Vec<usize> {
    let mut deps: BTreeMap<usize, Vec<usize>> = BTreeMap::new(); // frag → consumers
    let mut indeg: BTreeMap<usize, usize> = frags.iter().map(|&f| (f, 0)).collect();
    for node in &g.nodes {
        if !node.alive {
            continue;
        }
        if matches!(
            node.op,
            PlanOp::ReduceSink {
                degenerate: false,
                ..
            } | PlanOp::IntermediateCut
        ) {
            let pf = frag_of[&node.id];
            for &c in &node.children {
                let cf = frag_of[&c];
                if cf != pf {
                    deps.entry(pf).or_default().push(cf);
                    *indeg.get_mut(&cf).unwrap() += 1;
                }
            }
        }
    }
    let mut queue: Vec<usize> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&f, _)| f)
        .collect();
    let mut out = Vec::new();
    while let Some(f) = queue.pop() {
        out.push(f);
        if let Some(consumers) = deps.get(&f) {
            for &c in consumers.clone().iter() {
                let d = indeg.get_mut(&c).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push(c);
                }
            }
        }
        queue.sort_unstable_by(|a, b| b.cmp(a)); // deterministic
    }
    out
}

/// Map inputs of a shuffle job: one per distinct source feeding its RSs.
fn build_map_inputs(
    g: &PlanGraph,
    frag_of: &BTreeMap<usize, usize>,
    feeding: &BTreeMap<usize, Vec<usize>>,
    feeding_rs: &[usize],
    intermediates: &HashMap<usize, String>,
) -> Result<Vec<MapInput>> {
    // Tag assignment: feeding RS order.
    let mut inputs: Vec<MapInput> = Vec::new();
    for (tag, &rs) in feeding_rs.iter().enumerate() {
        // Where does this RS's data come from?
        if feeding.contains_key(&frag_of[&rs]) {
            // The RS executes over the previous job's intermediate output.
            let prefix = intermediates.get(&rs).ok_or_else(|| {
                HiveError::Plan("intermediate path missing for reduce-side RS".into())
            })?;
            inputs.push(MapInput {
                alias: format!("intermediate#{rs}"),
                feed: Feed::Intermediate {
                    prefix: prefix.clone(),
                    node: g.node(rs).parents[0],
                },
                nodes: vec![rs],
                rs_tags: BTreeMap::from([(rs, tag)]),
                vectorized: false,
            });
            continue;
        }
        // Walk up to the chain's source (scan or cut-child).
        let mut source = rs;
        while let Some(&p) = g.node(source).parents.first() {
            if matches!(g.node(p).op, PlanOp::IntermediateCut) {
                break; // chain starts below the cut
            }
            source = p;
        }
        let (feed, alias) = feed_of(g, source, intermediates)?;
        let chain = chain_nodes(g, source, rs);
        // Shared source (merged scans): fold into the existing input.
        if let Some(existing) = inputs.iter_mut().find(|i| i.feed == feed) {
            existing.rs_tags.insert(rs, tag);
            for n in chain {
                if !existing.nodes.contains(&n) {
                    existing.nodes.push(n);
                }
            }
            continue;
        }
        inputs.push(MapInput {
            alias,
            feed,
            nodes: chain,
            rs_tags: BTreeMap::from([(rs, tag)]),
            vectorized: false,
        });
    }
    Ok(inputs)
}

/// The single map input of a map-only job (whole fragment).
fn build_maponly_input(
    g: &PlanGraph,
    nodes: &[usize],
    intermediates: &HashMap<usize, String>,
) -> Result<Vec<MapInput>> {
    // Source: the unique node without in-fragment parents (none at all,
    // or cuts only).
    let is_cut = |&p: &usize| matches!(g.node(p).op, PlanOp::IntermediateCut);
    let is_source = |&&n: &&usize| g.node(n).parents.iter().all(is_cut);
    let sources: Vec<usize> = nodes.iter().filter(is_source).copied().collect();
    let [source] = sources[..] else {
        return Err(HiveError::Plan(format!(
            "map-only job must have exactly one source, found {}",
            sources.len()
        )));
    };
    let (feed, alias) = feed_of(g, source, intermediates)?;
    Ok(vec![MapInput {
        alias,
        feed,
        nodes: nodes.to_vec(),
        rs_tags: BTreeMap::new(),
        vectorized: false,
    }])
}

/// The feed and alias of a map chain starting at `source`: its scan, or
/// the intermediate of the cut above it.
fn feed_of(
    g: &PlanGraph,
    source: usize,
    intermediates: &HashMap<usize, String>,
) -> Result<(Feed, String)> {
    if let PlanOp::TableScan { alias, .. } = &g.node(source).op {
        return Ok((Feed::Scan(source), format!("{alias}#{source}")));
    }
    let cut = g.node(source).parents[0];
    let prefix = intermediates
        .get(&cut)
        .ok_or_else(|| HiveError::Plan("intermediate path missing for cut".into()))?;
    let feed = Feed::Intermediate {
        prefix: prefix.clone(),
        node: cut,
    };
    Ok((feed, format!("cut#{cut}")))
}

/// Plan nodes on paths `source → sink` (inclusive).
fn chain_nodes(g: &PlanGraph, source: usize, sink: usize) -> Vec<usize> {
    // Descendants of source.
    let mut desc = vec![false; g.nodes.len()];
    let mut stack = vec![source];
    while let Some(n) = stack.pop() {
        if desc[n] {
            continue;
        }
        desc[n] = true;
        if matches!(
            g.node(n).op,
            PlanOp::ReduceSink {
                degenerate: false,
                ..
            } | PlanOp::IntermediateCut
        ) && n != source
        {
            continue; // do not walk past boundaries
        }
        for &c in &g.node(n).children {
            stack.push(c);
        }
    }
    // Ancestors of sink.
    let mut anc = vec![false; g.nodes.len()];
    let mut stack = vec![sink];
    while let Some(n) = stack.pop() {
        if anc[n] {
            continue;
        }
        anc[n] = true;
        if n != source {
            for &p in &g.node(n).parents {
                if desc[p] {
                    stack.push(p);
                }
            }
        }
    }
    (0..g.nodes.len()).filter(|&n| desc[n] && anc[n]).collect()
}

// ---------------------------------------------------------------------------
// Exec-graph construction
// ---------------------------------------------------------------------------

/// Where a plan node is about to run, in either engine: a map task (which
/// knows its input's shuffle tags and the job's side tables) or a reduce task.
pub(crate) enum Phase<'a> {
    Map {
        rs_tags: &'a BTreeMap<usize, usize>,
        side: &'a SideTables,
    },
    Reduce,
}

impl Phase<'_> {
    pub(crate) fn name(&self) -> &'static str {
        match self {
            Phase::Map { .. } => "Map",
            Phase::Reduce => "Reduce",
        }
    }
}

/// How map join `n`'s side table is built, once per job, for the engine its
/// stage runs on.
fn side_build(nodes: &Arc<Vec<PlanNode>>, n: usize, vectorized: bool) -> SideBuild {
    let nodes = Arc::clone(nodes);
    Arc::new(move |reader: &mut SideReader<'_>| {
        Ok(if vectorized {
            SideTable::Batches(Arc::new(vectorize::build_mapjoin_table(&nodes, n, reader)?))
        } else {
            SideTable::Rows(Arc::new(build_row_table(&nodes, n, reader)?))
        })
    })
}

/// Build map join `n`'s table for the row engine: the side's rows through
/// the build filter and build keys as row expressions.
fn build_row_table(
    nodes: &[PlanNode],
    n: usize,
    reader: &mut SideReader<'_>,
) -> Result<ops::MapJoinTable> {
    let PlanOp::MapJoin(s) = &nodes[n].op else {
        return Err(HiveError::Plan(
            "a side table is built for a MapJoin".into(),
        ));
    };
    let mut table = ops::MapJoinTable::new(s.stream_keys.clone(), s.join_type, s.width);
    while let Some(row) = reader.next_row()? {
        if let Some(f) = &s.build_filter {
            if !f.eval_predicate(&row)? {
                continue;
            }
        }
        let key = s.build_keys.iter().map(|k| k.eval(&row));
        table.insert(key.collect::<Result<_>>()?, &row);
    }
    Ok(table)
}

/// Lower one plan node to its row-mode operator for `phase` — the only
/// `PlanOp` → row operator mapping. An operator its phase cannot run is a
/// plan error.
fn row_operator(
    nodes: &[PlanNode],
    n: usize,
    phase: &Phase,
) -> Result<Box<dyn hive_exec::graph::Operator>> {
    let group_by = |keys: &[_], aggs: &[AggCall], table| {
        let spec = |a: &AggCall| ops::AggSpec {
            function: a.function,
            arg: a.arg.clone(),
            output_type: a.output_type.clone(),
        };
        ops::GroupByOperator::new(keys.to_vec(), aggs.iter().map(spec).collect(), table)
    };
    Ok(match (&nodes[n].op, phase) {
        (PlanOp::Filter { predicate }, _) => Box::new(ops::FilterOperator {
            predicate: predicate.clone(),
        }),
        (PlanOp::Select { exprs }, _) => Box::new(ops::SelectOperator {
            exprs: exprs.clone(),
        }),
        (PlanOp::Limit(k), _) => Box::new(ops::LimitOperator::new(*k)),
        // A degenerate RS executes as a projection in place.
        (
            PlanOp::ReduceSink {
                keys,
                values,
                degenerate: true,
                ..
            },
            _,
        ) => Box::new(ops::SelectOperator {
            exprs: keys.iter().chain(values).cloned().collect(),
        }),
        (PlanOp::ReduceSink { keys, values, .. }, Phase::Map { rs_tags, .. }) => {
            Box::new(ops::ReduceSinkOperator {
                key_exprs: keys.clone(),
                value_exprs: values.clone(),
                tag: rs_tags.get(&n).copied().unwrap_or(0),
            })
        }
        // Sinks: FileSink collects; a Cut, or an RS leaving a reduce task,
        // writes the job's intermediate output.
        (PlanOp::FileSink | PlanOp::IntermediateCut, _)
        | (PlanOp::ReduceSink { .. }, Phase::Reduce) => Box::new(ops::FileSinkOperator),
        (PlanOp::GroupBy { phase, keys, aggs }, Phase::Map { .. })
            if *phase == GroupByPhase::MapHash =>
        {
            Box::new(group_by(keys, aggs, ops::GroupByMode::Hash))
        }
        (PlanOp::GroupBy { phase, keys, aggs }, Phase::Reduce)
            if *phase != GroupByPhase::MapHash =>
        {
            Box::new(group_by(keys, aggs, ops::GroupByMode::Streaming))
        }
        (PlanOp::MapJoin(s), Phase::Map { side, .. }) => match side.get(&s.alias) {
            Some(SideTable::Rows(table)) => Box::new(ops::MapJoinOperator::new(Arc::clone(table))),
            _ => {
                return Err(HiveError::Execution(format!(
                    "no row table for side input `{}`",
                    s.alias
                )))
            }
        },
        (
            PlanOp::Join {
                kind,
                input_widths,
                nk,
                residual,
            },
            Phase::Reduce,
        ) => Box::new(ops::CommonJoinOperator::new(
            *kind,
            *input_widths,
            *nk,
            residual.clone(),
        )),
        (
            op @ (PlanOp::TableScan { .. }
            | PlanOp::GroupBy { .. }
            | PlanOp::MapJoin(_)
            | PlanOp::Join { .. }),
            _,
        ) => {
            return Err(HiveError::Plan(format!(
                "{} cannot run in a {} phase",
                op.kind_name(),
                phase.name()
            )));
        }
    })
}

/// Captured state for building map pipelines per task.
struct MapBuildSpec {
    nodes: Arc<Vec<PlanNode>>,
    inputs: Vec<MapInput>,
}

impl MapBuildSpec {
    fn build(&self, side: &SideTables) -> Result<MapPipeline> {
        let mut graph = OperatorGraph::new();
        let mut roots = HashMap::new();
        let mut vector = HashMap::new();
        for mi in &self.inputs {
            let input = mi.input_node();
            let phase = Phase::Map {
                rs_tags: &mi.rs_tags,
                side,
            };
            // A stage that vectorizes does so whole, input to sink. ACID
            // scans vectorize like any other: the engine unselects deleted
            // ordinals from each batch before it enters the pipeline.
            let stage = mi
                .vectorized
                .then(|| vectorize::vectorize_stage(&self.nodes, &mi.nodes, &[input], &phase));
            let mut stage = stage.transpose()?;
            // Operators, in topo order: a linear stage's is chain order. The
            // scan is the task's reader, not an operator, and a ReduceSink
            // fused into its map-side GroupBy has none of its own.
            let mut exec_of: HashMap<usize, usize> = HashMap::new();
            let order = topo(&self.nodes, &mi.nodes);
            for &n in &order {
                let op = match &mut stage {
                    Some(stage) => stage.operators.remove(&n),
                    None if matches!(self.nodes[n].op, PlanOp::TableScan { .. }) => None,
                    None => Some(row_operator(&self.nodes, n, &phase)?),
                };
                if let Some(op) = op {
                    exec_of.insert(n, graph.add(op));
                }
            }
            // Edges.
            for &n in &order {
                let Some(&from) = exec_of.get(&n) else {
                    continue;
                };
                for &c in &self.nodes[n].children {
                    if let Some(&to) = exec_of.get(&c) {
                        graph.connect(from, to, None);
                    }
                }
            }

            // The entry: the input's children in the stage. A shared scan's
            // several children (a row-mode stage) are fed through a
            // PassThrough fan-out.
            let heads: Vec<usize> = order
                .iter()
                .filter(|&&n| self.nodes[n].parents.contains(&input))
                .filter_map(|n| exec_of.get(n).copied())
                .collect();
            let root = match heads[..] {
                [] => return Err(HiveError::Plan("map chain has no entry".into())),
                [root] => root,
                _ => {
                    let tee = graph.add(Box::new(ops::PassThroughOperator));
                    for h in heads {
                        graph.connect(tee, h, None);
                    }
                    tee
                }
            };
            let Some(mut stage) = stage else {
                roots.insert(mi.alias.clone(), root);
                continue;
            };
            // Batches hold the input's rows and enter at `root`.
            let terminal = order.iter().rev().find_map(|n| exec_of.get(n).copied());
            let stage = hive_mapreduce::job::VectorStage {
                batch_types: stage.batch_types.pop().unwrap_or_default(),
                root,
                terminal: terminal.unwrap_or(root),
                first_columns: stage.first_columns,
            };
            vector.insert(mi.alias.clone(), stage);
        }
        Ok(MapPipeline {
            graph,
            roots,
            vector,
        })
    }
}

/// Captured state for building reduce pipelines per task.
struct ReduceBuildSpec {
    nodes: Vec<PlanNode>,
    fragment: Vec<usize>,
    feeding_rs: Vec<usize>,
    /// Whether the stage runs batch-native: vectorization is on and every
    /// shuffled column is scalar.
    vectorize: bool,
}

impl ReduceBuildSpec {
    fn build(&self) -> Result<ReducePipeline> {
        let mut graph = OperatorGraph::new();
        let mut exec_of: HashMap<usize, usize> = HashMap::new();
        let order = topo(&self.nodes, &self.fragment);
        let types = |rs: &usize| self.nodes[*rs].schema.iter().map(|c| c.data_type.clone());
        let shuffled = self
            .feeding_rs
            .iter()
            .map(|rs| types(rs).collect())
            .collect();

        // 1. Operators: the stage vectorizes whole, or runs in row mode.
        let (nodes, fragment, feeding) = (&self.nodes, &self.fragment, &self.feeding_rs);
        let stage = (self.vectorize)
            .then(|| vectorize::vectorize_stage(nodes, fragment, feeding, &Phase::Reduce));
        let mut stage = stage.transpose()?;
        for &n in &order {
            let op = match &mut stage {
                Some(stage) => stage.operators.remove(&n).ok_or_else(|| {
                    HiveError::Plan(format!("vectorized reduce stage left plan node {n} out"))
                })?,
                None => row_operator(&self.nodes, n, &Phase::Reduce)?,
            };
            exec_of.insert(n, graph.add(op));
        }

        // 2. A Mux in front of every major operator (paper Figure 5).
        let mut mux_of: HashMap<usize, usize> = HashMap::new();
        for &n in &order {
            if self.nodes[n].op.is_major() {
                // Parent count = chain parents inside the fragment + feeding
                // RS routes.
                let n_parents = self.nodes[n].parents.len().max(1);
                let mux = graph.add(Box::new(ops::MuxOperator::new(n_parents, None)));
                mux_of.insert(n, mux);
                graph.connect(mux, exec_of[&n], None);
            }
        }

        // 3. Demux entry: compute routes and targets first, then add the
        //    operator and its edges (Figure 5's tag remapping).
        let mut routes = Vec::new();
        let mut targets = Vec::new();
        for &rs in &self.feeding_rs {
            let consumer = *self.nodes[rs]
                .children
                .first()
                .ok_or_else(|| HiveError::Plan("feeding ReduceSink has no consumer".into()))?;
            let old_tag = self.nodes[consumer]
                .parents
                .iter()
                .position(|&p| p == rs)
                .unwrap_or(0);
            let target = mux_of
                .get(&consumer)
                .copied()
                .or_else(|| exec_of.get(&consumer).copied())
                .ok_or_else(|| HiveError::Plan("feeding RS consumer not in fragment".into()))?;
            routes.push((routes.len(), old_tag));
            targets.push(target);
        }
        let demux = graph.add(Box::new(ops::DemuxOperator { routes }));
        for t in targets {
            graph.connect(demux, t, None);
        }

        // 4. Chain edges within the fragment (into Muxes where needed).
        for &n in &order {
            for &c in &self.nodes[n].children {
                if !self.fragment.contains(&c) {
                    continue;
                }
                let from = exec_of[&n];
                match mux_of.get(&c) {
                    Some(&mux) => {
                        let slot = self.nodes[c]
                            .parents
                            .iter()
                            .position(|&p| p == n)
                            .unwrap_or(0);
                        graph.connect(from, mux, Some(slot));
                    }
                    None => {
                        graph.connect(from, exec_of[&c], None);
                    }
                }
            }
        }

        // Batch-native: per shuffle tag, its key width and batch types.
        let key_width = |&rs: &usize| match &self.nodes[rs].op {
            PlanOp::ReduceSink { keys, .. } => keys.len(),
            _ => unreachable!("a reduce stage is fed by ReduceSinks"),
        };
        let batches = stage.map(|s| feeding.iter().map(key_width).zip(s.batch_types).collect());
        Ok(ReducePipeline {
            graph,
            root: demux,
            shuffled,
            batches,
        })
    }
}

/// Topological order of `subset` by plan edges.
fn topo(nodes: &[PlanNode], subset: &[usize]) -> Vec<usize> {
    let inset: std::collections::HashSet<usize> = subset.iter().copied().collect();
    let mut indeg: HashMap<usize, usize> = subset.iter().map(|&n| (n, 0)).collect();
    for &n in subset {
        for &c in &nodes[n].children {
            if inset.contains(&c) {
                *indeg.get_mut(&c).unwrap() += 1;
            }
        }
    }
    let mut queue: Vec<usize> = subset.iter().copied().filter(|n| indeg[n] == 0).collect();
    queue.sort_unstable();
    let mut out = Vec::new();
    while let Some(n) = queue.pop() {
        out.push(n);
        for &c in &nodes[n].children {
            if let Some(d) = indeg.get_mut(&c) {
                *d -= 1;
                if *d == 0 {
                    queue.push(c);
                }
            }
        }
        queue.sort_unstable();
    }
    out
}
