//! Plans from the order the data has (DESIGN.md §21).
//!
//! A table whose files are stored in the order of a column — the footer
//! evidence `semantic::translate` records per scan in [`PlanGraph::order`]
//! — can be read by map tasks that each own a range of its keys instead of
//! a byte range: every row of one key then reaches the same task. Two
//! rewrites use that:
//!
//! * **(a) Map-final GROUP BY.** A GROUP BY whose keys include the order
//!   column of its only input finishes in the map task: no other task holds
//!   the key, so the map-side hash aggregation's groups are final, and its
//!   ReduceSink and merging GroupBy go.
//! * **(b) Range map join.** An inner (or stream-preserving left outer)
//!   equi-join whose two inputs are ordered on one pair of its keys becomes
//!   a Map Join streaming one input. Each of its tasks builds the table
//!   from the other input's rows in the task's key range, read through a
//!   SARG: Hive's sort-merge-bucket join, with ranges in place of buckets.
//!
//! Either marks the stream's scan in [`PlanGraph::ranged`]. Anything the
//! evidence does not cover plans as before. The pass runs at the end of
//! translation, before map-join conversion and the Correlation Optimizer
//! see the plan, and (a) runs again at the start of compilation, after the
//! job cuts are placed: a GROUP BY whose input became a map-side chain once
//! map-join conversion ran (q3's, above its `customer` join) is then final
//! too. By then a correlated ReduceSink may rely on a reduce phase's
//! partitioning, so (b), which would take a reduce phase away, does not run
//! again, and (a) leaves a GROUP BY alone when one is downstream of it.

use crate::mapjoin::{convert, small_side};
use crate::plan::{GroupByPhase, OrderedColumn, PlanGraph, PlanOp};
use hive_common::Result;
use hive_exec::expr::ExprNode;
use hive_exec::operators::JoinType;

/// Apply the rewrites wherever the evidence allows, upstream first: both,
/// or with `joins` off only (a).
pub fn plan_ordered(g: &mut PlanGraph, joins: bool) -> Result<()> {
    if g.order.is_empty() {
        return Ok(());
    }
    for id in 0..g.nodes.len() {
        if !g.node(id).alive {
            continue;
        }
        match g.node(id).op {
            PlanOp::Join { .. } if joins => range_join(g, id)?,
            PlanOp::GroupBy {
                phase: GroupByPhase::MapHash,
                ..
            } => final_group_by(g, id)?,
            _ => {}
        }
    }
    Ok(())
}

/// The scan and table column output column `col` of `node` is, when every
/// operator between them runs in the scan's map task and passes the column
/// through unchanged.
fn trace(g: &PlanGraph, mut node: usize, mut col: usize) -> Option<(usize, usize)> {
    loop {
        let n = g.node(node);
        let through = |e: Option<&ExprNode>| match e {
            Some(ExprNode::Column(j)) => Some(*j),
            _ => None,
        };
        match &n.op {
            PlanOp::TableScan {
                projection, table, ..
            } => {
                let c = *projection.get(col)?;
                return (c < table.schema.len()).then_some((node, c));
            }
            PlanOp::Filter { .. } => {}
            PlanOp::Select { exprs } => col = through(exprs.get(col))?,
            // The streamed row leads the joined one.
            PlanOp::MapJoin(_) if col < g.node(n.parents[0]).schema.len() => {}
            PlanOp::GroupBy {
                phase: GroupByPhase::MapHash,
                keys,
                ..
            } if !feeds_shuffle(g, node) => col = through(keys.get(col))?,
            _ => return None,
        }
        node = n.parents[0];
    }
}

fn feeds_shuffle(g: &PlanGraph, node: usize) -> bool {
    let rs = |&c: &usize| matches!(g.node(c).op, PlanOp::ReduceSink { .. });
    g.node(node).children.iter().any(rs)
}

/// The evidence that output column `col` of `node` is its map task's order
/// column: a traced scan column the table is ordered on, which is also the
/// column its tasks' ranges are on if the scan already has one.
fn ordered(g: &PlanGraph, node: usize, col: usize) -> Option<(usize, OrderedColumn)> {
    let (scan, column) = trace(g, node, col)?;
    let evidence = g.order.get(&scan)?.iter().find(|o| o.column == column)?;
    match g.ranged.get(&scan) {
        Some(r) if r.column != column => None,
        _ => Some((scan, *evidence)),
    }
}

/// The key expression's column, traced from the ReduceSink's input.
fn key_order(g: &PlanGraph, rs: usize, key: &ExprNode) -> Option<(usize, OrderedColumn)> {
    match key {
        ExprNode::Column(c) => ordered(g, g.node(rs).parents[0], *c),
        _ => None,
    }
}

/// Rewrite (a) on map-side GroupBy `gby`.
fn final_group_by(g: &mut PlanGraph, gby: usize) -> Result<()> {
    let PlanOp::GroupBy { keys, .. } = &g.node(gby).op else {
        return Ok(());
    };
    let &[rs] = &g.node(gby).children[..] else {
        return Ok(());
    };
    let &[merge] = &g.node(rs).children[..] else {
        return Ok(());
    };
    let merging = matches!(
        g.node(merge).op,
        PlanOp::GroupBy {
            phase: GroupByPhase::ReduceMerge,
            ..
        }
    );
    if !merging || !matches!(g.node(rs).op, PlanOp::ReduceSink { .. }) || correlated_below(g, merge)
    {
        return Ok(());
    }
    let input = g.node(gby).parents[0];
    let found = keys.iter().find_map(|k| match k {
        ExprNode::Column(c) => ordered(g, input, *c),
        _ => None,
    });
    let Some((scan, evidence)) = found else {
        return Ok(());
    };
    // The partial aggregate is the final one (AVG is SUM / COUNT by now),
    // laid out as the merge's output.
    g.splice_out(rs)?;
    g.splice_out(merge)?;
    g.ranged.insert(scan, evidence);
    Ok(())
}

/// Whether a degenerate ReduceSink — one relying on the partitioning of
/// the reduce phase it runs in — is downstream of `node`.
fn correlated_below(g: &PlanGraph, node: usize) -> bool {
    let mut stack = g.node(node).children.clone();
    while let Some(n) = stack.pop() {
        if let PlanOp::ReduceSink {
            degenerate: true, ..
        } = g.node(n).op
        {
            return true;
        }
        stack.extend(&g.node(n).children);
    }
    false
}

/// Rewrite (b) on reduce Join `join`.
fn range_join(g: &mut PlanGraph, join: usize) -> Result<()> {
    let PlanOp::Join {
        kind,
        residual: None,
        ..
    } = g.node(join).op
    else {
        return Ok(());
    };
    let (rs_l, rs_r) = (g.node(join).parents[0], g.node(join).parents[1]);
    let keys = |rs: usize| match &g.node(rs).op {
        PlanOp::ReduceSink { keys, .. } => keys.clone(),
        _ => Vec::new(),
    };
    let (lkeys, rkeys) = (keys(rs_l), keys(rs_r));
    let pairs = lkeys.iter().zip(&rkeys);
    let ordered_pair = pairs
        .filter_map(|(l, r)| Some((key_order(g, rs_l, l)?, key_order(g, rs_r, r)?)))
        .next();
    let Some((left, right)) = ordered_pair else {
        return Ok(());
    };
    // The build side is read per task, so it must be a scan chain; a
    // preserved side of an outer join must stream.
    let size = |scan: usize| match &g.node(scan).op {
        PlanOp::TableScan { table, .. } => table.size_bytes,
        _ => u64::MAX,
    };
    let build_right = small_side(g, rs_r, u64::MAX)
        .filter(|_| matches!(kind, JoinType::Inner | JoinType::LeftOuter));
    let build_left = small_side(g, rs_l, u64::MAX).filter(|_| kind == JoinType::Inner);
    let pick_left = match (&build_left, &build_right) {
        (Some(l), Some(r)) => size(l.scan_id) < size(r.scan_id),
        (Some(_), None) => true,
        _ => false,
    };
    let (side, stream_rs, build_rs, stream, build) = match (build_left, build_right) {
        (Some(side), _) if pick_left => (side, rs_r, rs_l, right, left),
        (_, Some(side)) => (side, rs_l, rs_r, left, right),
        _ => return Ok(()),
    };
    let mj = convert(g, join, stream_rs, build_rs, side, kind, pick_left)?;
    if let PlanOp::MapJoin(s) = &mut g.node_mut(mj).op {
        s.range = Some(build.1);
    }
    g.ranged.insert(stream.0, stream.1);
    Ok(())
}
