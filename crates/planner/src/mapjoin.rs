//! Reduce Join → Map Join conversion (paper Section 5.1).
//!
//! "One representative example is, for a two way join, to build a hashtable
//! for the smaller table and load it in every Map task reading the larger
//! table for a hash join." When a join side is a simple scan chain
//! (TableScan [→ Filter]) over a table below the small-table threshold, the
//! Join and its two ReduceSinks are replaced by a MapJoin operator on the
//! streamed side, and the small side becomes a broadcast ("distributed
//! cache") input.

use crate::plan::{ColumnInfo, MapJoinSide, PlanGraph, PlanOp};
use hive_common::config::keys;
use hive_common::{HiveConf, Result};
use hive_exec::expr::ExprNode;
use hive_exec::operators::JoinType;

/// A join side that qualifies as a Map Join build side.
pub(crate) struct SmallSide {
    pub(crate) scan_id: usize,
    filter: Option<ExprNode>,
    /// Nodes to delete when converting (scan + filter chain + its RS).
    chain: Vec<usize>,
}

/// Convert every eligible Reduce Join into a Map Join.
pub fn convert_map_joins(g: &mut PlanGraph, conf: &HiveConf) -> Result<()> {
    let threshold = conf.get_usize(keys::MAPJOIN_SMALLTABLE_SIZE)? as u64;
    // Joins are visited bottom-up (lower ids were added earlier = closer to
    // the scans), so chained star joins convert one by one.
    let join_ids = g.find(|n| matches!(n.op, PlanOp::Join { .. }));
    for j in join_ids {
        try_convert(g, j, threshold)?;
    }
    Ok(())
}

fn try_convert(g: &mut PlanGraph, join_id: usize, threshold: u64) -> Result<()> {
    if !g.node(join_id).alive {
        return Ok(());
    }
    // A residual tests each pair inside the join: it stays a reduce join.
    let PlanOp::Join {
        kind,
        residual: None,
        ..
    } = g.node(join_id).op
    else {
        return Ok(());
    };
    let (rs_l, rs_r) = (g.node(join_id).parents[0], g.node(join_id).parents[1]);

    // Outer joins can only stream the preserved side.
    let right_ok = matches!(kind, JoinType::Inner | JoinType::LeftOuter);
    let left_ok = matches!(kind, JoinType::Inner);
    let small_r = if right_ok {
        small_side(g, rs_r, threshold)
    } else {
        None
    };
    let small_l = if left_ok {
        small_side(g, rs_l, threshold)
    } else {
        None
    };

    // Prefer hashing the right side (keeps column order without a
    // permutation); fall back to the left for inner joins.
    if let Some(side) = small_r {
        convert(g, join_id, rs_l, rs_r, side, kind, false)?;
    } else if let Some(side) = small_l {
        convert(g, join_id, rs_r, rs_l, side, kind, true)?;
    }
    Ok(())
}

/// Check whether the subtree above `rs` is a scan chain over a small table.
pub(crate) fn small_side(g: &PlanGraph, rs: usize, threshold: u64) -> Option<SmallSide> {
    let mut chain = vec![rs];
    let mut cur = *g.node(rs).parents.first()?;
    let mut filter = None;
    loop {
        match &g.node(cur).op {
            PlanOp::Filter { predicate } => {
                // Conjoin stacked filters.
                filter = Some(match filter {
                    None => predicate.clone(),
                    Some(f) => {
                        ExprNode::binary(hive_exec::expr::BinaryOp::And, predicate.clone(), f)
                    }
                });
                chain.push(cur);
                cur = *g.node(cur).parents.first()?;
            }
            PlanOp::TableScan { table, .. } => {
                if table.size_bytes <= threshold {
                    chain.push(cur);
                    return Some(SmallSide {
                        scan_id: cur,
                        filter,
                        chain,
                    });
                }
                return None;
            }
            _ => return None,
        }
    }
}

/// Perform the rewrite. `stream_rs` is the big side's ReduceSink,
/// `build_rs` the small side's. `swapped` means the build side is the
/// join's LEFT input (output needs a permutation to keep its layout).
/// Returns the MapJoin.
pub(crate) fn convert(
    g: &mut PlanGraph,
    join_id: usize,
    stream_rs: usize,
    build_rs: usize,
    side: SmallSide,
    kind: JoinType,
    swapped: bool,
) -> Result<usize> {
    let PlanOp::TableScan {
        alias,
        table,
        projection,
        sarg,
    } = g.node(side.scan_id).op.clone()
    else {
        unreachable!()
    };
    let PlanOp::ReduceSink {
        keys: build_keys, ..
    } = g.node(build_rs).op.clone()
    else {
        unreachable!()
    };
    let PlanOp::ReduceSink {
        keys: stream_keys,
        values: stream_vals,
        ..
    } = g.node(stream_rs).op.clone()
    else {
        unreachable!()
    };
    let nk = build_keys.len();
    let small_width = projection.len();
    let stream_parent = g.node(stream_rs).parents[0];
    let stream_schema = g.node(stream_parent).schema.clone();
    let join_schema = g.node(join_id).schema.clone();
    let join_children = g.node(join_id).children.clone();

    // 1. A Select prepending the stream's join keys (the layout an RS would
    //    have produced: keys ++ values).
    let mut sel_exprs = stream_keys.clone();
    sel_exprs.extend(stream_vals.clone());
    let mut sel_schema: Vec<ColumnInfo> = Vec::new();
    for (i, k) in stream_keys.iter().enumerate() {
        let t = crate::plan::expr_type(k, &stream_schema)?;
        sel_schema.push(ColumnInfo::new(format!("_key{i}"), t));
    }
    sel_schema.extend(stream_schema.clone());
    let sel = g.add(
        PlanOp::Select { exprs: sel_exprs },
        sel_schema.clone(),
        vec![stream_parent],
    );

    // 2. The MapJoin. Hash-table rows are stored as keys ++ projected
    //    columns; probing appends them to the stream.
    let mj_side = MapJoinSide {
        alias: format!("{alias}#{}", side.scan_id),
        table,
        projection,
        build_filter: side.filter,
        build_keys,
        stream_keys: (0..nk).map(ExprNode::col).collect(),
        join_type: kind,
        width: nk + small_width,
        range: None,
        build_sarg: sarg,
    };
    // MapJoin raw output: [stream_keys, stream_cols, build_keys, build_cols].
    let mut mj_schema = sel_schema.clone();
    for (i, key) in sel_schema[..nk].iter().enumerate() {
        mj_schema.push(ColumnInfo::new(format!("_bkey{i}"), key.data_type.clone()));
    }
    mj_schema.extend(g.node(side.scan_id).schema.clone());
    let mj = g.add(PlanOp::MapJoin(mj_side), mj_schema.clone(), vec![sel]);

    // 3. Restore the original join's column order if the build side was
    //    the join's left input.
    let out = if swapped {
        // Raw layout: [rkeys, rcols, lkeys, lcols] (stream = right).
        // Target:     [lkeys, lcols, rkeys, rcols].
        let rw = sel_schema.len(); // nk + right cols
        let lw = mj_schema.len() - rw;
        let mut perm: Vec<ExprNode> = Vec::with_capacity(mj_schema.len());
        for i in 0..lw {
            perm.push(ExprNode::col(rw + i));
        }
        for i in 0..rw {
            perm.push(ExprNode::col(i));
        }
        g.add(
            PlanOp::Select { exprs: perm },
            join_schema.clone(),
            vec![mj],
        )
    } else {
        mj
    };

    // 4. Rewire the join's children onto the MapJoin output.
    for &c in &join_children {
        for slot in g.node_mut(c).parents.iter_mut() {
            if *slot == join_id {
                *slot = out;
            }
        }
        g.node_mut(out).children.push(c);
    }

    // 5. Kill the replaced nodes.
    for dead in side.chain.iter().copied().chain([join_id, stream_rs]) {
        let n = g.node_mut(dead);
        n.alive = false;
        n.children.clear();
        n.parents.clear();
    }
    // Unhook stream_parent's edge to the dead RS.
    g.node_mut(stream_parent)
        .children
        .retain(|&c| c != stream_rs);
    Ok(mj)
}
