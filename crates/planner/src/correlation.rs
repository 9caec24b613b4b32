//! The Correlation Optimizer (paper Section 5.2), after YSmart [Lee et al.,
//! ICDCS 2011].
//!
//! Two correlations are exploited:
//!
//! * **Job-flow correlation** — a downstream major operator's ReduceSink
//!   partitions on exactly the key its upstream major operator already
//!   partitioned on. The downstream ReduceSink is unnecessary: it degrades
//!   into a plain Select (keys ++ values), so both major operators execute
//!   in the *same* Reduce phase. (The Demux/Mux machinery that keeps such a
//!   plan executable is inserted by the task compiler.)
//! * **Input correlation** — two identical table scans feed ReduceSinks of
//!   the same job. The scans are merged so the table is loaded once.
//!
//! Correlation detection walks up from the FileSinks, stopping at each
//! ReduceSink and searching for the furthest correlated upstream
//! ReduceSinks, as Section 5.2.2 describes.

use crate::plan::{GroupByPhase, PlanGraph, PlanOp};
use hive_common::Result;
use hive_exec::expr::ExprNode;
use hive_exec::operators::JoinType;
use std::collections::BTreeMap;

/// Apply both correlation rewrites until a fixpoint.
pub fn optimize(g: &mut PlanGraph) -> Result<()> {
    // Job-flow correlations first: they enlarge reduce phases, which is
    // what makes input correlations land in the same job.
    loop {
        let mut changed = false;
        for rs in g.find(|n| matches!(n.op, PlanOp::ReduceSink { .. })) {
            if try_eliminate_reduce_sink(g, rs)? {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    merge_correlated_scans(g)?;
    Ok(())
}

/// Try to remove one ReduceSink via job-flow correlation.
fn try_eliminate_reduce_sink(g: &mut PlanGraph, rs: usize) -> Result<bool> {
    if !g.node(rs).alive {
        return Ok(false);
    }
    let PlanOp::ReduceSink {
        keys, degenerate, ..
    } = g.node(rs).op.clone()
    else {
        return Ok(false);
    };
    if degenerate {
        return Ok(false);
    }
    if keys.is_empty() {
        // Global aggregations funnel to one reducer; removing the shuffle
        // would change semantics.
        return Ok(false);
    }
    // The consumer must be a major operator.
    let Some(&consumer) = g.node(rs).children.first() else {
        return Ok(false);
    };
    if !g.node(consumer).op.is_major() {
        return Ok(false);
    }
    // All keys must be plain column references to be traceable.
    let mut key_cols = Vec::with_capacity(keys.len());
    for k in &keys {
        match k {
            ExprNode::Column(i) => key_cols.push(*i),
            _ => return Ok(false),
        }
    }
    // Walk upstream through Select/Filter to the producing operator,
    // tracking where each key column comes from. A map-side partial
    // GroupBy directly above the ReduceSink is part of the pattern: if the
    // shuffle goes away, so does the partial aggregation (the reduce-side
    // GroupBy then aggregates raw rows).
    let mut cur = match g.node(rs).parents.first() {
        Some(&p) => p,
        None => return Ok(false),
    };
    let mut partial_gby: Option<usize> = None;
    if let PlanOp::GroupBy {
        phase: GroupByPhase::MapHash,
        keys: gkeys,
        ..
    } = &g.node(cur).op
    {
        // Key columns of the GBY output (0..nk) map to its key exprs.
        let mut mapped = Vec::with_capacity(key_cols.len());
        for &c in &key_cols {
            match gkeys.get(c) {
                Some(ExprNode::Column(j)) => mapped.push(*j),
                _ => return Ok(false),
            }
        }
        partial_gby = Some(cur);
        key_cols = mapped;
        cur = g.node(cur).parents[0];
    }
    let mut cols = key_cols;
    loop {
        match &g.node(cur).op {
            PlanOp::Filter { .. } | PlanOp::Limit(_) => {
                cur = g.node(cur).parents[0];
            }
            PlanOp::Select { exprs } => {
                let mut mapped = Vec::with_capacity(cols.len());
                for &c in &cols {
                    match exprs.get(c) {
                        Some(ExprNode::Column(j)) => mapped.push(*j),
                        _ => return Ok(false),
                    }
                }
                cols = mapped;
                cur = g.node(cur).parents[0];
            }
            PlanOp::ReduceSink {
                keys: rkeys,
                values: rvals,
                degenerate: true,
                ..
            } => {
                // A degenerate sink projects keys ++ values.
                let nk2 = rkeys.len();
                let mut mapped = Vec::with_capacity(cols.len());
                for &c in &cols {
                    let e = if c < nk2 {
                        rkeys.get(c)
                    } else {
                        rvals.get(c - nk2)
                    };
                    match e {
                        Some(ExprNode::Column(j)) => mapped.push(*j),
                        _ => return Ok(false),
                    }
                }
                cols = mapped;
                cur = g.node(cur).parents[0];
            }
            PlanOp::GroupBy {
                phase: GroupByPhase::ReduceMerge,
                keys: gkeys,
                ..
            } => {
                // GroupBy output: keys at positions 0..nk.
                let nk = gkeys.len();
                if nk != cols.len() {
                    return Ok(false);
                }
                let ordinals: Vec<usize> = cols.clone();
                if ordinals != (0..nk).collect::<Vec<_>>() {
                    return Ok(false);
                }
                return apply_rewrite(g, rs, consumer, partial_gby);
            }
            PlanOp::Join {
                kind,
                input_widths: [lw, _],
                ..
            } => {
                // Join output layout: [k0..nk, left cols, k0..nk, right
                // cols]; key ordinals appear at 0..nk and at lw..lw+nk.
                let (kind, lw) = (*kind, *lw);
                // An outer join's group holds the rows of one key, but a
                // side it null-supplies may read NULL in some of them (a
                // row padded next to its key's matches, or a NULL key).
                // A join downstream tests each row's key; a GROUP BY takes
                // its group's key from the first row, so it may only key
                // on a side the join preserves.
                use JoinType::*;
                let preserved = [
                    matches!(kind, Inner | LeftOuter),
                    matches!(kind, Inner | RightOuter),
                ];
                let grouping = !matches!(g.node(consumer).op, PlanOp::Join { .. });
                if grouping && cols.iter().any(|&c| !preserved[usize::from(c >= lw)]) {
                    return Ok(false);
                }
                // Number of join keys: recover from any RS parent.
                let Some(jkeys) = g
                    .node(cur)
                    .parents
                    .iter()
                    .find_map(|&p| match &g.node(p).op {
                        PlanOp::ReduceSink { keys, .. } => Some(keys.clone()),
                        _ => None,
                    })
                else {
                    return Ok(false);
                };
                let nk = jkeys.len();
                if nk != cols.len() {
                    return Ok(false);
                }
                // Value columns that are copies of key expressions also
                // qualify (the RS re-emits every input column as a value).
                let rs_l = g.node(cur).parents[0];
                let rs_r = g.node(cur).parents[1];
                let key_ordinal_of_value = |rs: usize, v: usize| -> Option<usize> {
                    let PlanOp::ReduceSink { keys, .. } = &g.node(rs).op else {
                        return None;
                    };
                    keys.iter().position(|k| *k == ExprNode::Column(v))
                };
                let mut ordinals = Vec::with_capacity(cols.len());
                for &c in &cols {
                    if c < nk {
                        ordinals.push(c);
                    } else if c < lw {
                        match key_ordinal_of_value(rs_l, c - nk) {
                            Some(k) => ordinals.push(k),
                            None => return Ok(false),
                        }
                    } else if c < lw + nk {
                        ordinals.push(c - lw);
                    } else {
                        match key_ordinal_of_value(rs_r, c - lw - nk) {
                            Some(k) => ordinals.push(k),
                            None => return Ok(false),
                        }
                    }
                }
                if ordinals != (0..nk).collect::<Vec<_>>() {
                    return Ok(false);
                }
                // An inner join's rows all have the group's key. A preserved
                // side's rows keep their input's key, which is the group's
                // unless that input is a correlated join that null-supplies
                // it: a GROUP BY follows the side up to its real shuffle.
                let side = match kind {
                    LeftOuter => rs_l,
                    RightOuter => rs_r,
                    _ => return apply_rewrite(g, rs, consumer, partial_gby),
                };
                let degenerate = matches!(
                    g.node(side).op,
                    PlanOp::ReduceSink {
                        degenerate: true,
                        ..
                    }
                );
                if !grouping || !degenerate {
                    return apply_rewrite(g, rs, consumer, partial_gby);
                }
                cols = ordinals;
                cur = side;
            }
            _ => return Ok(false),
        }
    }
}

/// Perform the rewrite once a correlation is confirmed.
fn apply_rewrite(
    g: &mut PlanGraph,
    rs: usize,
    consumer: usize,
    partial_gby: Option<usize>,
) -> Result<bool> {
    match partial_gby {
        None => Ok(mark_degenerate(g, rs)),
        Some(gbm) => {
            // Pattern: chain → GBY(MapHash) → RS → GBY(ReduceMerge).
            // The consumer must be the merging GroupBy; it takes over the
            // map GBY's raw keys and arguments and aggregates complete.
            let PlanOp::GroupBy {
                phase: GroupByPhase::ReduceMerge,
                ..
            } = g.node(consumer).op.clone()
            else {
                return Ok(false);
            };
            let PlanOp::GroupBy {
                keys: raw_keys,
                aggs: raw_aggs,
                ..
            } = g.node(gbm).op.clone()
            else {
                return Ok(false);
            };
            g.node_mut(consumer).op = PlanOp::GroupBy {
                phase: GroupByPhase::ReduceComplete,
                keys: raw_keys,
                aggs: raw_aggs,
            };
            g.splice_out(rs)?;
            g.splice_out(gbm)?;
            Ok(true)
        }
    }
}

/// Mark the redundant ReduceSink degenerate: it now executes as a plain
/// projection (keys ++ values) in the upstream Reduce phase and stops
/// being a job boundary.
fn mark_degenerate(g: &mut PlanGraph, rs: usize) -> bool {
    if let PlanOp::ReduceSink { degenerate, .. } = &mut g.node_mut(rs).op {
        *degenerate = true;
    }
    true
}

/// Merge identical TableScans whose ReduceSinks land in the same job
/// (input correlation): the shared table is then loaded once.
fn merge_correlated_scans(g: &mut PlanGraph) -> Result<()> {
    let frag = fragments(g);
    let scans = g.scans();
    for i in 0..scans.len() {
        for j in (i + 1)..scans.len() {
            let (a, b) = (scans[i], scans[j]);
            if !g.node(a).alive || !g.node(b).alive {
                continue;
            }
            if !scans_identical(g, a, b) {
                continue;
            }
            // Same job: every consuming reduce fragment of a's sink RSs must
            // coincide with b's.
            let fa = sink_fragments(g, a, &frag);
            let fb = sink_fragments(g, b, &frag);
            if fa.is_empty() || fa != fb {
                continue;
            }
            // Merge b into a: a adopts b's children.
            let b_children = g.node(b).children.clone();
            for &c in &b_children {
                for slot in g.node_mut(c).parents.iter_mut() {
                    if *slot == b {
                        *slot = a;
                    }
                }
                g.node_mut(a).children.push(c);
            }
            let nb = g.node_mut(b);
            nb.alive = false;
            nb.children.clear();
            nb.parents.clear();
        }
    }
    Ok(())
}

fn scans_identical(g: &PlanGraph, a: usize, b: usize) -> bool {
    let (
        PlanOp::TableScan {
            table: ta,
            projection: pa,
            sarg: sa,
            ..
        },
        PlanOp::TableScan {
            table: tb,
            projection: pb,
            sarg: sb,
            ..
        },
    ) = (&g.node(a).op, &g.node(b).op)
    else {
        return false;
    };
    // Scans whose tasks own different ranges do not read the same rows.
    let ranged = g.ranged.get(&a) == g.ranged.get(&b);
    ta.name == tb.name && pa == pb && sa == sb && ranged
}

/// Fragment ids of the reduce fragments this scan's downstream RSs feed.
fn sink_fragments(g: &PlanGraph, scan: usize, frag: &BTreeMap<usize, usize>) -> Vec<usize> {
    let mut out = Vec::new();
    let mut stack = vec![scan];
    let mut seen = vec![false; g.nodes.len()];
    while let Some(n) = stack.pop() {
        if seen[n] {
            continue;
        }
        seen[n] = true;
        if let PlanOp::ReduceSink {
            degenerate: false, ..
        } = g.node(n).op
        {
            for &c in &g.node(n).children {
                if let Some(&f) = frag.get(&c) {
                    out.push(f);
                }
            }
            continue;
        }
        for &c in &g.node(n).children {
            stack.push(c);
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Union-find fragments over non-boundary edges (boundaries: RS→child and
/// IntermediateCut→child).
pub fn fragments(g: &PlanGraph) -> BTreeMap<usize, usize> {
    let n = g.nodes.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != c {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    for node in &g.nodes {
        if !node.alive {
            continue;
        }
        let boundary = matches!(
            node.op,
            PlanOp::ReduceSink {
                degenerate: false,
                ..
            } | PlanOp::IntermediateCut
        );
        if boundary {
            continue; // edges out of a boundary op start a new fragment
        }
        for &c in &node.children {
            let (ra, rb) = (find(&mut parent, node.id), find(&mut parent, c));
            parent[ra] = rb;
        }
    }
    let mut out = BTreeMap::new();
    for node in &g.nodes {
        if node.alive {
            let r = find(&mut parent, node.id);
            out.insert(node.id, r);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{StaticCatalog, TableMeta};
    use crate::semantic::translate;
    use hive_common::{HiveConf, Schema};
    use hive_ql::{parse, Statement};

    fn catalog() -> StaticCatalog {
        let t = |name: &str, cols: &[(&str, &str)], size: u64| TableMeta {
            name: name.into(),
            schema: Schema::parse(cols).unwrap(),
            format: hive_formats::FormatKind::Orc,
            paths: vec![format!("/w/{name}")],
            size_bytes: size,
            acid: None,
        };
        StaticCatalog {
            tables: vec![
                t(
                    "big2",
                    &[
                        ("key", "bigint"),
                        ("value1", "double"),
                        ("value2", "double"),
                    ],
                    1 << 30,
                ),
                t(
                    "big3",
                    &[
                        ("key", "bigint"),
                        ("value1", "double"),
                        ("value2", "double"),
                    ],
                    1 << 30,
                ),
            ],
        }
    }

    fn graph_for(sql: &str) -> PlanGraph {
        let Statement::Select(stmt) = parse(sql).unwrap() else {
            panic!()
        };
        translate(&stmt, &catalog(), &HiveConf::new())
            .unwrap()
            .graph
    }

    fn count_rs(g: &PlanGraph) -> usize {
        g.find(|n| {
            matches!(
                n.op,
                PlanOp::ReduceSink {
                    degenerate: false,
                    ..
                }
            )
        })
        .len()
    }

    #[test]
    fn join_then_group_by_same_key_drops_a_shuffle() {
        // Job-flow correlation: GROUP BY on the join key.
        let mut g = graph_for(
            "SELECT big2.key, sum(big3.value1) FROM big2 \
             JOIN big3 ON (big2.key = big3.key) GROUP BY big2.key",
        );
        assert_eq!(count_rs(&g), 3, "2 join RSs + 1 group-by RS");
        optimize(&mut g).unwrap();
        assert_eq!(count_rs(&g), 2, "the group-by RS must be eliminated");
    }

    #[test]
    fn group_by_different_key_is_untouched() {
        let mut g = graph_for(
            "SELECT big3.value1, count(*) FROM big2 \
             JOIN big3 ON (big2.key = big3.key) GROUP BY big3.value1",
        );
        let before = count_rs(&g);
        optimize(&mut g).unwrap();
        assert_eq!(count_rs(&g), before, "different key ⇒ no correlation");
    }

    #[test]
    fn self_join_scans_merge() {
        let mut g = graph_for(
            "SELECT a.key, count(*) FROM big2 a JOIN big2 b ON (a.key = b.key) \
             GROUP BY a.key",
        );
        assert_eq!(g.scans().len(), 2);
        optimize(&mut g).unwrap();
        assert_eq!(
            g.scans().len(),
            1,
            "identical scans merge (input correlation)"
        );
    }

    #[test]
    fn global_aggregate_keeps_its_shuffle() {
        let mut g =
            graph_for("SELECT sum(big3.value1) FROM big2 JOIN big3 ON (big2.key = big3.key)");
        let before = count_rs(&g);
        optimize(&mut g).unwrap();
        assert_eq!(count_rs(&g), before);
    }
}
