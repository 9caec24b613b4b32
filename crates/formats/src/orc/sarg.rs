//! SearchArgument: the predicate representation pushed down to the ORC
//! reader (paper Section 4.2 — "the query processing engine of Hive can
//! push certain predicates to the reader of an ORC file").
//!
//! A search argument is a conjunction of leaves over top-level columns;
//! each leaf is evaluated against column statistics to a three-valued
//! verdict. `No` lets the reader skip a whole stripe or index group.

use crate::orc::stats::ColumnStatistics;
use hive_common::key::compare;
use hive_common::Value;
use std::cmp::Ordering;

/// Three-valued evaluation result against statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthValue {
    /// Every row in the span satisfies the predicate.
    Yes,
    /// No row in the span can satisfy the predicate — skip it.
    No,
    /// The statistics cannot decide; the span must be read.
    Maybe,
}

impl TruthValue {
    fn and(self, other: TruthValue) -> TruthValue {
        use TruthValue::*;
        match (self, other) {
            (No, _) | (_, No) => No,
            (Yes, Yes) => Yes,
            _ => Maybe,
        }
    }
}

/// Comparison operator of a predicate leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredicateOp {
    Equals,
    NotEquals,
    LessThan,
    LessThanEquals,
    GreaterThan,
    GreaterThanEquals,
    /// `BETWEEN lo AND hi` carries two literals.
    Between,
    /// `IN (v1, v2, ...)` carries `literal_list`.
    In,
    IsNull,
    IsNotNull,
}

/// One predicate: `column ⋈ literal(s)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateLeaf {
    /// Top-level column index in the table schema.
    pub column: usize,
    pub op: PredicateOp,
    pub literal: Option<Value>,
    /// Second literal for BETWEEN.
    pub literal2: Option<Value>,
    /// Literals for IN.
    pub literal_list: Vec<Value>,
}

impl PredicateLeaf {
    pub fn new(column: usize, op: PredicateOp, literal: Option<Value>) -> PredicateLeaf {
        PredicateLeaf {
            column,
            op,
            literal,
            literal2: None,
            literal_list: Vec::new(),
        }
    }

    pub fn between(column: usize, lo: Value, hi: Value) -> PredicateLeaf {
        PredicateLeaf {
            column,
            op: PredicateOp::Between,
            literal: Some(lo),
            literal2: Some(hi),
            literal_list: Vec::new(),
        }
    }

    pub fn in_list(column: usize, values: Vec<Value>) -> PredicateLeaf {
        PredicateLeaf {
            column,
            op: PredicateOp::In,
            literal: None,
            literal2: None,
            literal_list: values,
        }
    }

    /// Evaluate against the span's statistics for this leaf's column.
    pub fn evaluate(&self, stats: &ColumnStatistics) -> TruthValue {
        use PredicateOp::*;
        use TruthValue::*;
        if stats.count() == 0 {
            // Span holds only nulls (or nothing).
            return match self.op {
                IsNull => {
                    if stats.has_null() {
                        Yes
                    } else {
                        Maybe
                    }
                }
                _ => No,
            };
        }
        match self.op {
            IsNull => {
                return if stats.has_null() { Maybe } else { No };
            }
            IsNotNull => {
                return if stats.has_null() { Maybe } else { Yes };
            }
            _ => {}
        }
        let (Some(min), Some(max)) = (stats.min_value(), stats.max_value()) else {
            return Maybe;
        };
        if self.op == In {
            // Skippable when every listed value falls outside [min, max].
            if self.literal_list.is_empty() {
                return No;
            }
            let any_possible = self
                .literal_list
                .iter()
                .any(|v| stored_compare(v, &min).is_ge() && stored_compare(v, &max).is_le());
            return if !any_possible { No } else { Maybe };
        }
        let Some(lit) = &self.literal else {
            return Maybe;
        };
        // NULLs make even an all-in-range span only Maybe-true for non-null
        // comparisons, because NULL rows fail the predicate.
        let weaken = |t: TruthValue| {
            if stats.has_null() && t == Yes {
                Maybe
            } else {
                t
            }
        };
        let cmp_min = stored_compare(lit, &min); // lit vs min
        let cmp_max = stored_compare(lit, &max); // lit vs max
        match self.op {
            Equals => {
                if cmp_min == Ordering::Less || cmp_max == Ordering::Greater {
                    No
                } else if cmp_min == Ordering::Equal && cmp_max == Ordering::Equal {
                    weaken(Yes)
                } else {
                    Maybe
                }
            }
            NotEquals => {
                if cmp_min == Ordering::Equal && cmp_max == Ordering::Equal {
                    No
                } else if cmp_min == Ordering::Less || cmp_max == Ordering::Greater {
                    weaken(Yes)
                } else {
                    Maybe
                }
            }
            LessThan => {
                // col < lit
                if cmp_min != Ordering::Greater {
                    // lit <= min → nothing qualifies
                    No
                } else if cmp_max == Ordering::Greater {
                    // max < lit → everything qualifies
                    weaken(Yes)
                } else {
                    Maybe
                }
            }
            LessThanEquals => {
                if cmp_min == Ordering::Less {
                    No
                } else if cmp_max != Ordering::Less {
                    weaken(Yes)
                } else {
                    Maybe
                }
            }
            GreaterThan => {
                if cmp_max != Ordering::Less {
                    No
                } else if cmp_min == Ordering::Less {
                    weaken(Yes)
                } else {
                    Maybe
                }
            }
            GreaterThanEquals => {
                if cmp_max == Ordering::Greater {
                    No
                } else if cmp_min != Ordering::Greater {
                    weaken(Yes)
                } else {
                    Maybe
                }
            }
            Between => {
                let Some(hi) = &self.literal2 else {
                    return Maybe;
                };
                let lo = lit;
                // No overlap: hi < min or lo > max.
                if stored_compare(hi, &min).is_lt() || stored_compare(lo, &max).is_gt() {
                    No
                } else if stored_compare(lo, &min).is_le() && stored_compare(hi, &max).is_ge() {
                    weaken(Yes)
                } else {
                    Maybe
                }
            }
            In | IsNull | IsNotNull => unreachable!("handled above"),
        }
    }
}

/// `lit` against a statistics bound by the value rule, the literal taken as
/// its column's statistics store it: a TIMESTAMP column keeps INT statistics
/// (its `i64`), so a TIMESTAMP literal meets them as that INT — as the bloom
/// probe hashes it.
fn stored_compare(lit: &Value, bound: &Value) -> Ordering {
    match lit {
        Value::Timestamp(x) => compare(&Value::Int(*x), bound),
        lit => compare(lit, bound),
    }
}

/// A conjunction of predicate leaves.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SearchArgument {
    pub leaves: Vec<PredicateLeaf>,
}

impl SearchArgument {
    pub fn new(leaves: Vec<PredicateLeaf>) -> SearchArgument {
        SearchArgument { leaves }
    }

    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// Evaluate the conjunction against per-column statistics.
    /// `stats_for(col)` returns the span's statistics for a top-level
    /// column, or `None` when unavailable (treated as `Maybe`).
    pub fn evaluate<'a>(
        &self,
        stats_for: impl Fn(usize) -> Option<&'a ColumnStatistics>,
    ) -> TruthValue {
        let mut acc = TruthValue::Yes;
        for leaf in &self.leaves {
            let t = match stats_for(leaf.column) {
                Some(s) => leaf.evaluate(s),
                None => TruthValue::Maybe,
            };
            acc = acc.and(t);
            if acc == TruthValue::No {
                return TruthValue::No;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int_stats(min: i64, max: i64, has_null: bool) -> ColumnStatistics {
        ColumnStatistics::Int {
            count: 100,
            has_null,
            min: Some(min),
            max: Some(max),
            sum: None,
        }
    }

    #[test]
    fn between_skips_disjoint_spans() {
        // The SS-DB q1 shape: x BETWEEN 0 AND 3750.
        let leaf = PredicateLeaf::between(0, Value::Int(0), Value::Int(3750));
        assert_eq!(leaf.evaluate(&int_stats(4000, 8000, false)), TruthValue::No);
        assert_eq!(leaf.evaluate(&int_stats(0, 3000, false)), TruthValue::Yes);
        assert_eq!(
            leaf.evaluate(&int_stats(3000, 5000, false)),
            TruthValue::Maybe
        );
    }

    #[test]
    fn comparison_boundaries() {
        let lt = PredicateLeaf::new(0, PredicateOp::LessThan, Some(Value::Int(10)));
        assert_eq!(lt.evaluate(&int_stats(10, 20, false)), TruthValue::No);
        assert_eq!(lt.evaluate(&int_stats(0, 9, false)), TruthValue::Yes);
        assert_eq!(lt.evaluate(&int_stats(0, 10, false)), TruthValue::Maybe);

        let ge = PredicateLeaf::new(0, PredicateOp::GreaterThanEquals, Some(Value::Int(10)));
        assert_eq!(ge.evaluate(&int_stats(0, 9, false)), TruthValue::No);
        assert_eq!(ge.evaluate(&int_stats(10, 20, false)), TruthValue::Yes);
        assert_eq!(ge.evaluate(&int_stats(5, 15, false)), TruthValue::Maybe);
    }

    #[test]
    fn equals_and_not_equals() {
        let eq = PredicateLeaf::new(0, PredicateOp::Equals, Some(Value::Int(7)));
        assert_eq!(eq.evaluate(&int_stats(8, 9, false)), TruthValue::No);
        assert_eq!(eq.evaluate(&int_stats(7, 7, false)), TruthValue::Yes);
        assert_eq!(eq.evaluate(&int_stats(5, 9, false)), TruthValue::Maybe);

        let ne = PredicateLeaf::new(0, PredicateOp::NotEquals, Some(Value::Int(7)));
        assert_eq!(ne.evaluate(&int_stats(7, 7, false)), TruthValue::No);
        assert_eq!(ne.evaluate(&int_stats(8, 9, false)), TruthValue::Yes);
        assert_eq!(ne.evaluate(&int_stats(5, 9, false)), TruthValue::Maybe);
    }

    #[test]
    fn nulls_weaken_yes_to_maybe() {
        let lt = PredicateLeaf::new(0, PredicateOp::LessThan, Some(Value::Int(100)));
        assert_eq!(lt.evaluate(&int_stats(0, 9, true)), TruthValue::Maybe);
    }

    #[test]
    fn null_predicates() {
        let isnull = PredicateLeaf::new(0, PredicateOp::IsNull, None);
        assert_eq!(isnull.evaluate(&int_stats(0, 9, false)), TruthValue::No);
        assert_eq!(isnull.evaluate(&int_stats(0, 9, true)), TruthValue::Maybe);
        let notnull = PredicateLeaf::new(0, PredicateOp::IsNotNull, None);
        assert_eq!(notnull.evaluate(&int_stats(0, 9, false)), TruthValue::Yes);
    }

    #[test]
    fn string_predicates() {
        let stats = ColumnStatistics::String {
            count: 10,
            has_null: false,
            min: Some(b"f".to_vec()),
            max: Some(b"m".to_vec()),
            total_length: 10,
        };
        let le = PredicateLeaf::new(
            0,
            PredicateOp::LessThanEquals,
            Some(Value::String("e".into())),
        );
        assert_eq!(le.evaluate(&stats), TruthValue::No);
        let ge = PredicateLeaf::new(
            0,
            PredicateOp::GreaterThanEquals,
            Some(Value::String("a".into())),
        );
        assert_eq!(ge.evaluate(&stats), TruthValue::Yes);
    }

    #[test]
    fn conjunction_short_circuits() {
        let sarg = SearchArgument::new(vec![
            PredicateLeaf::between(0, Value::Int(0), Value::Int(10)),
            PredicateLeaf::between(1, Value::Int(0), Value::Int(10)),
        ]);
        let s0 = int_stats(0, 5, false);
        let s1 = int_stats(50, 60, false);
        let v = sarg.evaluate(|c| Some(if c == 0 { &s0 } else { &s1 }));
        assert_eq!(v, TruthValue::No);
        let v2 = sarg.evaluate(|_| Some(&s0));
        assert_eq!(v2, TruthValue::Yes);
        let v3 = sarg.evaluate(|_| None);
        assert_eq!(v3, TruthValue::Maybe);
    }

    #[test]
    fn in_list_skips_disjoint_spans() {
        let leaf = PredicateLeaf::in_list(0, vec![Value::Int(5), Value::Int(105)]);
        assert_eq!(leaf.evaluate(&int_stats(10, 90, false)), TruthValue::No);
        assert_eq!(leaf.evaluate(&int_stats(0, 7, false)), TruthValue::Maybe);
        assert_eq!(
            leaf.evaluate(&int_stats(100, 200, false)),
            TruthValue::Maybe
        );
        let strings = ColumnStatistics::String {
            count: 5,
            has_null: false,
            min: Some(b"CA".to_vec()),
            max: Some(b"GA".to_vec()),
            total_length: 10,
        };
        let states = PredicateLeaf::in_list(
            0,
            vec![Value::String("TN".into()), Value::String("SD".into())],
        );
        assert_eq!(states.evaluate(&strings), TruthValue::No);
    }

    #[test]
    fn timestamp_literals_meet_the_int_statistics_of_their_column() {
        let ts = |ms| Some(Value::Timestamp(ms));
        let eq = PredicateLeaf::new(0, PredicateOp::Equals, ts(5));
        assert_eq!(eq.evaluate(&int_stats(0, 9, false)), TruthValue::Maybe);
        assert_eq!(eq.evaluate(&int_stats(6, 9, false)), TruthValue::No);
        let gt = PredicateLeaf::new(0, PredicateOp::GreaterThan, ts(5));
        assert_eq!(gt.evaluate(&int_stats(6, 9, false)), TruthValue::Yes);
        let within = PredicateLeaf::in_list(0, vec![Value::Timestamp(5)]);
        assert_eq!(within.evaluate(&int_stats(0, 9, false)), TruthValue::Maybe);
    }

    #[test]
    fn all_null_span() {
        let stats = ColumnStatistics::Int {
            count: 0,
            has_null: true,
            min: None,
            max: None,
            sum: None,
        };
        let lt = PredicateLeaf::new(0, PredicateOp::LessThan, Some(Value::Int(10)));
        assert_eq!(lt.evaluate(&stats), TruthValue::No);
        let isnull = PredicateLeaf::new(0, PredicateOp::IsNull, None);
        assert_eq!(isnull.evaluate(&stats), TruthValue::Yes);
    }
}
