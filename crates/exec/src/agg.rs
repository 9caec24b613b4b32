//! Row-mode aggregate functions. Every function's partial is its final
//! value — the binder rewrites AVG as SUM / COUNT (DESIGN.md §16) — so one
//! state serves the map-side hash GroupBy, the reduce-side merge and a
//! single-stage aggregate alike. The merge differs only in its functions:
//! COUNT's partial counts are summed by `MergeCount`.

use hive_common::{key, DataType, HiveError, Result, Value};

/// The aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunction {
    CountStar,
    Count,
    /// COUNT's reduce-side merge: the sum of the partial counts, 0 over none.
    MergeCount,
    Sum,
    Min,
    Max,
}

/// Running state for one aggregate in one group.
#[derive(Debug, Clone, PartialEq)]
pub enum RowAggState {
    /// Rows seen.
    CountStar(i64),
    /// Non-NULL values seen.
    Count(i64),
    /// The sum of the partial counts seen.
    MergeCount(i64),
    /// SUM over BIGINT wraps; NULL until a non-NULL input.
    SumLong(Option<i64>),
    /// SUM over DOUBLE adds in input order; NULL until a non-NULL input.
    SumDouble(Option<f64>),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl RowAggState {
    /// `output_type`: the planned result type. It types SUM's accumulator,
    /// as `SumLong` / `SumDouble` do in the vector engine: a SUM is planned
    /// as its argument's type.
    pub fn new(function: AggFunction, output_type: &DataType) -> RowAggState {
        match function {
            AggFunction::CountStar => RowAggState::CountStar(0),
            AggFunction::Count => RowAggState::Count(0),
            AggFunction::MergeCount => RowAggState::MergeCount(0),
            AggFunction::Sum if *output_type == DataType::Double => RowAggState::SumDouble(None),
            AggFunction::Sum => RowAggState::SumLong(None),
            AggFunction::Min => RowAggState::Min(None),
            AggFunction::Max => RowAggState::Max(None),
        }
    }

    /// Feed one input value (the evaluated argument; ignored for COUNT(*)).
    pub fn update(&mut self, v: &Value) -> Result<()> {
        use RowAggState::*;
        match (&mut *self, v) {
            (CountStar(n), _) => *n += 1,
            (_, Value::Null) => {}
            (Count(n), _) => *n += 1,
            (MergeCount(n), Value::Int(x)) => *n += x,
            (SumLong(s), Value::Int(x)) => *s = Some(s.unwrap_or(0).wrapping_add(*x)),
            (SumDouble(s), Value::Double(x)) => *s = Some(s.unwrap_or(0.0) + x),
            // The extreme is kept canonical: which of two equal values
            // (`-0.0`, `0.0`) a split met first does not show.
            (Min(m), v) => {
                if m.as_ref().is_none_or(|m| key::compare(v, m).is_lt()) {
                    *m = Some(key::canonical(v.clone()));
                }
            }
            (Max(m), v) => {
                if m.as_ref().is_none_or(|m| key::compare(v, m).is_gt()) {
                    *m = Some(key::canonical(v.clone()));
                }
            }
            (state, v) => return Err(HiveError::Type(format!("{state:?} cannot take {v}"))),
        }
        Ok(())
    }

    /// The group's value: what the map side shuffles, and what the merge
    /// or a single-stage aggregate answers.
    pub fn value(&self) -> Value {
        use RowAggState::*;
        match self {
            CountStar(n) | Count(n) | MergeCount(n) => Value::Int(*n),
            SumLong(s) => s.map_or(Value::Null, Value::Int),
            SumDouble(s) => s.map_or(Value::Null, Value::Double),
            Min(m) | Max(m) => m.clone().unwrap_or(Value::Null),
        }
    }
}

/// Parse a function name from HiveQL. AVG is not one: the binder rewrites
/// it as SUM / COUNT.
pub fn parse_agg_function(name: &str, star: bool) -> Option<AggFunction> {
    Some(match (name, star) {
        ("count", true) => AggFunction::CountStar,
        ("count", false) => AggFunction::Count,
        ("sum", _) => AggFunction::Sum,
        ("min", _) => AggFunction::Min,
        ("max", _) => AggFunction::Max,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(function: AggFunction, output_type: &DataType, values: &[Value]) -> Value {
        let mut s = RowAggState::new(function, output_type);
        for v in values {
            s.update(v).unwrap();
        }
        s.value()
    }

    #[test]
    fn complete_mode_basics() {
        let vals = [Value::Int(1), Value::Null, Value::Int(2)];
        assert_eq!(fold(AggFunction::Sum, &DataType::Int, &vals), Value::Int(3));
        assert_eq!(
            fold(AggFunction::Count, &DataType::Int, &vals),
            Value::Int(2)
        );
        let mut star = RowAggState::new(AggFunction::CountStar, &DataType::Int);
        for v in &vals {
            star.update(v).unwrap();
        }
        assert_eq!(star.value(), Value::Int(3));
    }

    #[test]
    fn partial_then_final_equals_complete() {
        // Split [1,2,3,4] into two partials and merge: the merge runs the
        // same function, but for COUNT, whose partials MergeCount sums.
        for f in [
            AggFunction::Sum,
            AggFunction::Count,
            AggFunction::Min,
            AggFunction::Max,
            AggFunction::CountStar,
        ] {
            let vals = [Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)];
            let int = DataType::Int;
            let partials = [fold(f, &int, &vals[..2]), fold(f, &int, &vals[2..])];
            let merge = match f {
                AggFunction::Count | AggFunction::CountStar => AggFunction::MergeCount,
                f => f,
            };
            assert_eq!(fold(merge, &int, &partials), fold(f, &int, &vals), "{f:?}");
        }
    }

    #[test]
    fn empty_groups() {
        for (f, want) in [
            (AggFunction::Sum, Value::Null),
            (AggFunction::Count, Value::Int(0)),
            (AggFunction::MergeCount, Value::Int(0)),
            (AggFunction::Min, Value::Null),
        ] {
            assert_eq!(fold(f, &DataType::Double, &[Value::Null]), want, "{f:?}");
        }
    }

    #[test]
    fn sum_takes_its_planned_type() {
        // BIGINT wraps, DOUBLE adds; a value of the other type is an error.
        let max = Value::Int(i64::MAX);
        assert_eq!(
            fold(
                AggFunction::Sum,
                &DataType::Int,
                &[max.clone(), max.clone()]
            ),
            Value::Int(-2)
        );
        let halves = [Value::Double(1.5), Value::Double(0.5)];
        assert_eq!(
            fold(AggFunction::Sum, &DataType::Double, &halves),
            Value::Double(2.0)
        );
        let mut s = RowAggState::new(AggFunction::Sum, &DataType::Int);
        assert!(s.update(&Value::Double(0.5)).is_err());
        let mut s = RowAggState::new(AggFunction::Sum, &DataType::Double);
        assert!(s.update(&max).is_err());
    }

    #[test]
    fn min_max_strings() {
        let vals = ["m", "a", "z"].map(|v| Value::String(v.into()));
        let string = DataType::String;
        assert_eq!(
            fold(AggFunction::Min, &string, &vals),
            Value::String("a".into())
        );
        assert_eq!(
            fold(AggFunction::Max, &string, &vals),
            Value::String("z".into())
        );
    }

    #[test]
    fn function_parsing() {
        assert_eq!(
            parse_agg_function("count", true),
            Some(AggFunction::CountStar)
        );
        assert_eq!(parse_agg_function("sum", false), Some(AggFunction::Sum));
        assert_eq!(parse_agg_function("avg", false), None);
        assert_eq!(parse_agg_function("concat", false), None);
    }
}
