//! Row-mode aggregate functions with Hive's partial/final mode split:
//! map-side GroupByOperators produce *partial* states that travel through
//! the shuffle as plain values; reduce-side GroupByOperators merge them.

use hive_common::{key, HiveError, Result, Value};

/// The aggregate function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunction {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

/// Where in the plan the aggregation runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggMode {
    /// Raw input → partial state (map side).
    Partial,
    /// Partial states → final value (reduce side).
    Final,
    /// Raw input → final value (single-stage plans).
    Complete,
}

/// Running state for one aggregate in one group.
#[derive(Debug, Clone, PartialEq)]
pub struct RowAggState {
    function: AggFunction,
    mode: AggMode,
    count: i64,
    sum_i: i64,
    sum_f: f64,
    /// Whether any non-null input was seen (sum of empty = NULL).
    seen: bool,
    /// Whether integer summation still fits i64 / inputs were all ints.
    int_domain: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl RowAggState {
    pub fn new(function: AggFunction, mode: AggMode) -> RowAggState {
        RowAggState {
            function,
            mode,
            count: 0,
            sum_i: 0,
            sum_f: 0.0,
            seen: false,
            int_domain: true,
            min: None,
            max: None,
        }
    }

    /// Feed one input value (the evaluated argument; ignored for COUNT(*)).
    pub fn update(&mut self, v: &Value) -> Result<()> {
        match self.mode {
            AggMode::Partial | AggMode::Complete => self.update_raw(v),
            AggMode::Final => self.merge_partial(v),
        }
    }

    fn update_raw(&mut self, v: &Value) -> Result<()> {
        match self.function {
            AggFunction::CountStar => {
                self.count += 1;
            }
            AggFunction::Count => {
                if !v.is_null() {
                    self.count += 1;
                }
            }
            AggFunction::Sum | AggFunction::Avg => {
                if v.is_null() {
                    return Ok(());
                }
                match v {
                    Value::Int(x) => {
                        self.sum_i = self.sum_i.wrapping_add(*x);
                        self.sum_f += *x as f64;
                    }
                    Value::Double(x) => {
                        self.int_domain = false;
                        self.sum_f += *x;
                    }
                    other => {
                        return Err(HiveError::Type(format!("cannot SUM/AVG {other}")));
                    }
                }
                self.count += 1;
                self.seen = true;
            }
            // The extreme is kept canonical: which of two equal values
            // (`-0.0`, `0.0`) a split met first does not show.
            AggFunction::Min => {
                if !v.is_null() && self.min.as_ref().is_none_or(|m| key::compare(v, m).is_lt()) {
                    self.min = Some(key::canonical(v.clone()));
                }
            }
            AggFunction::Max => {
                if !v.is_null() && self.max.as_ref().is_none_or(|m| key::compare(v, m).is_gt()) {
                    self.max = Some(key::canonical(v.clone()));
                }
            }
        }
        Ok(())
    }

    /// Merge a partial state produced by [`partial_value`](Self::partial_value).
    fn merge_partial(&mut self, v: &Value) -> Result<()> {
        match self.function {
            AggFunction::CountStar | AggFunction::Count => {
                let Some(n) = v.as_int() else {
                    if v.is_null() {
                        return Ok(());
                    }
                    return Err(HiveError::Type(format!("bad COUNT partial {v}")));
                };
                self.count += n;
            }
            AggFunction::Sum => match v {
                Value::Null => {}
                Value::Int(x) => {
                    self.sum_i = self.sum_i.wrapping_add(*x);
                    self.sum_f += *x as f64;
                    self.seen = true;
                }
                Value::Double(x) => {
                    self.int_domain = false;
                    self.sum_f += *x;
                    self.seen = true;
                }
                other => return Err(HiveError::Type(format!("bad SUM partial {other}"))),
            },
            AggFunction::Avg => match v {
                Value::Null => {}
                // Partial AVG travels as struct(sum double, count bigint).
                Value::Struct(fields) if fields.len() == 2 => {
                    let s = fields[0].as_double().unwrap_or(0.0);
                    let c = fields[1].as_int().unwrap_or(0);
                    self.sum_f += s;
                    self.count += c;
                    self.seen |= c > 0;
                    self.int_domain = false;
                }
                other => return Err(HiveError::Type(format!("bad AVG partial {other}"))),
            },
            AggFunction::Min => self.update_raw(v)?,
            AggFunction::Max => self.update_raw(v)?,
        }
        Ok(())
    }

    /// The value this state contributes when the mode is Partial — what
    /// flows through the shuffle.
    pub fn partial_value(&self) -> Value {
        match self.function {
            AggFunction::CountStar | AggFunction::Count => Value::Int(self.count),
            AggFunction::Sum => self.sum_value(),
            AggFunction::Avg => {
                Value::Struct(vec![Value::Double(self.sum_f), Value::Int(self.count)])
            }
            AggFunction::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunction::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }

    /// The final SQL value (modes Final and Complete).
    pub fn final_value(&self) -> Value {
        match self.function {
            AggFunction::CountStar | AggFunction::Count => Value::Int(self.count),
            AggFunction::Sum => self.sum_value(),
            AggFunction::Avg => {
                if self.count > 0 {
                    Value::Double(self.sum_f / self.count as f64)
                } else {
                    Value::Null
                }
            }
            AggFunction::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunction::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }

    fn sum_value(&self) -> Value {
        if !self.seen {
            Value::Null
        } else if self.int_domain {
            Value::Int(self.sum_i)
        } else {
            Value::Double(self.sum_f)
        }
    }

    /// The emitted value for this state's own mode.
    pub fn output(&self) -> Value {
        match self.mode {
            AggMode::Partial => self.partial_value(),
            AggMode::Final | AggMode::Complete => self.final_value(),
        }
    }
}

/// Parse a function name from HiveQL.
pub fn parse_agg_function(name: &str, star: bool) -> Option<AggFunction> {
    Some(match (name, star) {
        ("count", true) => AggFunction::CountStar,
        ("count", false) => AggFunction::Count,
        ("sum", _) => AggFunction::Sum,
        ("avg", _) => AggFunction::Avg,
        ("min", _) => AggFunction::Min,
        ("max", _) => AggFunction::Max,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_mode_basics() {
        let mut s = RowAggState::new(AggFunction::Sum, AggMode::Complete);
        for v in [Value::Int(1), Value::Null, Value::Int(2)] {
            s.update(&v).unwrap();
        }
        assert_eq!(s.output(), Value::Int(3));

        let mut a = RowAggState::new(AggFunction::Avg, AggMode::Complete);
        for v in [Value::Int(1), Value::Int(2), Value::Null] {
            a.update(&v).unwrap();
        }
        assert_eq!(a.output(), Value::Double(1.5));
    }

    #[test]
    fn partial_then_final_equals_complete() {
        // Split [1,2,3,4] into two partials and merge.
        for f in [
            AggFunction::Sum,
            AggFunction::Count,
            AggFunction::Avg,
            AggFunction::Min,
            AggFunction::Max,
            AggFunction::CountStar,
        ] {
            let vals = [Value::Int(1), Value::Int(2), Value::Int(3), Value::Int(4)];
            let mut complete = RowAggState::new(f, AggMode::Complete);
            for v in &vals {
                complete.update(v).unwrap();
            }

            let mut p1 = RowAggState::new(f, AggMode::Partial);
            let mut p2 = RowAggState::new(f, AggMode::Partial);
            p1.update(&vals[0]).unwrap();
            p1.update(&vals[1]).unwrap();
            p2.update(&vals[2]).unwrap();
            p2.update(&vals[3]).unwrap();
            let mut fin = RowAggState::new(f, AggMode::Final);
            fin.update(&p1.output()).unwrap();
            fin.update(&p2.output()).unwrap();
            assert_eq!(fin.output(), complete.output(), "{f:?}");
        }
    }

    #[test]
    fn empty_groups() {
        let s = RowAggState::new(AggFunction::Sum, AggMode::Complete);
        assert_eq!(s.output(), Value::Null);
        let c = RowAggState::new(AggFunction::Count, AggMode::Complete);
        assert_eq!(c.output(), Value::Int(0));
        let a = RowAggState::new(AggFunction::Avg, AggMode::Complete);
        assert_eq!(a.output(), Value::Null);
    }

    #[test]
    fn sum_switches_to_double_domain() {
        let mut s = RowAggState::new(AggFunction::Sum, AggMode::Complete);
        s.update(&Value::Int(1)).unwrap();
        s.update(&Value::Double(0.5)).unwrap();
        assert_eq!(s.output(), Value::Double(1.5));
    }

    #[test]
    fn min_max_strings() {
        let mut mn = RowAggState::new(AggFunction::Min, AggMode::Complete);
        let mut mx = RowAggState::new(AggFunction::Max, AggMode::Complete);
        for v in ["m", "a", "z"] {
            mn.update(&Value::String(v.into())).unwrap();
            mx.update(&Value::String(v.into())).unwrap();
        }
        assert_eq!(mn.output(), Value::String("a".into()));
        assert_eq!(mx.output(), Value::String("z".into()));
    }

    #[test]
    fn function_parsing() {
        assert_eq!(
            parse_agg_function("count", true),
            Some(AggFunction::CountStar)
        );
        assert_eq!(parse_agg_function("sum", false), Some(AggFunction::Sum));
        assert_eq!(parse_agg_function("concat", false), None);
    }
}
