//! Interpreted row-mode expressions.
//!
//! Every evaluation walks a boxed tree with dynamic dispatch per node per
//! row — precisely the "interpretation overhead, under-utilized
//! parallelism, low cache performance, and high function call overhead"
//! the paper's Section 3 attributes to the row engine. Keep it this way:
//! it is the measured baseline.

use hive_common::key::compare;
use hive_common::{DataType, HiveError, Result, Row, Value};
use std::cmp::Ordering;

/// Binary operators (subset matching the HiveQL dialect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Subtract,
    Multiply,
    Divide,
    Modulo,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// A compiled (resolved) expression over input rows.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprNode {
    /// Input column by position.
    Column(usize),
    Literal(Value),
    Binary {
        op: BinaryOp,
        left: Box<ExprNode>,
        right: Box<ExprNode>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<ExprNode>,
    },
    Between {
        expr: Box<ExprNode>,
        lo: Box<ExprNode>,
        hi: Box<ExprNode>,
        negated: bool,
    },
    IsNull {
        expr: Box<ExprNode>,
        negated: bool,
    },
    InList {
        expr: Box<ExprNode>,
        list: Vec<ExprNode>,
        negated: bool,
    },
    Cast {
        expr: Box<ExprNode>,
        target: DataType,
    },
    Case {
        branches: Vec<(ExprNode, ExprNode)>,
        else_value: Option<Box<ExprNode>>,
    },
}

impl ExprNode {
    pub fn col(i: usize) -> ExprNode {
        ExprNode::Column(i)
    }

    pub fn lit(v: Value) -> ExprNode {
        ExprNode::Literal(v)
    }

    pub fn binary(op: BinaryOp, l: ExprNode, r: ExprNode) -> ExprNode {
        ExprNode::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    /// Evaluate against one row (SQL three-valued logic; NULL propagates).
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            ExprNode::Column(i) => {
                if *i >= row.len() {
                    return Err(HiveError::Execution(format!(
                        "column {i} out of range for row of width {}",
                        row.len()
                    )));
                }
                Ok(row[*i].clone())
            }
            ExprNode::Literal(v) => Ok(v.clone()),
            ExprNode::Binary { op, left, right } => {
                eval_binary(*op, &left.eval(row)?, &right.eval(row)?)
            }
            ExprNode::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match op {
                    UnaryOp::Neg => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
                        Value::Double(x) => Ok(Value::Double(-x)),
                        other => Err(HiveError::Type(format!("cannot negate {other}"))),
                    },
                    UnaryOp::Not => match v {
                        Value::Null => Ok(Value::Null),
                        Value::Boolean(b) => Ok(Value::Boolean(!b)),
                        other => Err(HiveError::Type(format!("NOT of non-boolean {other}"))),
                    },
                }
            }
            ExprNode::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let lo = lo.eval(row)?;
                let hi = hi.eval(row)?;
                if lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = compare(&v, &lo).is_ge() && compare(&v, &hi).is_le();
                Ok(Value::Boolean(inside != *negated))
            }
            ExprNode::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Boolean(v.is_null() != *negated))
            }
            ExprNode::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for item in list {
                    let it = item.eval(row)?;
                    if it.is_null() {
                        saw_null = true;
                        continue;
                    }
                    if compare(&v, &it).is_eq() {
                        return Ok(Value::Boolean(!*negated));
                    }
                }
                if saw_null {
                    // SQL: x IN (..., NULL) is NULL when no match.
                    Ok(Value::Null)
                } else {
                    Ok(Value::Boolean(*negated))
                }
            }
            ExprNode::Cast { expr, target } => cast_value(&expr.eval(row)?, target),
            ExprNode::Case {
                branches,
                else_value,
            } => {
                for (cond, val) in branches {
                    if cond.eval(row)?.as_bool() == Some(true) {
                        return val.eval(row);
                    }
                }
                match else_value {
                    Some(e) => e.eval(row),
                    None => Ok(Value::Null),
                }
            }
        }
    }

    /// Evaluate as a predicate: NULL counts as false (WHERE semantics).
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        Ok(self.eval(row)?.as_bool().unwrap_or(false))
    }
}

fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    use BinaryOp::*;
    match op {
        And => {
            // Three-valued AND.
            return Ok(match (l.as_bool(), r.as_bool()) {
                (Some(false), _) | (_, Some(false)) => Value::Boolean(false),
                (Some(true), Some(true)) => Value::Boolean(true),
                _ => Value::Null,
            });
        }
        Or => {
            return Ok(match (l.as_bool(), r.as_bool()) {
                (Some(true), _) | (_, Some(true)) => Value::Boolean(true),
                (Some(false), Some(false)) => Value::Boolean(false),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    if matches!(op, Eq | NotEq | Lt | LtEq | Gt | GtEq) {
        let ord = compare(l, r);
        let b = match op {
            Eq => ord == Ordering::Equal,
            NotEq => ord != Ordering::Equal,
            Lt => ord == Ordering::Less,
            LtEq => ord != Ordering::Greater,
            Gt => ord == Ordering::Greater,
            GtEq => ord != Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Value::Boolean(b));
    }
    // Arithmetic: int op int stays int (except /), otherwise widen.
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok(match op {
            Add => Value::Int(a.wrapping_add(*b)),
            Subtract => Value::Int(a.wrapping_sub(*b)),
            Multiply => Value::Int(a.wrapping_mul(*b)),
            Divide => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Double(*a as f64 / *b as f64)
                }
            }
            Modulo => {
                if *b == 0 {
                    Value::Null
                } else {
                    // `i64::MIN % -1` overflows; Java (and Hive) answer 0.
                    Value::Int(a.wrapping_rem(*b))
                }
            }
            _ => unreachable!(),
        }),
        _ => {
            let (Some(a), Some(b)) = (l.as_double(), r.as_double()) else {
                return Err(HiveError::Type(format!(
                    "cannot apply {op:?} to {l} and {r}"
                )));
            };
            Ok(match op {
                Add => Value::Double(a + b),
                Subtract => Value::Double(a - b),
                Multiply => Value::Double(a * b),
                Divide => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a / b)
                    }
                }
                Modulo => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(a % b)
                    }
                }
                _ => unreachable!(),
            })
        }
    }
}

/// Whether a CAST from `from` to `to` can succeed for a non-NULL value: the
/// table [`cast_value`] applies per value, by source type alone, which the
/// binder applies to a CAST's operand type (DESIGN.md §18).
pub fn castable(from: &DataType, to: &DataType) -> bool {
    use DataType::*;
    match to {
        String => true,
        Int => matches!(from, Int | Double | Boolean | Timestamp | String),
        Double => matches!(from, Int | Double | Boolean | String),
        Boolean => matches!(from, Boolean | Int),
        Timestamp => matches!(from, Int | Timestamp),
        _ => false,
    }
}

/// SQL CAST.
pub fn cast_value(v: &Value, target: &DataType) -> Result<Value> {
    if v.is_null() {
        return Ok(Value::Null);
    }
    Ok(match target {
        DataType::Int => match v {
            Value::Int(x) => Value::Int(*x),
            Value::Double(x) => Value::Int(*x as i64),
            Value::Boolean(b) => Value::Int(*b as i64),
            Value::Timestamp(x) => Value::Int(*x),
            Value::String(s) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .unwrap_or(Value::Null),
            other => return Err(HiveError::Type(format!("cannot cast {other} to bigint"))),
        },
        DataType::Double => match v {
            Value::Int(x) => Value::Double(*x as f64),
            Value::Double(x) => Value::Double(*x),
            Value::Boolean(b) => Value::Double(*b as i64 as f64),
            Value::String(s) => s
                .trim()
                .parse::<f64>()
                .map(Value::Double)
                .unwrap_or(Value::Null),
            other => return Err(HiveError::Type(format!("cannot cast {other} to double"))),
        },
        DataType::String => Value::String(v.to_string()),
        DataType::Boolean => match v {
            Value::Boolean(b) => Value::Boolean(*b),
            Value::Int(x) => Value::Boolean(*x != 0),
            other => return Err(HiveError::Type(format!("cannot cast {other} to boolean"))),
        },
        DataType::Timestamp => match v {
            Value::Int(x) | Value::Timestamp(x) => Value::Timestamp(*x),
            other => return Err(HiveError::Type(format!("cannot cast {other} to timestamp"))),
        },
        other => return Err(HiveError::Type(format!("unsupported CAST target {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::new(vec![
            Value::Int(10),
            Value::Double(2.5),
            Value::String("abc".into()),
            Value::Null,
        ])
    }

    #[test]
    fn castable_is_the_table_cast_value_applies() {
        let samples = [
            Value::Boolean(true),
            Value::Int(1),
            Value::Double(0.0),
            Value::String("1".into()),
            Value::Timestamp(1000),
            Value::Array(vec![Value::Int(1)]),
        ];
        use DataType::*;
        for v in &samples {
            let from = v.data_type().unwrap();
            for to in [
                Boolean,
                Int,
                Double,
                String,
                Timestamp,
                Array(Box::new(Int)),
            ] {
                let ok = cast_value(v, &to).is_ok();
                assert_eq!(castable(&from, &to), ok, "{from} to {to}");
            }
        }
    }

    #[test]
    fn arithmetic_and_widening() {
        let e = ExprNode::binary(
            BinaryOp::Add,
            ExprNode::col(0),
            ExprNode::lit(Value::Int(5)),
        );
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(15));
        let e2 = ExprNode::binary(BinaryOp::Multiply, ExprNode::col(0), ExprNode::col(1));
        assert_eq!(e2.eval(&row()).unwrap(), Value::Double(25.0));
        let div = ExprNode::binary(
            BinaryOp::Divide,
            ExprNode::col(0),
            ExprNode::lit(Value::Int(4)),
        );
        assert_eq!(div.eval(&row()).unwrap(), Value::Double(2.5));
    }

    #[test]
    fn null_propagation() {
        let e = ExprNode::binary(
            BinaryOp::Add,
            ExprNode::col(3),
            ExprNode::lit(Value::Int(1)),
        );
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&row()).unwrap());
    }

    #[test]
    fn three_valued_logic() {
        let null = ExprNode::lit(Value::Null);
        let t = ExprNode::lit(Value::Boolean(true));
        let f = ExprNode::lit(Value::Boolean(false));
        let and_nf = ExprNode::binary(BinaryOp::And, null.clone(), f.clone());
        assert_eq!(and_nf.eval(&row()).unwrap(), Value::Boolean(false));
        let and_nt = ExprNode::binary(BinaryOp::And, null.clone(), t.clone());
        assert_eq!(and_nt.eval(&row()).unwrap(), Value::Null);
        let or_nt = ExprNode::binary(BinaryOp::Or, null.clone(), t);
        assert_eq!(or_nt.eval(&row()).unwrap(), Value::Boolean(true));
        let or_nf = ExprNode::binary(BinaryOp::Or, null, f);
        assert_eq!(or_nf.eval(&row()).unwrap(), Value::Null);
    }

    #[test]
    fn between_and_in() {
        let between = ExprNode::Between {
            expr: Box::new(ExprNode::col(0)),
            lo: Box::new(ExprNode::lit(Value::Int(0))),
            hi: Box::new(ExprNode::lit(Value::Int(10))),
            negated: false,
        };
        assert_eq!(between.eval(&row()).unwrap(), Value::Boolean(true));
        let inlist = ExprNode::InList {
            expr: Box::new(ExprNode::col(2)),
            list: vec![
                ExprNode::lit(Value::String("xyz".into())),
                ExprNode::lit(Value::String("abc".into())),
            ],
            negated: false,
        };
        assert_eq!(inlist.eval(&row()).unwrap(), Value::Boolean(true));
        let notin = ExprNode::InList {
            expr: Box::new(ExprNode::col(2)),
            list: vec![ExprNode::lit(Value::String("zzz".into()))],
            negated: true,
        };
        assert_eq!(notin.eval(&row()).unwrap(), Value::Boolean(true));
    }

    #[test]
    fn in_with_null_member_is_null_on_no_match() {
        let e = ExprNode::InList {
            expr: Box::new(ExprNode::col(0)),
            list: vec![ExprNode::lit(Value::Null), ExprNode::lit(Value::Int(99))],
            negated: false,
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
    }

    #[test]
    fn case_expression() {
        let e = ExprNode::Case {
            branches: vec![(
                ExprNode::binary(BinaryOp::Gt, ExprNode::col(0), ExprNode::lit(Value::Int(5))),
                ExprNode::lit(Value::String("big".into())),
            )],
            else_value: Some(Box::new(ExprNode::lit(Value::String("small".into())))),
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::String("big".into()));
    }

    #[test]
    fn casts() {
        assert_eq!(
            cast_value(&Value::String(" 42 ".into()), &DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            cast_value(&Value::Double(3.9), &DataType::Int).unwrap(),
            Value::Int(3)
        );
        assert_eq!(
            cast_value(&Value::Int(7), &DataType::String).unwrap(),
            Value::String("7".into())
        );
        assert_eq!(
            cast_value(&Value::String("bogus".into()), &DataType::Int).unwrap(),
            Value::Null
        );
    }

    #[test]
    fn division_by_zero_is_null() {
        let e = ExprNode::binary(
            BinaryOp::Divide,
            ExprNode::lit(Value::Int(1)),
            ExprNode::lit(Value::Int(0)),
        );
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        let m = ExprNode::binary(
            BinaryOp::Modulo,
            ExprNode::lit(Value::Int(1)),
            ExprNode::lit(Value::Int(0)),
        );
        assert_eq!(m.eval(&row()).unwrap(), Value::Null);
    }
}
