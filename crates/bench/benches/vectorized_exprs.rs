//! The heart of Fig. 12 in microcosm: one-row-at-a-time interpreted
//! expression evaluation vs the vectorized expressions of paper §6.2,
//! on identical data and identical work (filter + arithmetic + sum).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hive_common::{DataType, Row, Value};
use hive_exec::expr::{BinaryOp, ExprNode};
use hive_vector::expressions::{arith, filter_between, ArithOp, Operand};
use hive_vector::{ColumnVector, VectorizedRowBatch};
use std::hint::black_box;

const N: usize = 1 << 16;

fn price_disc() -> (Vec<f64>, Vec<f64>) {
    let mut x = 0x2545f4914f6cdd1du64;
    let mut prices = Vec::with_capacity(N);
    let mut discounts = Vec::with_capacity(N);
    for _ in 0..N {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        prices.push((x % 100_000) as f64 / 100.0);
        discounts.push((x % 11) as f64 / 100.0);
    }
    (prices, discounts)
}

/// Row engine: WHERE disc BETWEEN 0.05 AND 0.07 → SUM(price * disc).
fn row_mode(c: &mut Criterion) {
    let (prices, discounts) = price_disc();
    let rows: Vec<Row> = prices
        .iter()
        .zip(&discounts)
        .map(|(&p, &d)| Row::new(vec![Value::Double(p), Value::Double(d)]))
        .collect();
    let filter = ExprNode::Between {
        expr: Box::new(ExprNode::col(1)),
        lo: Box::new(ExprNode::lit(Value::Double(0.05))),
        hi: Box::new(ExprNode::lit(Value::Double(0.07))),
        negated: false,
    };
    let product = ExprNode::binary(BinaryOp::Multiply, ExprNode::col(0), ExprNode::col(1));

    let mut g = c.benchmark_group("q6_kernel");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    g.bench_function("row_at_a_time", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for r in &rows {
                if filter.eval_predicate(r).unwrap() {
                    if let Value::Double(v) = product.eval(r).unwrap() {
                        sum += v;
                    }
                }
            }
            black_box(sum)
        })
    });
    g.finish();
}

/// Vectorized engine: the same kernel over 1024-row batches.
fn vectorized(c: &mut Criterion) {
    let (prices, discounts) = price_disc();
    let mut g = c.benchmark_group("q6_kernel");
    g.throughput(Throughput::Elements(N as u64));
    g.sample_size(20);
    for batch_size in [128usize, 1024, 16384] {
        g.bench_function(format!("vectorized_batch_{batch_size}"), |b| {
            let mut batch = VectorizedRowBatch::new(
                &[DataType::Double, DataType::Double, DataType::Double],
                batch_size,
            )
            .unwrap();
            let filter = filter_between(
                Operand::DoubleCol(1),
                Operand::DoubleScalar(0.05),
                Operand::DoubleScalar(0.07),
            )
            .unwrap();
            let mul = arith(
                ArithOp::Multiply,
                Operand::DoubleCol(0),
                Operand::DoubleCol(1),
                2,
            )
            .unwrap();
            b.iter(|| {
                let mut sum = 0.0;
                let mut off = 0;
                while off < N {
                    let n = batch_size.min(N - off);
                    batch.reset();
                    if let ColumnVector::Double(v) = &mut batch.columns[0] {
                        v.vector[..n].copy_from_slice(&prices[off..off + n]);
                    }
                    if let ColumnVector::Double(v) = &mut batch.columns[1] {
                        v.vector[..n].copy_from_slice(&discounts[off..off + n]);
                    }
                    batch.size = n;
                    filter.evaluate(&mut batch).unwrap();
                    mul.evaluate(&mut batch).unwrap();
                    if let ColumnVector::Double(out) = &batch.columns[2] {
                        for i in batch.iter_selected() {
                            sum += out.vector[i];
                        }
                    }
                    off += n;
                }
                black_box(sum)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, row_mode, vectorized);
criterion_main!(benches);
