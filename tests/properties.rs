//! Property-based tests (proptest) on the core invariants:
//!
//! * every encoder/codec round-trips arbitrary inputs;
//! * ORC round-trips arbitrary rows of arbitrary (primitive) shape, under
//!   every compression codec;
//! * predicate pushdown is *sound*: whatever the reader skips, no matching
//!   row is ever lost;
//! * the vectorized expressions agree with the interpreted row-mode
//!   expressions on arbitrary data — the equivalence Fig. 12 rests on.

use hive::codec::block::{BlockCodec, Compression, DeflateLikeCodec, NoneCodec, SnappyLikeCodec};
use hive::common::{key, DataType, Key, Row, Schema, Value};
use hive::dfs::{Dfs, DfsConfig};
use hive::formats::orc::reader::{OrcReadOptions, OrcReader};
use hive::formats::orc::writer::{OrcWriter, OrcWriterOptions};
use hive::formats::{PredicateLeaf, SearchArgument, TableReader, TableWriter};
use proptest::prelude::*;
use std::cmp::Ordering;

fn small_dfs() -> Dfs {
    Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 1,
        nodes: 3,
    })
}

/// `decode_into`, asked for the stream's values in pieces of `splits` sizes
/// (cycled), against `next()` one value at a time — on a whole stream or a
/// truncated one: the same values, and where `next()` fails the piece that
/// reaches that value fails with the same error. The one-shot `decode` and
/// the `u32` form the dictionary-id path uses must agree too.
fn int_rle_bulk_matches_next(enc: &[u8], splits: &[usize]) {
    use hive::codec::int_rle::{decode, IntRleDecoder};
    let mut one_by_one = IntRleDecoder::new(enc);
    let mut expect: Vec<i64> = Vec::new();
    let mut error = None;
    while one_by_one.has_next() {
        match one_by_one.next() {
            Ok(v) => expect.push(v),
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    match (decode(enc), &error) {
        (Ok(all), None) => assert_eq!(all, expect),
        (Err(e), Some(expected)) => assert_eq!(&e.to_string(), expected),
        (got, _) => panic!("decode gave {got:?}, next() {error:?}"),
    }
    // Ask for one value more than there is when the stream ends cleanly: the
    // piece that runs off the end must say so, as `next()` would.
    let total = expect.len() + 1;
    let end_error = error.unwrap_or_else(|| one_by_one.next().unwrap_err().to_string());
    let (mut bulk, mut narrow) = (IntRleDecoder::new(enc), IntRleDecoder::new(enc));
    let (mut got, mut ids): (Vec<i64>, Vec<u32>) = (Vec::new(), Vec::new());
    let mut asked = 0;
    for &piece in splits.iter().cycle() {
        let piece = piece.min(total - asked);
        let before = got.len();
        let (wide, thin) = (
            bulk.decode_into(piece, &mut got),
            narrow.decode_into(piece, &mut ids),
        );
        asked += piece;
        if asked <= expect.len() {
            wide.unwrap();
            thin.unwrap();
            assert_eq!(got[before..], expect[before..asked]);
            continue;
        }
        assert_eq!(wide.unwrap_err().to_string(), end_error);
        assert_eq!(thin.unwrap_err().to_string(), end_error);
        break;
    }
    let whole_pieces = ids.len().min(expect.len());
    let as_ids = expect[..whole_pieces].iter().map(|&v| v as u32);
    assert!(ids[..whole_pieces].iter().copied().eq(as_ids));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn varint_round_trips(v in any::<i64>()) {
        let mut buf = Vec::new();
        hive::codec::varint::write_signed(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(hive::codec::varint::read_signed(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn int_rle_round_trips(
        vals in proptest::collection::vec(any::<i64>(), 0..2000),
        splits in proptest::collection::vec(1usize..300, 1..8),
        cut in any::<u16>(),
    ) {
        let enc = hive::codec::int_rle::encode(&vals);
        prop_assert_eq!(hive::codec::int_rle::decode(&enc).unwrap(), vals);
        int_rle_bulk_matches_next(&enc, &splits);
        int_rle_bulk_matches_next(&enc[..cut as usize % (enc.len() + 1)], &splits);
    }

    #[test]
    fn int_rle_round_trips_runs(
        runs in proptest::collection::vec((any::<i32>(), -3i64..=3, 1usize..100), 0..20),
        splits in proptest::collection::vec(1usize..300, 1..8),
        cut in any::<u16>(),
    ) {
        // Run-shaped data (base + small delta) exercises the run encoder.
        let mut vals = Vec::new();
        for (base, delta, len) in runs {
            let mut v = base as i64;
            for _ in 0..len {
                vals.push(v);
                v = v.wrapping_add(delta);
            }
        }
        let enc = hive::codec::int_rle::encode(&vals);
        prop_assert_eq!(hive::codec::int_rle::decode(&enc).unwrap(), vals);
        int_rle_bulk_matches_next(&enc, &splits);
        int_rle_bulk_matches_next(&enc[..cut as usize % (enc.len() + 1)], &splits);
    }

    #[test]
    fn byte_rle_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        let enc = hive::codec::byte_rle::encode(&data);
        prop_assert_eq!(hive::codec::byte_rle::decode(&enc).unwrap(), data);
    }

    #[test]
    fn bitfield_round_trips(bits in proptest::collection::vec(any::<bool>(), 0..4000)) {
        let enc = hive::codec::bitfield::encode(&bits);
        prop_assert_eq!(hive::codec::bitfield::decode(&enc, bits.len()).unwrap(), bits);
    }

    #[test]
    fn block_codecs_round_trip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let codecs: Vec<Box<dyn BlockCodec>> = vec![
            Box::new(NoneCodec),
            Box::new(SnappyLikeCodec),
            Box::new(DeflateLikeCodec),
        ];
        for c in codecs {
            let comp = c.compress(&data);
            prop_assert_eq!(c.decompress(&comp).unwrap(), data.clone(), "codec {}", c.name());
        }
    }

    #[test]
    fn huffman_round_trips(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let comp = hive::codec::huffman::compress(&data);
        prop_assert_eq!(hive::codec::huffman::decompress(&comp).unwrap(), data);
    }
}

/// An arbitrary primitive value of a given type (possibly null).
/// String predicates through the ORC batch reader: column `d` is
/// dictionary-encoded with a dictionary that differs from stripe to stripe,
/// column `f` is dictionary-encoded in the first stripes and direct in the
/// later ones, and one kernel instance per operator — whatever it remembers
/// about a dictionary — runs over every batch of the scan. Each must keep
/// exactly the rows the row engine's predicate keeps.
fn string_filters_match_row_filters(words: &[(u8, u8)], literal: u8) {
    use hive::exec::expr::{BinaryOp, ExprNode};
    use hive::vector::expressions::{filter_compare, CmpOp, Operand};
    use hive::vector::VectorizedRowBatch;

    let n = words.len();
    let schema = Schema::parse(&[("d", "string"), ("f", "string")]).unwrap();
    let word = |w: u8| format!("w{:02}", w);
    let rows: Vec<Row> = words
        .iter()
        .enumerate()
        .map(|(r, &(w, null))| {
            // Later stripes draw from a shifted vocabulary: another dictionary.
            let d = match null {
                0 => Value::Null,
                _ => Value::String(word((w + (r * 4 / n) as u8 * 5) % 12)),
            };
            let f = if r < n / 2 {
                Value::String(word(w))
            } else {
                Value::String(format!("{}-{r}", word(w)))
            };
            Row::new(vec![d, f])
        })
        .collect();
    let dfs = small_dfs();
    let opts = OrcWriterOptions {
        stripe_size: 2 << 10,
        row_index_stride: 50,
        ..Default::default()
    };
    let mut w: Box<dyn TableWriter> =
        Box::new(OrcWriter::create(&dfs, "/p/strings", &schema, opts, None));
    rows.iter().for_each(|r| w.write_row(r).unwrap());
    w.close().unwrap();

    let ops = [
        (CmpOp::Equal, BinaryOp::Eq),
        (CmpOp::NotEqual, BinaryOp::NotEq),
        (CmpOp::Less, BinaryOp::Lt),
        (CmpOp::LessEqual, BinaryOp::LtEq),
        (CmpOp::Greater, BinaryOp::Gt),
        (CmpOp::GreaterEqual, BinaryOp::GtEq),
    ];
    let literal = word(literal);
    for column in 0..2 {
        let kernels: Vec<_> = ops
            .iter()
            .map(|(op, _)| {
                let scalar = Operand::BytesScalar(literal.clone().into_bytes());
                filter_compare(*op, Operand::BytesCol(column), scalar).unwrap()
            })
            .collect();
        let mut kept: Vec<Vec<usize>> = vec![Vec::new(); ops.len()];
        let mut reader = OrcReader::open(&dfs, "/p/strings", OrcReadOptions::default()).unwrap();
        let types = [DataType::String, DataType::String];
        let mut batch = VectorizedRowBatch::new(&types, 64).unwrap();
        let (mut base, mut dictionaries, mut direct) = (0, Vec::new(), 0);
        while reader.next_batch(&mut batch).unwrap() {
            let physical = batch.size;
            match batch.columns[column].as_bytes().unwrap().dictionary() {
                Some((d, _)) if dictionaries.last() != Some(&d.id()) => dictionaries.push(d.id()),
                Some(_) => {}
                None => direct += 1,
            }
            for (kernel, kept) in kernels.iter().zip(&mut kept) {
                let mut b = batch.clone();
                kernel.evaluate(&mut b).unwrap();
                kept.extend(b.iter_selected().map(|i| base + i));
            }
            base += physical;
        }
        assert_eq!(base, n);
        assert!(
            dictionaries.len() >= 2,
            "only {} dictionaries",
            dictionaries.len()
        );
        // (A last stripe of a few rows may store even `d` directly.)
        assert!(column == 0 || direct > 0, "`f` turns direct half way");
        for ((_, op), kept) in ops.iter().zip(&kept) {
            let lit = ExprNode::lit(Value::String(literal.clone()));
            let predicate = ExprNode::binary(*op, ExprNode::col(column), lit);
            let keeps = |r: &&usize| predicate.eval_predicate(&rows[**r]).unwrap();
            let expect: Vec<usize> = (0..n)
                .collect::<Vec<_>>()
                .iter()
                .filter(keeps)
                .copied()
                .collect();
            assert_eq!(kept, &expect, "{op:?} on column {column}");
        }
    }
}

fn value_strategy(dt: &DataType) -> BoxedStrategy<Value> {
    let non_null: BoxedStrategy<Value> = match dt {
        DataType::Int => any::<i64>().prop_map(Value::Int).boxed(),
        DataType::Double => {
            // Finite doubles only (NaN breaks Eq-based comparisons).
            prop_oneof![
                proptest::num::f64::NORMAL.prop_map(Value::Double),
                Just(Value::Double(0.0)),
            ]
            .boxed()
        }
        DataType::Boolean => any::<bool>().prop_map(Value::Boolean).boxed(),
        DataType::String => "[a-z0-9 ]{0,24}".prop_map(Value::String).boxed(),
        DataType::Timestamp => any::<i64>().prop_map(Value::Timestamp).boxed(),
        _ => unreachable!("primitive types only"),
    };
    prop_oneof![9 => non_null, 1 => Just(Value::Null)].boxed()
}

fn rows_strategy() -> impl Strategy<Value = (Vec<DataType>, Vec<Row>)> {
    let dt = prop_oneof![
        Just(DataType::Int),
        Just(DataType::Double),
        Just(DataType::Boolean),
        Just(DataType::String),
        Just(DataType::Timestamp),
    ];
    proptest::collection::vec(dt, 1..5).prop_flat_map(|types| {
        let row = types
            .iter()
            .map(value_strategy)
            .collect::<Vec<_>>()
            .prop_map(Row::new);
        (Just(types), proptest::collection::vec(row, 0..300))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn orc_round_trips_arbitrary_rows(
        (types, rows) in rows_strategy(),
        comp in prop_oneof![
            Just(Compression::None),
            Just(Compression::Snappy),
            Just(Compression::Zlib)
        ],
    ) {
        let dfs = small_dfs();
        let schema = Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, t)| hive::common::Field::new(format!("c{i}"), t.clone()))
                .collect(),
        );
        let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
            &dfs,
            "/p/orc",
            &schema,
            OrcWriterOptions {
                stripe_size: 4 << 10, // force several stripes
                row_index_stride: 16,
                compression: comp,
                compress_unit: 2 << 10,
                ..Default::default()
            },
            None,
        ));
        for r in &rows {
            w.write_row(r).unwrap();
        }
        w.close().unwrap();
        let mut r = OrcReader::open(&dfs, "/p/orc", OrcReadOptions::default()).unwrap();
        let mut back = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            back.push(row);
        }
        prop_assert_eq!(back, rows);
    }

    #[test]
    fn orc_ppd_is_sound(
        vals in proptest::collection::vec(any::<i16>(), 1..500),
        lo in any::<i16>(),
        hi in any::<i16>(),
    ) {
        // Whatever the statistics say, every matching row must come back.
        let (lo, hi) = (lo.min(hi) as i64, lo.max(hi) as i64);
        let dfs = small_dfs();
        let schema = Schema::parse(&[("x", "bigint")]).unwrap();
        let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
            &dfs,
            "/p/ppd",
            &schema,
            OrcWriterOptions {
                stripe_size: 2 << 10,
                row_index_stride: 8,
                ..Default::default()
            },
            None,
        ));
        for &v in &vals {
            w.write_row(&Row::new(vec![Value::Int(v as i64)])).unwrap();
        }
        w.close().unwrap();

        let sarg = SearchArgument::new(vec![PredicateLeaf::between(
            0,
            Value::Int(lo),
            Value::Int(hi),
        )]);
        let mut r = OrcReader::open(
            &dfs,
            "/p/ppd",
            OrcReadOptions { sarg: Some(sarg), use_index: true, ..Default::default() },
        )
        .unwrap();
        let mut got = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            let v = row[0].as_int().unwrap();
            if (lo..=hi).contains(&v) {
                got.push(v);
            }
        }
        let expected: Vec<i64> = vals
            .iter()
            .map(|&v| v as i64)
            .filter(|v| (lo..=hi).contains(v))
            .collect();
        prop_assert_eq!(got, expected, "PPD must never drop matching rows");
    }

    #[test]
    fn vectorized_filter_matches_row_filter(
        vals in proptest::collection::vec((any::<i16>(), any::<bool>()), 1..500),
        threshold in any::<i16>(),
        words in proptest::collection::vec((0u8..12, 0u8..7), 200..900),
        literal in 0u8..12,
    ) {
        use hive::exec::expr::{BinaryOp, ExprNode};
        use hive::vector::expressions::{filter_compare, CmpOp, Operand};
        use hive::vector::{ColumnVector, VectorizedRowBatch};

        string_filters_match_row_filters(&words, literal);

        let n = vals.len();
        // Row mode.
        let pred = ExprNode::binary(
            BinaryOp::Gt,
            ExprNode::col(0),
            ExprNode::lit(Value::Int(threshold as i64)),
        );
        let row_selected: Vec<usize> = vals
            .iter()
            .enumerate()
            .filter(|(_, (v, null))| {
                let row = Row::new(vec![if *null { Value::Null } else { Value::Int(*v as i64) }]);
                pred.eval_predicate(&row).unwrap()
            })
            .map(|(i, _)| i)
            .collect();

        // Vector mode.
        let mut batch = VectorizedRowBatch::new(&[DataType::Int], n).unwrap();
        if let ColumnVector::Long(c) = &mut batch.columns[0] {
            for (i, (v, null)) in vals.iter().enumerate() {
                c.vector[i] = *v as i64;
                if *null {
                    c.null[i] = true;
                    c.no_nulls = false;
                }
            }
        }
        batch.size = n;
        filter_compare(CmpOp::Greater, Operand::LongCol(0), Operand::LongScalar(threshold as i64))
            .unwrap()
            .evaluate(&mut batch)
            .unwrap();
        let vec_selected: Vec<usize> = batch.iter_selected().collect();
        prop_assert_eq!(vec_selected, row_selected);
    }

    #[test]
    fn vectorized_arith_matches_row_arith(
        vals in proptest::collection::vec((-10_000i64..10_000, -10_000i64..10_000), 1..300),
    ) {
        use hive::exec::expr::{BinaryOp, ExprNode};
        use hive::vector::expressions::{arith, ArithOp, Operand};
        use hive::vector::{ColumnVector, VectorizedRowBatch};

        let n = vals.len();
        let expr = ExprNode::binary(BinaryOp::Multiply, ExprNode::col(0), ExprNode::col(1));
        let row_out: Vec<i64> = vals
            .iter()
            .map(|(a, b)| {
                expr.eval(&Row::new(vec![Value::Int(*a), Value::Int(*b)]))
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .collect();

        let mut batch =
            VectorizedRowBatch::new(&[DataType::Int, DataType::Int, DataType::Int], n).unwrap();
        for (col, pick) in [(0usize, 0usize), (1, 1)] {
            if let ColumnVector::Long(c) = &mut batch.columns[col] {
                for (i, v) in vals.iter().enumerate() {
                    c.vector[i] = if pick == 0 { v.0 } else { v.1 };
                }
            }
        }
        batch.size = n;
        arith(ArithOp::Multiply, Operand::LongCol(0), Operand::LongCol(1), 2)
            .unwrap()
            .evaluate(&mut batch)
            .unwrap();
        let vec_out: Vec<i64> = (0..n)
            .map(|i| batch.columns[2].as_long().unwrap().vector[i])
            .collect();
        prop_assert_eq!(vec_out, row_out);
    }

    #[test]
    fn shuffle_key_comparison_is_total_order(
        a in key_strategy(),
        b in key_strategy(),
        c in key_strategy(),
    ) {
        use std::cmp::Ordering;
        // A total order: reflexive, antisymmetric, transitive.
        prop_assert_eq!(key::cmp(&a, &a), Ordering::Equal);
        prop_assert_eq!(key::cmp(&a, &b), key::cmp(&b, &a).reverse());
        if key::cmp(&a, &b).is_le() && key::cmp(&b, &c).is_le() {
            prop_assert!(key::cmp(&a, &c).is_le(), "{:?} {:?} {:?}", a, b, c);
        }
        // One rule: `Key`'s equality is the order's, and equal keys hash alike.
        let (ka, kb) = (Key(a.clone()), Key(b.clone()));
        prop_assert_eq!(key::cmp(&a, &b) == Ordering::Equal, ka == kb);
        prop_assert_eq!(ka.cmp(&kb), key::cmp(&a, &b));
        if ka == kb {
            prop_assert_eq!(key::hash(&a), key::hash(&b), "{:?} {:?}", a, b);
        }
    }
}

/// One key column's value: every key type, NULL, two NaN payloads, both
/// zeros, the empty string, and strings on both sides of the vector engine's
/// 8-byte interning threshold.
fn key_value_pool() -> Vec<Value> {
    let nan2 = f64::from_bits(f64::NAN.to_bits() | 1);
    let doubles = [0.0, -0.0, f64::NAN, -nan2, 1.5, -2.25, f64::INFINITY];
    let strings = ["", "a", "ab", "1234567", "12345678", "interned-key-0"];
    let mut pool = vec![Value::Null, Value::Boolean(false), Value::Boolean(true)];
    pool.extend([-1, 0, 1, i64::MAX].map(Value::Int));
    pool.extend([0, 1].map(Value::Timestamp));
    pool.extend(doubles.map(Value::Double));
    pool.extend(strings.map(|s| Value::String(s.into())));
    pool
}

/// One value order (DESIGN.md §18): for every pair over [`key_value_pool`]
/// plus `-inf` and INTs around 2^53, under all six operators, the kernels
/// (filter and value position, col-scalar and col-col), the row engine and
/// `key::compare` give one answer. An INT meets a DOUBLE as a DOUBLE: the
/// kernels get it widened, as the vectorizer widens it.
#[test]
fn value_comparison_is_one_rule_in_kernels_rows_and_key() {
    use hive::exec::expr::{BinaryOp, ExprNode};
    use hive::vector::expressions::{compare, filter_compare, CmpOp, Lane, Operand};
    use hive::vector::row_convert::{get_value, rows_to_batch};
    use hive::vector::VectorizedRowBatch;
    use std::cmp::Ordering::*;

    let big = 1i64 << 53;
    let mut pool = key_value_pool();
    pool.extend([f64::NEG_INFINITY, big as f64].map(Value::Double));
    pool.extend([big - 1, big, big + 1, -big - 1].map(Value::Int));
    let ops: [(CmpOp, BinaryOp, &[Ordering]); 6] = [
        (CmpOp::Equal, BinaryOp::Eq, &[Equal]),
        (CmpOp::NotEqual, BinaryOp::NotEq, &[Less, Greater]),
        (CmpOp::Less, BinaryOp::Lt, &[Less]),
        (CmpOp::LessEqual, BinaryOp::LtEq, &[Less, Equal]),
        (CmpOp::Greater, BinaryOp::Gt, &[Greater]),
        (CmpOp::GreaterEqual, BinaryOp::GtEq, &[Greater, Equal]),
    ];
    let scalar = |v: &Value| match v {
        Value::Double(x) => Operand::DoubleScalar(*x),
        Value::String(s) => Operand::BytesScalar(s.as_bytes().to_vec()),
        v => Operand::LongScalar(v.as_int().unwrap()),
    };
    let mut checked = 0;
    for a in pool.iter().filter(|v| !v.is_null()) {
        for b in pool.iter().filter(|v| !v.is_null()) {
            let widen = |v: &Value| match (v, a.data_type() == b.data_type()) {
                (Value::Int(x), false) => Value::Double(*x as f64),
                (v, _) => v.clone(),
            };
            let (ka, kb) = (widen(a), widen(b));
            let (Some(ta), Some(tb)) = (ka.data_type(), kb.data_type()) else {
                unreachable!()
            };
            if ta != tb {
                continue; // the binder rejects the pair
            }
            let lane = Lane::of(&ta).unwrap();
            let types = [ta.clone(), tb, DataType::Boolean];
            let mut batch = VectorizedRowBatch::new(&types, 1).unwrap();
            let row = Row::new(vec![ka, kb.clone(), Value::Boolean(false)]);
            rows_to_batch(&[row], &mut batch).unwrap();
            let (col0, col1) = (Operand::col(lane, 0), Operand::col(lane, 1));
            for (op, row_op, holds) in ops {
                let rule = holds.contains(&key::compare(a, b));
                let expr = ExprNode::binary(row_op, ExprNode::col(0), ExprNode::col(1));
                let row = expr.eval(&Row::new(vec![a.clone(), b.clone()])).unwrap();
                assert_eq!(row, Value::Boolean(rule), "row {a:?} {op:?} {b:?}");
                for rhs in [scalar(&kb), col1.clone()] {
                    if let Some(k) = filter_compare(op, col0.clone(), rhs.clone()) {
                        let mut filtered = batch.clone();
                        k.evaluate(&mut filtered).unwrap();
                        assert_eq!(filtered.size == 1, rule, "{} on {a:?} {b:?}", k.name());
                        checked += 1;
                    }
                    if let Some(k) = compare(op, col0.clone(), rhs, 2) {
                        let mut valued = batch.clone();
                        k.evaluate(&mut valued).unwrap();
                        let got = get_value(&valued.columns[2], 0, &DataType::Boolean);
                        assert_eq!(got, Value::Boolean(rule), "{} on {a:?} {b:?}", k.name());
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked > 3000, "only {checked} kernel answers were checked");
}

/// Keys of zero to three columns over [`key_value_pool`].
fn key_strategy() -> impl Strategy<Value = Vec<Value>> {
    let pool = key_value_pool();
    let value = (0..pool.len()).prop_map(move |i| pool[i].clone());
    proptest::collection::vec(value, 0..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    // The shuffle's byte encoding is the key rule (DESIGN.md §20): `memcmp`
    // over key‖tag answers `key::cmp(..).then(tag)`, and a key decodes to
    // itself as the rule identifies it.
    #[test]
    fn shuffle_key_encoding_is_the_key_rule(
        a in encoded_key_strategy(),
        b in encoded_key_strategy(),
        ta in 0u32..3,
        tb in 0u32..3,
    ) {
        use hive::formats::serde::sortable;
        let enc = |k: &[Value], tag: u32| {
            let mut out = Vec::new();
            sortable::encode_key(k, &mut out);
            out.extend_from_slice(&tag.to_be_bytes());
            out
        };
        let (ea, eb) = (enc(&a, ta), enc(&b, tb));
        prop_assert_eq!(ea.cmp(&eb), key::cmp(&a, &b).then(ta.cmp(&tb)), "{:?} {:?}", a, b);
        let mut pos = 0;
        let back = sortable::decode_key(&ea, &mut pos).unwrap();
        prop_assert_eq!(pos, ea.len() - 4);
        let canonical: Vec<Value> = a.iter().cloned().map(key::canonical).collect();
        prop_assert_eq!(format!("{back:?}"), format!("{canonical:?}"));
    }
}

/// One batch column per scalar lane: BOOLEAN, INT, TIMESTAMP, DOUBLE and
/// STRING, each cell drawn from its pool by index (0 is NULL).
const LANE_TYPES: [DataType; 5] = [
    DataType::Boolean,
    DataType::Int,
    DataType::Timestamp,
    DataType::Double,
    DataType::String,
];
const LANE_POOL: usize = 9;

/// Cell `i` of the lane pools: what the encoders have to get right — the
/// extremes, `-0.0` and two NaN payloads, and strings holding the key
/// encoding's terminator and escape bytes, `\u{ff}` and invalid UTF-8.
fn set_lane_cell(col: &mut hive::vector::ColumnVector, lane: usize, row: usize, i: usize) {
    use hive::vector::ColumnVector;
    if i == 0 {
        return col.set_null(row);
    }
    let nan = f64::NAN.to_bits();
    let longs: [[i64; 8]; 3] = [
        [0, 1, 0, 1, 1, 0, 0, 1],
        [0, -1, 1, i64::MIN, i64::MAX, 42, -256, 7],
        [0, -1, i64::MIN, i64::MAX, 1_400_000_000_000, 5, -9, 86_400],
    ];
    let doubles = [
        0.0,
        -0.0,
        f64::NAN,
        f64::from_bits(nan | 1),
        -f64::from_bits(nan | 2),
        f64::INFINITY,
        f64::NEG_INFINITY,
        -2.25,
    ];
    let strings: [&[u8]; 8] = [
        b"",
        b"\0",
        b"a\0b",
        b"\x01",
        "\u{ff}".as_bytes(),
        b"abc",
        b"\xff\xfe",
        b"a\x80",
    ];
    match col {
        ColumnVector::Long(v) => v.vector[row] = longs[lane][i - 1],
        ColumnVector::Double(v) => v.vector[row] = doubles[i - 1],
        ColumnVector::Bytes(v) => v.set(row, strings[i - 1]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    // The lane encoders are the `Value` encoders (DESIGN.md §20 "The lane
    // encoders"): over every scalar lane, with NULLs, repeating columns and
    // a selection, a row's sortable key, binary value row and partition hash
    // read from its cells are the bytes and the hash `encode_key`,
    // `binary_serialize_row` and `key::hash` give over `get_value` of the
    // same cells, and a SequenceFile part written from the columns is the
    // part written from the rows.
    #[test]
    fn lane_encoders_equal_the_value_encoders(
        cells in proptest::collection::vec(proptest::collection::vec(0..LANE_POOL, 5), 1..24),
        repeating in 0u32..32,
        selection in any::<u64>(),
        selected_in_use in any::<bool>(),
        nk in 0usize..6,
    ) {
        use hive::exec::graph::ShuffleBatch;
        use hive::formats::sequence::SequenceWriter;
        use hive::formats::serde::{binary_serialize_cells, binary_serialize_row, sortable};
        use hive::vector::row_convert::{batch_to_rows, get_value};
        use hive::vector::VectorizedRowBatch;
        let mut b = VectorizedRowBatch::new(&LANE_TYPES, cells.len()).unwrap();
        for (row, lanes) in cells.iter().enumerate() {
            for (lane, &i) in lanes.iter().enumerate() {
                set_lane_cell(&mut b.columns[lane], lane, row, i);
            }
        }
        b.size = cells.len();
        for (lane, col) in b.columns.iter_mut().enumerate() {
            if repeating >> lane & 1 == 1 {
                match col {
                    hive::vector::ColumnVector::Long(v) => v.is_repeating = true,
                    hive::vector::ColumnVector::Double(v) => v.is_repeating = true,
                    hive::vector::ColumnVector::Bytes(v) => v.is_repeating = true,
                }
            }
        }
        if selected_in_use {
            let keep: Vec<usize> = (0..cells.len()).filter(|i| selection >> i & 1 == 1).collect();
            b.selected[..keep.len()].copy_from_slice(&keep);
            (b.selected_in_use, b.size) = (true, keep.len());
        }
        // Keys: the first `nk` lanes; values: every lane, last first.
        let typed = |c: usize| (c, LANE_TYPES[c].clone());
        let keys: Vec<(usize, DataType)> = (0..nk.min(5)).map(typed).collect();
        let values: Vec<(usize, DataType)> = (0..5).rev().map(typed).collect();
        for i in b.iter_selected() {
            let value = |&(c, ref dt): &(usize, DataType)| get_value(&b.columns[c], i, dt);
            let key: Vec<Value> = keys.iter().map(value).map(key::canonical).collect();
            let row = Row::new(values.iter().map(value).collect());
            let (mut want, mut got) = (Vec::new(), Vec::new());
            sortable::encode_key(&key, &mut want);
            sortable::encode_key_cells(&b.columns, &keys, i, &mut got);
            prop_assert_eq!(&got, &want, "key {:?}", key);
            prop_assert_eq!(sortable::hash_key_cells(&b.columns, &keys, i), key::hash(&key));
            want.clear();
            got.clear();
            binary_serialize_row(&row, &mut want);
            binary_serialize_cells(&b.columns, &values, i, &mut got);
            prop_assert_eq!(&got, &want, "row {:?}", row);
        }
        // The shuffle's batch form carries the same columns.
        let batch = std::sync::Arc::new(b);
        let rows = ShuffleBatch { batch, keys: keys.into(), values: values.into(), tag: 0 };
        let fs = small_dfs();
        let mut from_cells = SequenceWriter::create(&fs, "/cells");
        from_cells.write_cells(&rows.batch, &rows.values);
        let mut from_rows: Box<dyn TableWriter> = Box::new(SequenceWriter::create(&fs, "/rows"));
        for row in batch_to_rows(&rows.batch, &rows.values) {
            from_rows.write_row(&row).unwrap();
        }
        Box::new(from_cells).close().unwrap();
        from_rows.close().unwrap();
        let read = |p: &str| fs.open(p, None).unwrap().read_all().unwrap();
        prop_assert_eq!(read("/cells"), read("/rows"));
    }
}

/// Keys of zero to three columns over [`key_value_pool`] plus what the byte
/// encoding has to get right: strings holding its terminator and escape
/// bytes and `\u{ff}`, the INT extremes, TIMESTAMPs beside INTs, and nested
/// values.
fn encoded_key_strategy() -> impl Strategy<Value = Vec<Value>> {
    let mut pool = key_value_pool();
    let strings = ["\0", "a\0", "a\0b", "a\u{1}", "\u{ff}", "a\u{ff}"];
    pool.extend(strings.map(|s| Value::String(s.into())));
    pool.extend([i64::MIN, i64::MIN + 1, -256].map(Value::Int));
    pool.extend([i64::MIN, -1, i64::MAX].map(Value::Timestamp));
    pool.extend([
        Value::Array(vec![Value::Int(1)]),
        Value::Array(vec![Value::Int(1), Value::Null]),
        Value::Struct(vec![Value::String("a".into()), Value::Boolean(false)]),
        Value::Map(vec![(Value::String("k".into()), Value::Int(0))]),
        Value::Union(1, Box::new(Value::Timestamp(0))),
    ]);
    let value = (0..pool.len()).prop_map(move |i| pool[i].clone());
    proptest::collection::vec(value, 0..4)
}

/// `key::hash` decides which reducer a key goes to, so every non-NaN key
/// must hash exactly as it did before the rule moved into `hive_common::key`
/// (values recorded from the previous `Value::shuffle_hash`): partition
/// assignment, un-`ORDER`ed row order and the goldens depend on it.
#[test]
fn key_hash_of_non_nan_keys_is_pinned() {
    use Value::*;
    let s = |x: &str| String(x.into());
    let pinned: [(Vec<Value>, u64); 20] = [
        (vec![], 0xcbf29ce484222325),
        (vec![Null], 0xb03e204c8774ce18),
        (vec![Boolean(false)], 0xaf63cd4c8601d30f),
        (vec![Boolean(true)], 0xaf63cc4c8601d15c),
        (vec![Int(0)], 0xaf63bd4c8601b7df),
        (vec![Int(-1)], 0x509c41b379fe466e),
        (vec![Int(42)], 0xaf63a74c8601927d),
        (vec![Int(i64::MAX)], 0xd09c41b379fe466e),
        (vec![Timestamp(86_400_000)], 0x91bfbd473aa40bdf),
        (vec![Double(0.0)], 0xaf63bd4c8601b7df),
        (vec![Double(-0.0)], 0xaf63bd4c8601b7df),
        (vec![Double(1.5)], 0xd02bbd4c8601b7df),
        (vec![Double(f64::INFINITY)], 0x0293bd4c8601b7df),
        (vec![s("")], 0xaf66ca4c8606e6f6),
        (vec![s("a")], 0x0898f107b53ff261),
        (vec![s("interned-key-0")], 0x4e0d8ffbcb768828),
        (vec![Int(7), s("g2")], 0x2ce33065e5c8494c),
        (vec![Null, Double(-2.25), Boolean(true)], 0x7f43b847e0a466bb),
        (vec![s("ab"), s("c")], 0x9e856b483666fa21),
        (vec![s("a"), s("bc")], 0xb0a95476f1ab463b),
    ];
    for (k, hash) in pinned {
        assert_eq!(key::hash(&k), hash, "{k:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_serde_round_trips_rows((types, rows) in rows_strategy()) {
        let schema = Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, t)| hive::common::Field::new(format!("c{i}"), t.clone()))
                .collect(),
        );
        for row in &rows {
            let mut buf = Vec::new();
            hive::formats::serde::text_serialize(row, &mut buf);
            let back = hive::formats::serde::text_deserialize(&buf, &schema).unwrap();
            prop_assert_eq!(&back, row);
        }
    }

    #[test]
    fn binary_serde_round_trips_rows((_, rows) in rows_strategy()) {
        for row in &rows {
            let mut buf = Vec::new();
            hive::formats::serde::binary_serialize_row(row, &mut buf);
            let mut pos = 0;
            let back = hive::formats::serde::binary_deserialize_row(&buf, &mut pos).unwrap();
            prop_assert_eq!(&back, row);
            prop_assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn vectorized_between_matches_row_between(
        vals in proptest::collection::vec(any::<i16>(), 1..400),
        a in any::<i16>(),
        b in any::<i16>(),
    ) {
        use hive::exec::expr::ExprNode;
        use hive::vector::expressions::{filter_between, Operand};
        use hive::vector::{ColumnVector, VectorizedRowBatch};

        let (lo, hi) = (a.min(b) as i64, a.max(b) as i64);
        let pred = ExprNode::Between {
            expr: Box::new(ExprNode::col(0)),
            lo: Box::new(ExprNode::lit(Value::Int(lo))),
            hi: Box::new(ExprNode::lit(Value::Int(hi))),
            negated: false,
        };
        let row_sel: Vec<usize> = vals
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                pred.eval_predicate(&Row::new(vec![Value::Int(**v as i64)])).unwrap()
            })
            .map(|(i, _)| i)
            .collect();

        let n = vals.len();
        let mut batch = VectorizedRowBatch::new(&[DataType::Int], n).unwrap();
        if let ColumnVector::Long(c) = &mut batch.columns[0] {
            for (i, v) in vals.iter().enumerate() {
                c.vector[i] = *v as i64;
            }
        }
        batch.size = n;
        filter_between(Operand::LongCol(0), Operand::LongScalar(lo), Operand::LongScalar(hi))
            .unwrap()
            .evaluate(&mut batch)
            .unwrap();
        prop_assert_eq!(batch.iter_selected().collect::<Vec<_>>(), row_sel);
    }

    #[test]
    fn rcfile_round_trips_arbitrary_primitive_rows((types, rows) in rows_strategy()) {
        use hive::formats::rcfile::{RcFileReader, RcFileWriter};
        let schema = Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, t)| hive::common::Field::new(format!("c{i}"), t.clone()))
                .collect(),
        );
        let dfs = small_dfs();
        let mut w: Box<dyn TableWriter> = Box::new(RcFileWriter::create(
            &dfs,
            "/p/rc",
            &schema,
            4 << 10,
            Compression::Snappy,
        ));
        for r in &rows {
            w.write_row(r).unwrap();
        }
        w.close().unwrap();
        let mut r = RcFileReader::open(&dfs, "/p/rc", &schema, None, None).unwrap();
        let mut back = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            back.push(row);
        }
        prop_assert_eq!(back, rows);
    }
}

// ---------------------------------------------------------------------------
// Differential join harness: arbitrary build/probe tables (nulls, duplicate
// keys, empty sides, NaN and -0.0 keys, one- and two-column keys, an INT
// key joined to a DOUBLE key) must produce identical sorted results through
// the row-mode and vectorized map-join operators *and* the reduce-side join
// — three consumers of the one key rule — and the vectorized map-join run
// must actually have used the vectorized operator.
// ---------------------------------------------------------------------------

/// Join keys from a narrow per-type pool so duplicates, matches, misses and
/// NULLs all occur; NULL keys never match on either side.
fn join_key_strategy(dt: &DataType) -> BoxedStrategy<Value> {
    let non_null: BoxedStrategy<Value> = match dt {
        DataType::Int => (0i64..6).prop_map(Value::Int).boxed(),
        DataType::Boolean => any::<bool>().prop_map(Value::Boolean).boxed(),
        DataType::String => prop_oneof![
            Just(Value::String("a".into())),
            Just(Value::String("bb".into())),
            Just(Value::String("ccc".into())),
            Just(Value::String(String::new())),
            Just(Value::String("interned-key-0".into())),
            Just(Value::String("interned-key-1".into())),
        ]
        .boxed(),
        DataType::Timestamp => (0i64..4).prop_map(Value::Timestamp).boxed(),
        DataType::Double => prop_oneof![
            Just(Value::Double(0.0)),
            Just(Value::Double(-0.0)),
            Just(Value::Double(1.0)),
            Just(Value::Double(1.5)),
            Just(Value::Double(-2.25)),
            Just(Value::Double(f64::NAN)),
            Just(Value::Double(-f64::NAN)),
        ]
        .boxed(),
        _ => unreachable!("join-key types only"),
    };
    prop_oneof![4 => non_null, 1 => Just(Value::Null)].boxed()
}

/// Key column types of the probe and the build table, and their key rows.
type JoinTables = (
    Vec<DataType>,
    Vec<DataType>,
    Vec<Vec<Value>>,
    Vec<Vec<Value>>,
);

/// Three shapes: one key column of any key type on both sides, the same
/// plus a BIGINT second key column, and an INT probe key against a DOUBLE
/// build key (`split_join_condition` casts the INT side).
fn join_tables_strategy() -> impl Strategy<Value = JoinTables> {
    let dt = prop_oneof![
        Just(DataType::Int),
        Just(DataType::Boolean),
        Just(DataType::String),
        Just(DataType::Timestamp),
        Just(DataType::Double),
    ];
    let types = (dt, 0usize..3).prop_map(|(dt, shape)| match shape {
        0 => (vec![dt.clone()], vec![dt]),
        1 => (vec![dt.clone(), DataType::Int], vec![dt, DataType::Int]),
        _ => (vec![DataType::Int], vec![DataType::Double]),
    });
    types.prop_flat_map(|(probe_types, build_types)| {
        let keys = |types: &[DataType]| types.iter().map(join_key_strategy).collect::<Vec<_>>();
        let build = proptest::collection::vec(keys(&build_types), 0..16);
        let probe = proptest::collection::vec(keys(&probe_types), 1..120);
        (Just(probe_types), Just(build_types), build, probe)
    })
}

fn join_session(
    (probe_types, build_types, build, probe): &JoinTables,
    vectorize: bool,
    map_join: bool,
) -> hive::HiveSession {
    let columns = |types: &[DataType]| -> String {
        let sql_type = |dt: &DataType| match dt {
            DataType::Int => "BIGINT",
            DataType::Boolean => "BOOLEAN",
            DataType::String => "STRING",
            DataType::Timestamp => "TIMESTAMP",
            DataType::Double => "DOUBLE",
            _ => unreachable!(),
        };
        let column = |(i, dt)| format!("k{i} {}, ", sql_type(dt));
        types.iter().enumerate().map(column).collect()
    };
    let on_off = |on| if on { "true" } else { "false" };
    let mut hive = hive::HiveSession::in_memory();
    hive.set(
        hive::common::config::keys::VECTORIZED_ENABLED,
        on_off(vectorize),
    );
    hive.set(
        hive::common::config::keys::AUTO_CONVERT_JOIN,
        on_off(map_join),
    );
    // The probe table is two files, so two map tasks probe one build table.
    let mut load =
        |table: &str, ddl: String, keys: &[Vec<Value>], tail: &dyn Fn(usize) -> Value| {
            hive.execute(&ddl).unwrap();
            let row = |(i, k): (usize, &Vec<Value>)| {
                Row::new(k.iter().cloned().chain([tail(i)]).collect())
            };
            let rows: Vec<Row> = keys.iter().enumerate().map(row).collect();
            let (first, second) = rows.split_at(match table {
                "probe_t" => rows.len() / 2,
                _ => 0,
            });
            for part in [first, second].into_iter().filter(|p| !p.is_empty()) {
                hive.load_rows(table, part.iter().cloned()).unwrap();
            }
            if rows.is_empty() {
                hive.load_rows(table, []).unwrap();
            }
        };
    load(
        "build_t",
        format!(
            "CREATE TABLE build_t ({}name STRING) STORED AS orc",
            columns(build_types)
        ),
        build,
        &|i| Value::String(format!("b{i}")),
    );
    load(
        "probe_t",
        format!(
            "CREATE TABLE probe_t ({}id BIGINT) STORED AS orc",
            columns(probe_types)
        ),
        probe,
        &|i| Value::Int(i as i64),
    );
    hive
}

/// Rows as keys in key order: results compare by the key rule (NaN equals
/// NaN, `-0.0` differs from `0.0`), whatever order the engine returned.
fn sorted_rows(rows: Vec<Row>) -> Vec<Key> {
    let mut keys: Vec<Key> = rows.into_iter().map(|r| Key(r.into_values())).collect();
    keys.sort();
    keys
}

// ---------------------------------------------------------------------------
// Differential cache harness: random tables and query batches must produce
// byte-identical sorted results and identical row counts whether the server
// caches are cold, warm (second run against the same server), disabled
// (`hive.io.cache.bytes=0`), or hammered from 4 client threads at once —
// always compared against a fresh single-use session per query.
// ---------------------------------------------------------------------------

/// A random cache workload: table shape plus a batch of parameterized
/// queries spanning sarg scans, group-bys, map-joins, and the
/// stats-answered path (which reads footers through the metadata cache).
fn cache_workload_strategy() -> impl Strategy<Value = (u32, u32, Vec<(usize, i64)>)> {
    (
        50u32..400,
        2u32..20,
        proptest::collection::vec((0usize..4, 0i64..400), 1..6),
    )
}

fn cache_query(template: usize, threshold: i64) -> String {
    match template {
        0 => format!("SELECT k, v FROM t WHERE v < {threshold}"),
        1 => "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM t GROUP BY k".to_string(),
        2 => format!("SELECT t.k, d.name FROM t JOIN d ON (t.k = d.key) WHERE t.v < {threshold}"),
        _ => "SELECT COUNT(*), MIN(v), MAX(v) FROM t".to_string(),
    }
}

/// Deterministic-clock builder for the differential harness; `cache_on`
/// false disables both cache tiers via the master knob.
fn cache_builder(cache_on: bool) -> hive::SessionBuilder {
    let b = hive::HiveSession::builder().knob(
        hive::common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU,
        true,
    );
    if cache_on {
        b
    } else {
        b.set(hive::common::config::keys::IO_CACHE_BYTES, "0")
            .unwrap()
    }
}

fn load_cache_tables(hive: &mut hive::HiveSession, rows: u32, modulus: u32) {
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, s STRING) STORED AS orc")
        .unwrap();
    hive.execute("CREATE TABLE d (key BIGINT, name STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        (0..rows as i64).map(|i| {
            Row::new(vec![
                Value::Int(i % modulus as i64),
                Value::Int(i),
                Value::String(format!("s{}", i % 7)),
            ])
        }),
    )
    .unwrap();
    hive.load_rows(
        "d",
        (0..modulus as i64).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("d{i}"))])),
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cache_cold_warm_and_concurrent_match_single_use_sessions(
        (rows, modulus, batch) in cache_workload_strategy(),
    ) {
        // Reference: a fresh single-use session per query — nothing shared,
        // nothing cached across statements.
        let expected: Vec<Vec<Key>> = batch
            .iter()
            .map(|&(t, th)| {
                let mut fresh = cache_builder(true).build().unwrap();
                load_cache_tables(&mut fresh, rows, modulus);
                sorted_rows(fresh.execute(&cache_query(t, th)).unwrap().rows)
            })
            .collect();

        for cache_on in [true, false] {
            let server = cache_builder(cache_on).build_server().unwrap();
            {
                let mut s = server.new_session();
                load_cache_tables(&mut s, rows, modulus);
                // Cold pass fills the caches; warm pass must serve from them
                // with identical rows.
                for pass in ["cold", "warm"] {
                    for (&(t, th), want) in batch.iter().zip(&expected) {
                        let got = sorted_rows(s.execute(&cache_query(t, th)).unwrap().rows);
                        prop_assert_eq!(
                            &got, want,
                            "{} pass diverged (cache_on={}) on {}",
                            pass, cache_on, cache_query(t, th)
                        );
                    }
                }
            }
            // Concurrent: 4 client threads replay the batch against the same
            // (now warm) server.
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let srv = server.clone();
                    let batch = &batch;
                    let expected = &expected;
                    scope.spawn(move || {
                        for (&(t, th), want) in batch.iter().zip(expected) {
                            let got = sorted_rows(srv.execute(&cache_query(t, th)).unwrap().rows);
                            assert_eq!(
                                &got, want,
                                "concurrent run diverged (cache_on={cache_on}) on {}",
                                cache_query(t, th)
                            );
                        }
                    });
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-cache differential: the prepared-plan cache must be semantically
// invisible. A random batch of statements interleaved with table reloads
// (which move the DFS data watermark) and DDL (which moves the catalog
// generation) replays against two servers — plan cache on and off — and
// every statement must return identical rows on both. Each statement runs
// twice so repeats exercise the hit path, and hits are asserted to have
// actually happened whenever the batch contains a query.
// ---------------------------------------------------------------------------

/// Ops: 0..4 = the [`cache_query`] templates, 4 = reload table `t`,
/// 5 = unrelated DDL.
fn plan_cache_op_strategy() -> impl Strategy<Value = Vec<(usize, i64, u32)>> {
    proptest::collection::vec((0usize..6, 0i64..400, 20u32..150), 2..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn plan_cache_is_semantically_invisible(ops in plan_cache_op_strategy()) {
        let build = |on: bool| {
            let server = cache_builder(true)
                .set(
                    "hive.query.plan.cache.enabled",
                    if on { "true" } else { "false" },
                )
                .unwrap()
                .build_server()
                .unwrap();
            let mut s = server.new_session();
            load_cache_tables(&mut s, 120, 10);
            server
        };
        let cached = build(true);
        let plain = build(false);
        let mut queries = 0u64;
        for (i, &(op, th, rows)) in ops.iter().enumerate() {
            match op {
                4 => {
                    for srv in [&cached, &plain] {
                        let mut s = srv.new_session();
                        s.load_rows(
                            "t",
                            (0..rows as i64).map(|i| {
                                Row::new(vec![
                                    Value::Int(i % 9),
                                    Value::Int(i * 3),
                                    Value::String(format!("r{}", i % 4)),
                                ])
                            }),
                        )
                        .unwrap();
                    }
                }
                5 => {
                    for srv in [&cached, &plain] {
                        srv.execute(&format!("CREATE TABLE ddl_{i} (x BIGINT) STORED AS orc"))
                            .unwrap();
                    }
                }
                t => {
                    queries += 1;
                    let q = cache_query(t, th);
                    // Twice: the second run on the cached server is a
                    // guaranteed hit (query scratch writes do not move the
                    // data watermark).
                    for _ in 0..2 {
                        let got = sorted_rows(cached.execute(&q).unwrap().rows);
                        let want = sorted_rows(plain.execute(&q).unwrap().rows);
                        prop_assert_eq!(got, want, "cache on/off diverged on {}", q);
                    }
                }
            }
        }
        if queries > 0 {
            prop_assert!(
                cached.plan_cache().hits() >= queries,
                "every repeated statement should have hit ({} hits, {} queries)",
                cached.plan_cache().hits(),
                queries
            );
        }
        prop_assert_eq!(plain.plan_cache().hits() + plain.plan_cache().misses(), 0);
    }
}

// ---------------------------------------------------------------------------
// Kernel catalogue vs the row interpreter: every (constructor, operator,
// operand shape) `hive_vector::expressions` answers `Some` for is evaluated
// over edge values with nulls × `selected_in_use` × repeating inputs and
// must agree with `ExprNode::eval` cell for cell. It lives here because
// hive-vector cannot see hive-exec; which shapes exist is pinned inside
// hive-vector (`the_catalogue_is_exactly_this_table`).
// ---------------------------------------------------------------------------

mod catalogue {
    use super::*;
    use hive::exec::expr::{BinaryOp, ExprNode, UnaryOp};
    use hive::vector::expressions::{self as vx, ArithOp, CmpOp, Lane, Operand, VectorExpression};
    use hive::vector::row_convert::{get_value, rows_to_batch};
    use hive::vector::{ColumnVector, PrimitiveColumnVector, VectorizedRowBatch};

    const BIG: i64 = 9_007_199_254_740_993; // 2^53 + 1: not an f64

    /// `t (a BIGINT, b BIGINT, x DOUBLE, y DOUBLE, s STRING)`: edge values
    /// cycled with co-prime periods so pairs of columns see every mix.
    fn rows() -> Vec<Row> {
        let longs = [0, -1, 1, 7, BIG, BIG - 1, i64::MAX, i64::MIN];
        let doubles = [0.0, -0.0, 1.5, -2.25, 7.0, 1e300, -1e300, BIG as f64];
        let texts = ["", "g1", "g2", "g20", "h"];
        let cell = |i: usize, period: usize, v: Value| {
            if i % period == period - 1 {
                Value::Null
            } else {
                v
            }
        };
        (0..63usize)
            .map(|i| {
                Row::new(vec![
                    cell(i, 9, Value::Int(longs[i % 8])),
                    cell(i, 7, Value::Int(longs[(i / 8 + i) % 8])),
                    cell(i, 9, Value::Double(doubles[i % 8])),
                    cell(i, 5, Value::Double(doubles[(i / 8 + 3 * i) % 8])),
                    cell(i, 6, Value::String(texts[i % 5].to_string())),
                ])
            })
            .collect()
    }

    const TYPES: [DataType; 8] = [
        DataType::Int,
        DataType::Int,
        DataType::Double,
        DataType::Double,
        DataType::String,
        DataType::Int,     // 5: long scratch
        DataType::Double,  // 6: double scratch
        DataType::Boolean, // 7: boolean scratch
    ];

    /// How the batch presents the rows: all of them or a selected subset,
    /// and optionally one input column collapsed to `(column, source row)`.
    #[derive(Debug, Clone, Copy)]
    struct Layout {
        selected: bool,
        repeating: Option<(usize, usize)>,
    }

    fn layouts() -> Vec<Layout> {
        let mut out = Vec::new();
        for selected in [false, true] {
            out.push(Layout {
                selected,
                repeating: None,
            });
            for col in 0..5 {
                // Row 3 holds values everywhere; rows 8/6/4/5 hold the first NULL
                // of columns 0 and 2 / 1 / 3 / 4.
                for src in [3, [8, 6, 8, 4, 5][col]] {
                    out.push(Layout {
                        selected,
                        repeating: Some((col, src)),
                    });
                }
            }
        }
        out
    }

    /// The batch for `layout`, plus the rows it logically holds (by physical
    /// index) and the valid physical indexes.
    fn batch(layout: Layout) -> (VectorizedRowBatch, Vec<Row>, Vec<usize>) {
        let mut logical = rows();
        let mut b = VectorizedRowBatch::new(&TYPES, logical.len()).unwrap();
        rows_to_batch(&logical, &mut b).unwrap();
        if let Some((col, src)) = layout.repeating {
            let v = logical[src][col].clone();
            for r in &mut logical {
                let mut vals = r.values().to_vec();
                vals[col] = v.clone();
                *r = Row::new(vals);
            }
            fn collapse<T: Copy>(c: &mut PrimitiveColumnVector<T>, src: usize) {
                (c.vector[0], c.null[0], c.is_repeating) = (c.vector[src], c.null[src], true);
            }
            match &mut b.columns[col] {
                ColumnVector::Long(c) => collapse(c, src),
                ColumnVector::Double(c) => collapse(c, src),
                ColumnVector::Bytes(c) => {
                    (c.start[0], c.length[0], c.null[0]) =
                        (c.start[src], c.length[src], c.null[src]);
                    c.is_repeating = true;
                }
            }
        }
        let valid: Vec<usize> = if layout.selected {
            let keep: Vec<usize> = (0..logical.len()).filter(|i| i % 3 != 1).collect();
            b.selected[..keep.len()].copy_from_slice(&keep);
            b.selected_in_use = true;
            b.size = keep.len();
            keep
        } else {
            (0..logical.len()).collect()
        };
        (b, logical, valid)
    }

    /// The row-mode expression reading the same operand.
    fn node(o: &Operand) -> ExprNode {
        match o {
            Operand::LongCol(c) | Operand::DoubleCol(c) | Operand::BytesCol(c) => ExprNode::col(*c),
            Operand::LongScalar(x) => ExprNode::lit(Value::Int(*x)),
            Operand::DoubleScalar(x) => ExprNode::lit(Value::Double(*x)),
            Operand::BytesScalar(s) => {
                ExprNode::lit(Value::String(String::from_utf8(s.clone()).unwrap()))
            }
        }
    }

    fn arith_node(op: ArithOp) -> BinaryOp {
        match op {
            ArithOp::Add => BinaryOp::Add,
            ArithOp::Subtract => BinaryOp::Subtract,
            ArithOp::Multiply => BinaryOp::Multiply,
            ArithOp::Divide => BinaryOp::Divide,
            ArithOp::Modulo => BinaryOp::Modulo,
        }
    }

    fn cmp_node(op: CmpOp) -> BinaryOp {
        match op {
            CmpOp::Equal => BinaryOp::Eq,
            CmpOp::NotEqual => BinaryOp::NotEq,
            CmpOp::Less => BinaryOp::Lt,
            CmpOp::LessEqual => BinaryOp::LtEq,
            CmpOp::Greater => BinaryOp::Gt,
            CmpOp::GreaterEqual => BinaryOp::GtEq,
        }
    }

    /// A value kernel writing `out` must equal `expr` on every valid row.
    fn check_value(kernel: &dyn VectorExpression, out: usize, expr: &ExprNode) -> usize {
        for layout in layouts() {
            let (mut b, logical, valid) = batch(layout);
            kernel.evaluate(&mut b).unwrap();
            for &i in &valid {
                let got = get_value(&b.columns[out], i, &TYPES[out]);
                let want = expr.eval(&logical[i]).unwrap();
                assert_eq!(
                    got,
                    want,
                    "{} row {i} {:?} {layout:?}",
                    kernel.name(),
                    logical[i]
                );
            }
        }
        1
    }

    /// A filter kernel must keep exactly the valid rows `expr` accepts.
    fn check_filter(kernel: &dyn VectorExpression, expr: &ExprNode) -> usize {
        for layout in layouts() {
            let (mut b, logical, valid) = batch(layout);
            kernel.evaluate(&mut b).unwrap();
            let want: Vec<usize> = valid
                .into_iter()
                .filter(|&i| expr.eval_predicate(&logical[i]).unwrap())
                .collect();
            let got: Vec<usize> = b.iter_selected().collect();
            assert_eq!(got, want, "{} {layout:?}", kernel.name());
        }
        1
    }

    #[test]
    fn vectorized_catalogue_matches_row_expressions() {
        use Operand::*;
        let columns = [
            LongCol(0),
            LongCol(1),
            DoubleCol(2),
            DoubleCol(3),
            BytesCol(4),
        ];
        let mut operands = columns.to_vec();
        operands.extend([0, -1, 7, BIG, i64::MAX].map(LongScalar));
        operands.extend([0.0, -1.0, 7.0, 2.5, 1e300].map(DoubleScalar));
        operands.extend(["", "g2", "g20"].map(|s| BytesScalar(s.as_bytes().to_vec())));
        // Scratch column per result lane (no kernel writes bytes).
        let out_of = |lane: Lane| if lane == Lane::Double { 6 } else { 5 };

        let mut checked = 0;
        for (c, l) in columns.iter().enumerate() {
            for r in &operands {
                for op in ArithOp::ALL {
                    let out = out_of(l.lane());
                    if let Some(k) = vx::arith(op, l.clone(), r.clone(), out) {
                        let e = ExprNode::binary(arith_node(op), node(l), node(r));
                        checked += check_value(&*k, out, &e);
                    }
                }
                for op in CmpOp::ALL {
                    let e = ExprNode::binary(cmp_node(op), node(l), node(r));
                    if let Some(k) = vx::compare(op, l.clone(), r.clone(), 7) {
                        checked += check_value(&*k, 7, &e);
                        // The same comparison through a boolean column in
                        // filter position.
                        let bridged = vx::filter_and(vec![k, vx::filter_bool(LongCol(7)).unwrap()]);
                        checked += check_filter(&*bridged, &e);
                    }
                    if let Some(k) = vx::filter_compare(op, l.clone(), r.clone()) {
                        checked += check_filter(&*k, &e);
                    }
                }
                for hi in &operands {
                    if let Some(k) = vx::filter_between(l.clone(), r.clone(), hi.clone()) {
                        let e = ExprNode::Between {
                            expr: Box::new(node(l)),
                            lo: Box::new(node(r)),
                            hi: Box::new(node(hi)),
                            negated: false,
                        };
                        checked += check_filter(&*k, &e);
                    }
                }
            }
            for (to, target) in [
                (Lane::Long, DataType::Int),
                (Lane::Double, DataType::Double),
            ] {
                if let Some(k) = vx::cast(l.clone(), to, out_of(to)) {
                    let e = ExprNode::Cast {
                        expr: Box::new(node(l)),
                        target,
                    };
                    checked += check_value(&*k, out_of(to), &e);
                }
            }
            if let Some(k) = vx::negate(l.clone(), out_of(l.lane())) {
                let e = ExprNode::Unary {
                    op: UnaryOp::Neg,
                    expr: Box::new(node(l)),
                };
                checked += check_value(&*k, out_of(l.lane()), &e);
            }
            for negated in [false, true] {
                let e = ExprNode::IsNull {
                    expr: Box::new(node(l)),
                    negated,
                };
                checked += check_filter(&*vx::filter_is_null(c, negated), &e);
            }
        }
        for s in &operands {
            if s.lane() != Lane::Bytes {
                if let Some(k) = vx::constant(s.clone(), out_of(s.lane())) {
                    checked += check_value(&*k, out_of(s.lane()), &node(s));
                }
            }
        }
        // OR / AND structure over two kernels of different lanes.
        let (p, q) = (
            || vx::filter_compare(CmpOp::Greater, LongCol(0), LongScalar(0)).unwrap(),
            || vx::filter_compare(CmpOp::Less, DoubleCol(3), DoubleScalar(2.5)).unwrap(),
        );
        let pe = ExprNode::binary(BinaryOp::Gt, ExprNode::col(0), ExprNode::lit(Value::Int(0)));
        let qe = ExprNode::binary(
            BinaryOp::Lt,
            ExprNode::col(3),
            ExprNode::lit(Value::Double(2.5)),
        );
        let or = ExprNode::binary(BinaryOp::Or, pe.clone(), qe.clone());
        checked += check_filter(&*vx::filter_or(vec![p(), q()]), &or);
        let and = ExprNode::binary(BinaryOp::And, pe, qe);
        checked += check_filter(&*vx::filter_and(vec![p(), q()]), &and);

        // Guards the walk itself: a constructor that starts answering `None`
        // for everything would otherwise pass vacuously.
        assert!(checked > 600, "only {checked} kernels were exercised");
    }
}

// ---------------------------------------------------------------------------
// Differential row-vs-vector FULL-QUERY harness: random filter + expression
// + group-by pipelines over nullable data must produce identical results in
// batch-native and row mode, and the EXPLAIN ANALYZE profiles must agree on
// every comparable row count — scan rows, per-boundary logical rows, the
// whole reduce side, and the result cardinality.
// ---------------------------------------------------------------------------

/// Literals where the two engines can part ways: zero divisors of both
/// lanes, a negative, an integer `f64` cannot hold (2^53 + 1), one that
/// overflows any product, `i64::MIN` (whose `% -1` overflows), and a string
/// bound.
const EDGE_LITERALS: [&str; 7] = [
    "0",
    "0.0",
    "-1",
    "9007199254740993",
    "9223372036854775807",
    "(-9223372036854775807 - 1)",
    "'g2'",
];

/// GROUP BY key sets of the every-aggregate shape: one to three keys over
/// every lane — long (`k`, `v`, and `b` / `ts`, which must keep their
/// logical type through the shuffle), double and string.
const GROUP_KEYS: [&str; 12] = [
    "k", "v", "d", "s", "b", "ts", "b, ts", "s, k", "d, b", "k, s, b", "ts, d, v", "v, s, ts",
];

/// One random full-query shape over `t (k BIGINT, v BIGINT, d DOUBLE,
/// s STRING, b BOOLEAN, ts TIMESTAMP)`: a WHERE template (0 = none, which
/// leaves `selected_in_use` off; 10 and up: `%`, NOT, NOT BETWEEN, NOT IN,
/// CASE, NULL and TIMESTAMP operands) plus a grouped aggregate (over an int
/// or string key, or — shapes 5 to 7 — every aggregate kind over
/// `GROUP_KEYS[group]`) or an expression projection (8 and up: `%`, logic
/// and BETWEEN / IN / IS NULL as values, CASE, casts). `d` holds NaNs and
/// `-0.0`, which reach predicates, MIN/MAX and keys alike. `lit` picks the edge
/// literal the arithmetic / comparison templates use, in WHERE *and*
/// SELECT-list position; a template over a numeric column reads the string
/// bound as `0`, one over `s` reads a numeric literal as `'g2'`.
fn full_query(filter: usize, th: i64, shape: usize, lit: usize, group: usize) -> String {
    let quoted = EDGE_LITERALS[lit].starts_with('\'');
    let num = if quoted { "0" } else { EDGE_LITERALS[lit] };
    let text = if quoted { EDGE_LITERALS[lit] } else { "'g2'" };
    let w = match filter {
        1 => format!(" WHERE v > {th}"),
        2 => format!(" WHERE v + k < {th}"),
        3 => format!(" WHERE v BETWEEN {th} AND {}", th + 250),
        4 => " WHERE d IS NOT NULL".to_string(),
        5 => format!(" WHERE d / {num} > 1"),
        6 => format!(" WHERE d / (k - k) > 1 OR v + {num} > k"),
        7 => format!(" WHERE v * {num} < {th} AND k IN (0, 3, {th})"),
        8 => format!(" WHERE s >= {text} OR v = {num}"),
        9 => format!(" WHERE s BETWEEN 'g1' AND {text} AND d <= {num}"),
        10 => format!(" WHERE v % {num} = k % 3"),
        11 => format!(" WHERE NOT (v > {th} AND d < {num})"),
        12 => format!(" WHERE v NOT BETWEEN {th} AND {}", th + 250),
        13 => format!(" WHERE k NOT IN (0, 3, {th}) AND s NOT IN ({text}, 'g4')"),
        14 => format!(" WHERE CASE WHEN k > 2 THEN v > {th} ELSE d < {num} END"),
        15 => format!(" WHERE b OR (v > {th}) = (d IS NULL) OR s < NULL"),
        16 => format!(" WHERE ts > CAST({th} AS TIMESTAMP) OR k IN (1, NULL)"),
        _ => String::new(),
    };
    match shape {
        0 => format!(
            "SELECT k, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, MAX(v) AS mx, \
             AVG(d) AS ad FROM t{w} GROUP BY k"
        ),
        1 => format!("SELECT s, COUNT(*) AS n, SUM(v) AS sv FROM t{w} GROUP BY s"),
        2 => format!("SELECT k, v * 2 AS v2, v + k AS vk, d FROM t{w}"),
        3 => format!(
            "SELECT k, v + {num} AS a, v - {num} AS b, v * {num} AS m, d / {num} AS q, \
             d / (k - k) AS z, v / k AS r, -v AS neg, d * {num} AS dm FROM t{w}"
        ),
        4 => format!(
            "SELECT v = {num} AS e, v <> {num} AS ne, v > {num} AS g, d <= {num} AS le, \
             d >= {num} AS ge, k < v AS lt, v + {num} > k AS c FROM t{w}"
        ),
        5..=7 => format!(
            "SELECT {keys}, COUNT(*) AS n, COUNT(s) AS ns, SUM(v) AS sv, SUM(d) AS sd, \
             AVG(v) AS av, AVG(d) AS ad, MIN(v) AS nv, MAX(v) AS xv, MIN(d) AS nd, \
             MAX(d) AS xd, MIN(s) AS nst, MAX(s) AS xst, MIN(b) AS nb, MAX(b) AS xb, \
             MIN(ts) AS nts, MAX(ts) AS xts FROM t{w} GROUP BY {keys}",
            keys = GROUP_KEYS[group],
        ),
        8 => format!(
            "SELECT k, v % {num} AS m, d % {num} AS dm, v % k AS vk, d % (k - 2) AS dk, \
             ({num} - v + v) % -1 AS mm FROM t{w}"
        ),
        9 => format!(
            "SELECT k, NOT (v > {num}) AS nv, v > 0 AND d < {num} AS a, \
             v > 0 OR d < {num} AS o, v BETWEEN -5 AND {num} AS bt, \
             v NOT BETWEEN k AND {num} AS nbt, k IN (1, 2, {num}) AS i, \
             k NOT IN (1, NULL) AS ni, d IS NULL AS dn, s IS NOT NULL AS sn, \
             b AND NULL AS bn, s IN ({text}, 'g1') AS si FROM t{w}"
        ),
        _ => format!(
            "SELECT k, CASE WHEN k > 2 THEN v WHEN k > 0 THEN d ELSE {num} END AS c, \
             CASE WHEN b THEN s ELSE {text} END AS cs, CASE WHEN d > 0 THEN ts END AS ct, \
             NULL AS z, CAST(86400000 AS TIMESTAMP) AS t1, \
             ts = CAST(86400000 AS TIMESTAMP) AS te, CAST(d AS STRING) AS ds, \
             CAST(k AS BOOLEAN) AS kb, s = {num} AS sn FROM t{w}"
        ),
    }
}

/// Nullable rows for the full-query harness: narrow key domains so groups
/// collide, nulls in every column, doubles exact in binary.
fn full_query_rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let k = prop_oneof![4 => (0i64..8).prop_map(Value::Int), 1 => Just(Value::Null)];
    let v = prop_oneof![4 => (-500i64..500).prop_map(Value::Int), 1 => Just(Value::Null)];
    let d = prop_oneof![
        8 => (-64i32..64).prop_map(|x| Value::Double(x as f64 / 4.0)),
        2 => Just(Value::Null),
        1 => Just(Value::Double(-0.0)),
        1 => Just(Value::Double(f64::NAN)),
        1 => Just(Value::Double(-f64::from_bits(f64::NAN.to_bits() | 1))),
    ];
    let s = prop_oneof![
        4 => (0u8..5).prop_map(|x| Value::String(format!("g{x}"))),
        1 => Just(Value::Null)
    ];
    let b = prop_oneof![4 => any::<bool>().prop_map(Value::Boolean), 1 => Just(Value::Null)];
    let ts = prop_oneof![
        4 => (0i64..6).prop_map(|x| Value::Timestamp(x * 86_400_000)),
        1 => Just(Value::Null)
    ];
    // The strategy shim stops at 4-tuples: nest.
    proptest::collection::vec(
        ((k, v, d), (s, b, ts))
            .prop_map(|((k, v, d), (s, b, ts))| Row::new(vec![k, v, d, s, b, ts])),
        1..220,
    )
}

fn full_query_session(rows: &[Row], vectorize: bool) -> hive::HiveSession {
    let mut hive = hive::HiveSession::builder()
        .knob(
            hive::common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU,
            true,
        )
        .build()
        .unwrap();
    hive.set(
        hive::common::config::keys::VECTORIZED_ENABLED,
        if vectorize { "true" } else { "false" },
    );
    hive.execute(
        "CREATE TABLE t (k BIGINT, v BIGINT, d DOUBLE, s STRING, b BOOLEAN, ts TIMESTAMP) \
         STORED AS orc",
    )
    .unwrap();
    hive.load_rows("t", rows.iter().cloned()).unwrap();
    hive
}

/// The row counts a profile commits to, independent of operator naming:
/// scan rows, result rows, logical rows entering the first and leaving the
/// last map-side operator, and the entire reduce side. Both modes run the
/// same reduce graph, one with row and one with batch operators, so it must
/// match operator for operator by [`reduce_kind`].
#[allow(clippy::type_complexity)]
fn profile_row_counts(text: &str) -> (u64, u64, Vec<(u64, u64)>, Vec<(String, u64, u64)>) {
    let grab = |line: &str, key: &str| -> u64 {
        let at = line
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {line}"));
        line[at + key.len()..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let mut scan_rows = 0;
    let mut result_rows = 0;
    let mut map_ops = Vec::new();
    let mut reduce_ops = Vec::new();
    let mut section = "";
    for line in text.lines() {
        if line.contains("result_rows=") {
            result_rows = grab(line, "result_rows=");
        } else if line.trim_start().starts_with("scan: rows=") {
            scan_rows += grab(line, "rows=");
        } else if line.contains("map operators:") {
            section = "map";
        } else if line.contains("reduce operators:") {
            section = "reduce";
        } else if line.contains("rows_in=") {
            let rows_in = grab(line, "rows_in=");
            let rows_out = grab(line, "rows_out=");
            match section {
                "map" => map_ops.push((rows_in, rows_out)),
                "reduce" => {
                    let name = line.trim_start().split(" rows_in=").next().unwrap();
                    reduce_ops.push((reduce_kind(name.trim_end()), rows_in, rows_out));
                }
                _ => {}
            }
        }
    }
    (scan_rows, result_rows, map_ops, reduce_ops)
}

/// An operator's name without its engine: `VectorJoin(Inner, 2 way)` and
/// `JoinOperator(Inner, 2 way)` are both `Join(Inner, 2 way)`, a filter is
/// `Filter` whatever its kernels.
fn reduce_kind(name: &str) -> String {
    let name = name.strip_prefix("Vector").unwrap_or(name);
    let name = name.replacen("Operator", "", 1);
    name.split('[').next().unwrap().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn vectorized_full_queries_match_row_mode(
        rows in full_query_rows_strategy(),
        filter in 0usize..17,
        th in -300i64..300,
        shape in 0usize..11,
        lit in 0usize..EDGE_LITERALS.len(),
        group in 0usize..GROUP_KEYS.len(),
    ) {
        let sql = full_query(filter, th, shape, lit, group);
        let mut vec_s = full_query_session(&rows, true);
        let vec_rows = vec_s.execute(&sql).unwrap().rows;
        let vec_text = vec_s
            .execute(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap()
            .explain
            .unwrap();
        prop_assert!(
            vec_text.contains("Vector"),
            "query silently fell back to row mode on {sql}:\n{vec_text}"
        );

        let mut row_s = full_query_session(&rows, false);
        let row_rows = row_s.execute(&sql).unwrap().rows;
        let row_text = row_s
            .execute(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap()
            .explain
            .unwrap();
        prop_assert!(!row_text.contains("Vector"), "{row_text}");

        prop_assert_eq!(
            sorted_rows(vec_rows),
            sorted_rows(row_rows),
            "results diverged on {}",
            sql
        );

        let (vscan, vres, vmap, vreduce) = profile_row_counts(&vec_text);
        let (rscan, rres, rmap, rreduce) = profile_row_counts(&row_text);
        prop_assert_eq!(vscan, rscan, "scan rows diverged on {}", sql);
        prop_assert_eq!(vres, rres, "result rows diverged on {}", sql);
        // Logical rows entering the map chain and leaving it must agree;
        // the chains differ structurally (fusion, bridge) in between.
        prop_assert_eq!(
            vmap.first().map(|o| o.0),
            rmap.first().map(|o| o.0),
            "map-entry rows diverged on {}\nvec:\n{}\nrow:\n{}",
            sql, vec_text, row_text
        );
        prop_assert_eq!(
            vmap.last().map(|o| o.1),
            rmap.last().map(|o| o.1),
            "map-exit rows diverged on {}\nvec:\n{}\nrow:\n{}",
            sql, vec_text, row_text
        );
        // Both modes run the same reduce graph: every reduce operator must
        // report the same logical rows, kind for kind.
        prop_assert_eq!(
            vreduce, rreduce,
            "reduce-side profiles diverged on {}\nvec:\n{}\nrow:\n{}",
            sql, vec_text, row_text
        );
    }
}

// ---------------------------------------------------------------------------
// Differential row-vs-vector ACID harness: a random INSERT/UPDATE/DELETE
// history against a transactional table, then a random filter / expression /
// group-by / map-join query, run batch-native and in row mode. Both modes
// must return identical sorted rows, identical profile row counts, and
// identical `acid:` merge accounting — before AND after major compaction.
// ---------------------------------------------------------------------------

/// One random DML statement, parameterized so inserts collide with existing
/// keys, updates sometimes match nothing, and deletes span ranges that may
/// cross base and delta files.
fn acid_dml(op: usize, a: i64, b: i64) -> String {
    match op {
        0 => format!(
            "INSERT INTO t VALUES ({}, {}), ({}, {})",
            a % 8,
            b,
            (a + 3) % 8,
            b + 7
        ),
        1 => format!(
            "UPDATE t SET v = v + {} WHERE k = {}",
            (b % 97) + 100,
            a % 8
        ),
        _ => format!("DELETE FROM t WHERE v BETWEEN {} AND {}", b, b + (a % 120)),
    }
}

/// A random query over the ACID table `t (k, v)` joined (shape 2) against
/// the plain dimension `d (key, name)`.
fn acid_query(filter: usize, th: i64, shape: usize) -> String {
    let w = |p: &str| match filter {
        1 => format!(" WHERE {p}v > {th}"),
        2 => format!(" WHERE {p}v + {p}k < {th}"),
        3 => format!(" WHERE {p}v BETWEEN {th} AND {}", th + 250),
        _ => String::new(),
    };
    match shape {
        0 => format!(
            "SELECT k, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, MAX(v) AS mx \
             FROM t{} GROUP BY k",
            w("")
        ),
        1 => format!("SELECT k, v * 2 AS v2, v + k AS vk FROM t{}", w("")),
        // Two keys (one of them also an input) and every long aggregate.
        3 => format!(
            "SELECT v, k, COUNT(*) AS n, COUNT(v) AS nv, SUM(k) AS sk, AVG(v) AS av, \
             AVG(k) AS ak, MIN(k) AS mn, MAX(v) AS mx FROM t{} GROUP BY v, k",
            w("")
        ),
        _ => format!(
            "SELECT d.name, COUNT(*) AS n, SUM(t.v) AS sv FROM t \
             JOIN d ON (t.k = d.key){} GROUP BY d.name",
            w("t.")
        ),
    }
}

fn acid_diff_session(rows: &[(i64, i64)], vectorize: bool) -> hive::HiveSession {
    let mut hive = hive::HiveSession::builder()
        .knob(
            hive::common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU,
            true,
        )
        .build()
        .unwrap();
    hive.set(
        hive::common::config::keys::VECTORIZED_ENABLED,
        if vectorize { "true" } else { "false" },
    );
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        rows.iter()
            .map(|&(k, v)| Row::new(vec![Value::Int(k), Value::Int(v)])),
    )
    .unwrap();
    hive.execute("CREATE TABLE d (key BIGINT, name STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "d",
        (0..8i64).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("d{i}"))])),
    )
    .unwrap();
    hive
}

/// The `acid:` lines of a profile — merge-on-read accounting (snapshot
/// generation, delta files, delta rows, masked rows) that must be
/// mode-independent.
fn acid_profile_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.trim_start().starts_with("acid:"))
        .map(str::to_string)
        .collect()
}

/// One differential checkpoint: run `sql` in both sessions and compare
/// rows, profile row counts, and acid accounting.
fn acid_diff_check(
    vec_s: &mut hive::HiveSession,
    row_s: &mut hive::HiveSession,
    sql: &str,
    phase: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let vec_rows = vec_s.execute(sql).unwrap().rows;
    let vec_text = vec_s
        .execute(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .explain
        .unwrap();
    prop_assert!(
        vec_text.contains("Vector"),
        "{phase}: ACID query fell back to row mode:\n{vec_text}"
    );
    let row_rows = row_s.execute(sql).unwrap().rows;
    let row_text = row_s
        .execute(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .explain
        .unwrap();
    prop_assert!(!row_text.contains("Vector"), "{row_text}");

    prop_assert_eq!(
        sorted_rows(vec_rows),
        sorted_rows(row_rows),
        "{}: results diverged on {}",
        phase,
        sql
    );
    let (vscan, vres, vmap, vreduce) = profile_row_counts(&vec_text);
    let (rscan, rres, rmap, rreduce) = profile_row_counts(&row_text);
    prop_assert_eq!(vscan, rscan, "{}: scan rows diverged on {}", phase, sql);
    prop_assert_eq!(vres, rres, "{}: result rows diverged on {}", phase, sql);
    prop_assert_eq!(
        vmap.first().map(|o| o.0),
        rmap.first().map(|o| o.0),
        "{}: map-entry rows diverged on {}\nvec:\n{}\nrow:\n{}",
        phase,
        sql,
        vec_text,
        row_text
    );
    prop_assert_eq!(
        vmap.last().map(|o| o.1),
        rmap.last().map(|o| o.1),
        "{}: map-exit rows diverged on {}\nvec:\n{}\nrow:\n{}",
        phase,
        sql,
        vec_text,
        row_text
    );
    prop_assert_eq!(
        vreduce,
        rreduce,
        "{}: reduce-side profiles diverged on {}\nvec:\n{}\nrow:\n{}",
        phase,
        sql,
        vec_text,
        row_text
    );
    // Batch-wise delta merge and selected[]-level masking must account
    // logical rows exactly like the row-at-a-time path.
    prop_assert_eq!(
        acid_profile_lines(&vec_text),
        acid_profile_lines(&row_text),
        "{}: acid merge accounting diverged on {}\nvec:\n{}\nrow:\n{}",
        phase,
        sql,
        vec_text,
        row_text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn vectorized_acid_full_queries_match_row_mode(
        base in proptest::collection::vec((0i64..8, -500i64..500), 0..120),
        history in proptest::collection::vec(
            (0usize..3, 0i64..1000, -400i64..400), 1..6),
        filter in 0usize..4,
        th in -300i64..300,
        shape in 0usize..4,
    ) {
        let sql = acid_query(filter, th, shape);
        let mut vec_s = acid_diff_session(&base, true);
        let mut row_s = acid_diff_session(&base, false);

        // Replay the same DML history against both sessions; the affected
        // row counts must already agree statement by statement.
        for &(op, a, b) in &history {
            let dml = acid_dml(op, a, b);
            let vec_n = vec_s.execute(&dml).unwrap().rows;
            let row_n = row_s.execute(&dml).unwrap().rows;
            prop_assert_eq!(vec_n, row_n, "DML disagreed on {}", dml);
        }
        acid_diff_check(&mut vec_s, &mut row_s, &sql, "pre-compaction")?;

        for s in [&mut vec_s, &mut row_s] {
            s.execute("ALTER TABLE t COMPACT 'major'").unwrap();
        }
        acid_diff_check(&mut vec_s, &mut row_s, &sql, "post-compaction")?;
    }
}

/// `probe_t <join> build_t` on every key column, with and without a build
/// filter (an ON conjunct over `build_t` alone), under JOIN and LEFT JOIN:
/// the map join and the reduce join, each in the row and the vector engine,
/// give one answer, and the vectorized map join is the one that ran.
fn mapjoin_engines_agree(tables: &JoinTables) -> Result<(), TestCaseError> {
    let on: Vec<String> = (0..tables.0.len())
        .map(|i| format!("probe_t.k{i} = build_t.k{i}"))
        .collect();
    let sqls: Vec<(&str, String)> = ["JOIN", "LEFT JOIN"]
        .into_iter()
        .flat_map(|join| {
            let on = on.join(" AND ");
            ["", " AND build_t.name < 'b5'"].map(move |filter| {
                let sql = format!(
                    "SELECT probe_t.id, probe_t.k0, build_t.name FROM probe_t \
                     {join} build_t ON ({on}{filter})"
                );
                (join, sql)
            })
        })
        .collect();
    // map-join x reduce-join x row x vector: one answer per statement.
    let mut first = Vec::new();
    for (vectorize, map_join) in [(true, true), (false, true), (true, false), (false, false)] {
        let mut s = join_session(tables, vectorize, map_join);
        for (i, (join, sql)) in sqls.iter().enumerate() {
            let rows = sorted_rows(s.execute(sql).unwrap().rows);
            if vectorize && map_join {
                let analyze = s
                    .execute(&format!("EXPLAIN ANALYZE {sql}"))
                    .unwrap()
                    .explain
                    .expect("EXPLAIN ANALYZE sets explain text");
                prop_assert!(
                    analyze.contains("VectorMapJoin"),
                    "{join}: plan silently fell back to row mode:\n{analyze}"
                );
                first.push(rows);
                continue;
            }
            prop_assert_eq!(
                &first[i],
                &rows,
                "{} over {:?} = {:?}, vectorize={} map_join={}",
                sql,
                tables.0,
                tables.1,
                vectorize,
                map_join
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn vectorized_mapjoin_matches_row_mapjoin(tables in join_tables_strategy()) {
        mapjoin_engines_agree(&tables)?;
    }
}

/// The same four engines over a build side of several side batches (3 000
/// rows, 211 keys, every 17th key NULL, most rows passing the filter)
/// against a probe of two files, so two map tasks probe one table.
#[test]
fn vectorized_mapjoin_matches_row_mapjoin_over_a_big_build() {
    let key = |i: i64, every: i64, modulo: i64| {
        let k = if i % every == 0 {
            Value::Null
        } else {
            Value::Int(i % modulo)
        };
        vec![k]
    };
    let build = (0..3000).map(|i| key(i, 17, 211)).collect();
    let probe = (0..600).map(|i| key(i, 23, 300)).collect();
    let tables = (vec![DataType::Int], vec![DataType::Int], build, probe);
    mapjoin_engines_agree(&tables).unwrap();
    let mut s = join_session(&tables, true, true);
    let sql = "SELECT probe_t.id, build_t.name FROM probe_t JOIN build_t \
               ON (probe_t.k0 = build_t.k0 AND build_t.name < 'b5')";
    let report = s.execute(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let analyze = report.explain.unwrap();
    let build_rows = analyze
        .split("build_rows=")
        .nth(1)
        .and_then(|rest| rest.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|n| n.parse::<u64>().ok());
    assert!(build_rows.is_some_and(|n| n > 1024), "{analyze}");
    assert!(analyze.contains("map_tasks=2 "), "{analyze}");
}

// ---------------------------------------------------------------------------
// Planner oracles. The four (vectorize, map-join) engines run one plan, so
// agreeing with each other says nothing about the plan: outer joins under a
// WHERE are checked against the definition (nested loop, NULL-extend, then
// filter), and a statement's plan and rows must not depend on how its
// column references are spelled.
// ---------------------------------------------------------------------------

const ALL_ENGINES: [(bool, bool); 4] = [(true, true), (false, true), (true, false), (false, false)];

/// One side's WHERE conjunct over its non-key column (`probe_t.id`,
/// `build_t.name`), as SQL text and as the predicate it denotes; a NULL
/// operand fails every comparison.
#[allow(clippy::type_complexity)]
fn side_predicate(
    column: &str,
    literal: Value,
    op: usize,
) -> Option<(String, Box<dyn Fn(&Value) -> bool>)> {
    let quoted = match &literal {
        Value::String(s) => format!("'{s}'"),
        other => other.to_string(),
    };
    let compares = move |ord: fn(Ordering) -> bool| -> Box<dyn Fn(&Value) -> bool> {
        Box::new(move |v| !matches!(v, Value::Null) && ord(key::cmp_value(v, &literal)))
    };
    Some(match op {
        1 => (
            format!("{column} IS NULL"),
            Box::new(|v| matches!(v, Value::Null)),
        ),
        2 => (format!("{column} = {quoted}"), compares(Ordering::is_eq)),
        3 => (format!("{column} > {quoted}"), compares(Ordering::is_gt)),
        _ => return None,
    })
}

/// `SELECT probe_t.id, probe_t.k0, build_t.name` over `probe_t <join>
/// build_t` on every key column and `on`, by definition: all pairs whose
/// keys are equal under the key rule (a NULL part equals nothing; the INT
/// side of an INT = DOUBLE pair compares as DOUBLE) and whose `id` and
/// `name` pass `on`, rows of a preserved side no such pair includes
/// NULL-extended, and only then `keep`.
fn join_oracle(
    tables: &JoinTables,
    join: &str,
    on: &dyn Fn(&Value, &Value) -> bool,
    keep: &dyn Fn(&Value, &Value) -> bool,
) -> Vec<Key> {
    let (probe_types, build_types, build, probe) = tables;
    let widen = probe_types != build_types;
    let key_of = |k: &[Value], widen: bool| {
        let part = |v: &Value| match v {
            Value::Int(i) if widen => Value::Double(*i as f64),
            v => v.clone(),
        };
        (!k.contains(&Value::Null)).then(|| Key(k.iter().map(part).collect()))
    };
    let (keep_probe, keep_build) = (
        join != "JOIN" && join != "RIGHT JOIN",
        join.starts_with(['R', 'F']),
    );
    let name = |j: usize| Value::String(format!("b{j}"));
    let mut build_matched = vec![false; build.len()];
    let mut rows = Vec::new();
    for (i, p) in probe.iter().enumerate() {
        let id = Value::Int(i as i64);
        let pk = key_of(p, widen);
        let matches: Vec<usize> = (0..build.len())
            .filter(|&j| pk.is_some() && pk == key_of(&build[j], false) && on(&id, &name(j)))
            .collect();
        for &j in &matches {
            build_matched[j] = true;
            rows.push(vec![id.clone(), p[0].clone(), name(j)]);
        }
        if matches.is_empty() && keep_probe {
            rows.push(vec![id, p[0].clone(), Value::Null]);
        }
    }
    for j in (0..build.len()).filter(|&j| keep_build && !build_matched[j]) {
        rows.push(vec![Value::Null, Value::Null, name(j)]);
    }
    rows.retain(|r| keep(&r[0], &r[2]));
    sorted_rows(rows.into_iter().map(Row::new).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn outer_joins_under_a_where_match_the_nested_loop_oracle(
        tables in join_tables_strategy(),
        (probe_op, build_op, c) in (0usize..4, 0usize..4, 0i64..12),
    ) {
        let probe_pred = side_predicate("probe_t.id", Value::Int(c), probe_op);
        let build_pred = side_predicate("build_t.name", Value::String(format!("b{c}")), build_op);
        let conjuncts = [&probe_pred, &build_pred].into_iter().flatten();
        let conjuncts: Vec<&str> = conjuncts.map(|(sql, _)| sql.as_str()).collect();
        let filter = match conjuncts.is_empty() {
            true => String::new(),
            false => format!(" WHERE {}", conjuncts.join(" AND ")),
        };
        let keep = |id: &Value, name: &Value| {
            probe_pred.as_ref().is_none_or(|(_, p)| p(id))
                && build_pred.as_ref().is_none_or(|(_, p)| p(name))
        };
        let on: Vec<String> = (0..tables.0.len())
            .map(|i| format!("probe_t.k{i} = build_t.k{i}"))
            .collect();
        for (vectorize, map_join) in ALL_ENGINES {
            let mut s = join_session(&tables, vectorize, map_join);
            for join in ["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"] {
                let sql = format!(
                    "SELECT probe_t.id, probe_t.k0, build_t.name FROM probe_t \
                     {join} build_t ON ({}){filter}",
                    on.join(" AND ")
                );
                prop_assert_eq!(
                    sorted_rows(s.execute(&sql).unwrap().rows),
                    join_oracle(&tables, join, &|_, _| true, &keep),
                    "{} over {:?} = {:?}, vectorize={} map_join={}",
                    sql, tables.0, tables.1, vectorize, map_join
                );
            }
        }
    }

    // The same oracle with the conjuncts in the ON clause: over the probe
    // side, the build side and both. An outer join tests each pair against
    // them, so a preserved row no pair passes is padded, not lost.
    #[test]
    fn outer_join_on_conjuncts_match_the_nested_loop_oracle(
        tables in join_tables_strategy(),
        (probe_op, build_op, both, c) in (0usize..4, 0usize..4, any::<bool>(), 0i64..12),
    ) {
        let probe_pred = side_predicate("probe_t.id", Value::Int(c), probe_op);
        let build_pred = side_predicate("build_t.name", Value::String(format!("b{c}")), build_op);
        // Over both sides: `id > c OR name = 'b<c>'` (no operand is NULL
        // in a pair).
        let both_sql = format!("(probe_t.id > {c} OR build_t.name = 'b{c}')");
        let both_pred = |id: &Value, name: &Value| {
            id.as_int().is_some_and(|id| id > c) || *name == Value::String(format!("b{c}"))
        };
        let conjuncts = [&probe_pred, &build_pred].into_iter().flatten();
        let mut on: Vec<String> = (0..tables.0.len())
            .map(|i| format!("probe_t.k{i} = build_t.k{i}"))
            .collect();
        on.extend(conjuncts.map(|(sql, _)| sql.clone()));
        on.extend(both.then(|| both_sql.clone()));
        let passes = |id: &Value, name: &Value| {
            probe_pred.as_ref().is_none_or(|(_, p)| p(id))
                && build_pred.as_ref().is_none_or(|(_, p)| p(name))
                && (!both || both_pred(id, name))
        };
        for (vectorize, map_join) in ALL_ENGINES {
            let mut s = join_session(&tables, vectorize, map_join);
            for join in ["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"] {
                let sql = format!(
                    "SELECT probe_t.id, probe_t.k0, build_t.name FROM probe_t \
                     {join} build_t ON ({})",
                    on.join(" AND ")
                );
                prop_assert_eq!(
                    sorted_rows(s.execute(&sql).unwrap().rows),
                    join_oracle(&tables, join, &passes, &|_, _| true),
                    "{} over {:?} = {:?}, vectorize={} map_join={}",
                    sql, tables.0, tables.1, vectorize, map_join
                );
            }
        }
    }
}

/// `sql` with every bare occurrence of one of `columns` spelled
/// `qualifier.column` (select aliases — the word after `AS` — and string
/// literals are left alone).
fn qualify(sql: &str, columns: &[&str], qualifier: &str) -> String {
    let mut out = String::new();
    let (mut in_quote, mut after_as) = (false, false);
    let mut rest = sql;
    while let Some(c) = rest.chars().next() {
        let word_len = match in_quote || !(c.is_ascii_alphabetic() || c == '_') {
            true => 0,
            false => rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len()),
        };
        if word_len == 0 {
            in_quote ^= c == '\'';
            out.push(c);
            rest = &rest[c.len_utf8()..];
            continue;
        }
        let word = &rest[..word_len];
        if columns.contains(&word) && !after_as && !out.ends_with('.') {
            out.push_str(qualifier);
            out.push('.');
        }
        out.push_str(word);
        after_as = word == "AS";
        rest = &rest[word_len..];
    }
    out
}

/// The plan text and the sorted rows of `sql`.
fn plan_and_rows(s: &mut hive::HiveSession, sql: &str) -> hive::common::Result<(String, Vec<Key>)> {
    let plan = s.execute(&format!("EXPLAIN {sql}"))?.explain;
    Ok((
        plan.expect("EXPLAIN sets explain text"),
        sorted_rows(s.execute(sql)?.rows),
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn qualifying_every_column_changes_neither_plan_nor_rows(
        rows in full_query_rows_strategy(),
        (filter, th, shape) in (0usize..10, -400i64..400, 0usize..8),
        (lit, group) in (0usize..EDGE_LITERALS.len(), 0usize..GROUP_KEYS.len()),
        tables in join_tables_strategy(),
        join in 0usize..4,
    ) {
        let written = full_query(filter, th, shape, lit, group);
        let columns = ["k", "v", "d", "s", "b", "ts"];
        let mut s = full_query_session(&rows, true);
        let plain = plan_and_rows(&mut s, &written).unwrap();
        let qualified = qualify(&written, &columns, "t");
        prop_assert!(qualified != written);
        let respelled = plan_and_rows(&mut s, &qualified).unwrap();
        prop_assert_eq!(&respelled, &plain, "{}", qualified);
        let bogus = qualify(&written, &columns, "zz");
        prop_assert!(plan_and_rows(&mut s, &bogus).is_err(), "{}", bogus);

        // The join shapes: `id` and `name` exist on one side each, so they
        // may go unqualified; the key columns exist on both and may not.
        let join = ["JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL OUTER JOIN"][join];
        let spelled = |probe: &str, build: &str| format!(
            "SELECT {probe}id, probe_t.k0, {build}name FROM probe_t {join} build_t \
             ON (probe_t.k0 = build_t.k0) WHERE {probe}id > 2 AND {build}name > 'b1'"
        );
        for (vectorize, map_join) in ALL_ENGINES {
            let mut s = join_session(&tables, vectorize, map_join);
            let qualified = plan_and_rows(&mut s, &spelled("probe_t.", "build_t.")).unwrap();
            prop_assert_eq!(&plan_and_rows(&mut s, &spelled("", "")).unwrap(), &qualified);
            prop_assert!(plan_and_rows(&mut s, &spelled("build_t.", "build_t.")).is_err());
            let dropped = spelled("probe_t.", "build_t.").replace("WHERE probe_t.", "WHERE zz.");
            prop_assert!(plan_and_rows(&mut s, &dropped).is_err(), "{}", dropped);
            let ambiguous = "SELECT k0 FROM probe_t JOIN build_t ON (probe_t.k0 = build_t.k0)";
            prop_assert!(plan_and_rows(&mut s, ambiguous).is_err());
        }
    }
}

// ---------------------------------------------------------------------------
// Differential skipping matrix: ORC bloom filters and HAIL-style per-replica
// sort orders are *pure skipping* — they may change what gets read, never
// what comes out. Random data and random point/range predicates must return
// identical results under all four knob combos, on clean files, on files
// with a salvaged-corrupt stripe, and through an ACID delete/update overlay
// (delete masks stay ordinal-aligned however many groups bloom prunes).
// ---------------------------------------------------------------------------

/// All four skipping-knob combinations: (bloom filters, replica sort).
const SKIP_COMBOS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// Small DFS block for the skipping matrix: with wide rows and ~6 KB
/// stripes, block padding gives every stripe a block of its own, so the
/// corrupt-stripe matrix can tamper one stripe without collateral damage.
const SKIP_BLOCK: u64 = 8192;

/// Wide payload string keyed by `k` — wide enough that an encoded stripe
/// exceeds half a DFS block, so no two stripes ever share one.
fn skip_str(k: i64) -> String {
    format!("s{k:0>120}")
}

/// One random skipping query over `t (k BIGINT, v BIGINT, s STRING)`:
/// point lookups and IN lists (bloom territory), a range (min/max stats
/// territory), and a grouped aggregate on top of a point predicate.
fn skip_query(shape: usize, a: i64, b: i64) -> String {
    match shape {
        0 => format!("SELECT k, v, s FROM t WHERE k = {}", a % 240),
        1 => format!("SELECT k, v FROM t WHERE s = '{}'", skip_str(a % 240)),
        2 => format!("SELECT k, v FROM t WHERE v BETWEEN {b} AND {}", b + 60),
        3 => format!(
            "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM t WHERE k = {} GROUP BY k",
            a % 240
        ),
        _ => format!(
            "SELECT k, v FROM t WHERE k IN ({}, {}, {})",
            a % 240,
            (a + 13) % 240,
            (a + 29) % 240
        ),
    }
}

/// Row-mode oracle for `skip_query`, evaluated directly over the base rows
/// (minus any salvage-dropped prefix): what every knob combo must return.
fn skip_oracle(shape: usize, a: i64, b: i64, rows: &[(i64, i64)]) -> Vec<Row> {
    let key = a % 240;
    let kv = |&(k, v): &(i64, i64)| Row::new(vec![Value::Int(k), Value::Int(v)]);
    match shape {
        0 => rows
            .iter()
            .filter(|r| r.0 == key)
            .map(|&(k, v)| {
                Row::new(vec![
                    Value::Int(k),
                    Value::Int(v),
                    Value::String(skip_str(k)),
                ])
            })
            .collect(),
        1 => rows.iter().filter(|r| r.0 == key).map(kv).collect(),
        2 => rows
            .iter()
            .filter(|r| r.1 >= b && r.1 <= b + 60)
            .map(kv)
            .collect(),
        3 => {
            let hits: Vec<i64> = rows.iter().filter(|r| r.0 == key).map(|r| r.1).collect();
            if hits.is_empty() {
                vec![]
            } else {
                vec![Row::new(vec![
                    Value::Int(key),
                    Value::Int(hits.len() as i64),
                    Value::Int(hits.iter().sum()),
                ])]
            }
        }
        _ => {
            let ks = [a % 240, (a + 13) % 240, (a + 29) % 240];
            rows.iter().filter(|r| ks.contains(&r.0)).map(kv).collect()
        }
    }
}

/// Session for one knob combo. The skipping knobs are set *before* the
/// load so the writer sees them; small stripes and groups give even tiny
/// tables several of each.
fn skip_session(rows: &[(i64, i64)], bloom: bool, replica: bool) -> hive::HiveSession {
    use hive::common::config::keys;
    let mut hive = hive::HiveSession::builder()
        .knob(
            hive::common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU,
            true,
        )
        .dfs_config(DfsConfig {
            block_size: SKIP_BLOCK,
            replication: 3,
            nodes: 10,
        })
        .build()
        .unwrap();
    // ~40 wide rows per stripe, encoded well past half a block, so block
    // padding deterministically gives every stripe its own block. Direct
    // string encoding keeps stripe sizes independent of key collisions.
    hive.set(keys::ORC_STRIPE_SIZE, "12000");
    hive.set(keys::ORC_ROW_INDEX_STRIDE, "25");
    hive.set(keys::ORC_DICT_THRESHOLD, "0.0");
    hive.set(
        keys::ORC_BLOOM_FILTER_COLUMNS,
        if bloom { "k,s" } else { "" },
    );
    hive.set(
        keys::ORC_REPLICA_SORT_COLUMNS,
        if replica { "k,v" } else { "" },
    );
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, s STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        rows.iter().map(|&(k, v)| {
            Row::new(vec![
                Value::Int(k),
                Value::Int(v),
                Value::String(skip_str(k)),
            ])
        }),
    )
    .unwrap();
    hive
}

/// Total `salvaged=` rows across a profile's scan lines (0 when absent).
fn salvaged_rows(text: &str) -> u64 {
    text.lines()
        .filter_map(|l| {
            let l = l.trim_start();
            if !l.starts_with("scan:") {
                return None;
            }
            let at = l.find("salvaged=")?;
            l[at + 9..]
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn skipping_knobs_never_change_results(
        rows in proptest::collection::vec((0i64..240, -500i64..500), 120..360),
        shape in 0usize..5,
        a in 0i64..1000,
        b in -400i64..400,
    ) {
        let sql = skip_query(shape, a, b);
        let expect = sorted_rows(skip_oracle(shape, a, b, &rows));
        for (bloom, replica) in SKIP_COMBOS {
            let mut s = skip_session(&rows, bloom, replica);
            let got = sorted_rows(s.execute(&sql).unwrap().rows);
            let text = s
                .execute(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap()
                .explain
                .unwrap();
            prop_assert_eq!(
                &got, &expect,
                "results diverged (bloom={} replica={}) on {}\n{}",
                bloom, replica, sql, text
            );
            // Sorted variants must be picked whenever the predicate hits a
            // sort column — every shape but the string lookup (s is not a
            // sort column, so the planner has nothing to offer the DFS).
            if replica && shape != 1 {
                prop_assert!(
                    text.contains("replica: "),
                    "no replica choice under {}:\n{}",
                    sql, text
                );
            }
            if !replica {
                prop_assert!(!text.contains("replica: "), "{}", text);
            }
            if !bloom {
                prop_assert!(!text.contains("skip: "), "{}", text);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn skipping_knobs_agree_on_salvaged_corruption(
        rows in proptest::collection::vec((0i64..240, -500i64..500), 160..320),
        shape in 0usize..5,
        a in 0i64..1000,
        b in -400i64..400,
    ) {
        let sql = skip_query(shape, a, b);
        let mut baseline: Option<(Vec<Key>, u64, u64)> = None;
        for (bloom, replica) in SKIP_COMBOS {
            let mut s = skip_session(&rows, bloom, replica);
            // Salvage is physical and per copy: the sorted replicas lay
            // rows out differently, so replica selection is turned off to
            // make every combo read the tampered base copy.
            s.set(hive::common::config::keys::ORC_SKIP_CORRUPT, "true");
            s.set(hive::common::config::keys::ORC_REPLICA_SELECTION, "false");
            let parts: Vec<String> = s
                .dfs()
                .list("/warehouse/t/")
                .into_iter()
                .filter(|p| p.contains("part-"))
                .collect();
            prop_assert_eq!(parts.len(), 1, "expected one part file, got {:?}", parts);
            let (first_byte, s0_nrows) = {
                let r = OrcReader::open(s.dfs(), &parts[0], OrcReadOptions::default()).unwrap();
                let infos = r.stripe_infos();
                prop_assert!(infos.len() >= 2, "need >= 2 stripes, got {}", infos.len());
                // Block padding must have isolated stripe 0 in its own
                // block — the whole corrupt-matrix design rests on it.
                prop_assert_eq!(
                    (infos[0].offset + infos[0].total_len() - 1) / SKIP_BLOCK,
                    infos[0].offset / SKIP_BLOCK,
                    "stripe 0 crosses a block boundary"
                );
                prop_assert!(
                    infos[1].offset / SKIP_BLOCK > infos[0].offset / SKIP_BLOCK,
                    "stripes 0 and 1 share a block"
                );
                (infos[0].offset, infos[0].nrows)
            };
            // One flipped byte fails the CRC of the 512-byte chunk holding
            // stripe 0's first byte, its index: every query shape here has
            // a search argument, so loading stripe 0 reads that index first
            // and errors, and salvage drops the entire stripe.
            s.dfs().corrupt_stored(&parts[0], first_byte, 0x5a).unwrap();

            let got = sorted_rows(s.execute(&sql).unwrap().rows);
            let text = s
                .execute(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap()
                .explain
                .unwrap();
            let salvaged = salvaged_rows(&text);
            // Whether stripe 0 was stats-pruned (salvaged=0, had no
            // matches) or salvaged away, the surviving answer is exactly
            // the oracle over the rows after the dropped prefix.
            let expect = sorted_rows(skip_oracle(shape, a, b, &rows[s0_nrows as usize..]));
            prop_assert_eq!(
                &got, &expect,
                "salvaged results diverged (bloom={} replica={}) on {}\n{}",
                bloom, replica, sql, text
            );
            match &baseline {
                None => baseline = Some((got, salvaged, s0_nrows)),
                Some((rows0, salvaged0, nrows0)) => {
                    prop_assert_eq!(&got, rows0, "combos disagreed on {}", sql);
                    prop_assert_eq!(
                        salvaged, *salvaged0,
                        "salvage accounting diverged (bloom={} replica={}) on {}\n{}",
                        bloom, replica, sql, text
                    );
                    prop_assert_eq!(
                        s0_nrows, *nrows0,
                        "stripe-0 row boundary moved between combos"
                    );
                }
            }
        }
    }
}

/// One random DML statement over `t (k, v, s)`; `s` stays keyed by `k` so
/// the string point-lookup shape remains meaningful after updates.
fn skip_dml(op: usize, a: i64, b: i64) -> String {
    let k1 = a % 240;
    let k2 = (a + 31) % 240;
    match op {
        0 => format!(
            "INSERT INTO t VALUES ({k1}, {b}, '{}'), ({k2}, {}, '{}')",
            skip_str(k1),
            b + 7,
            skip_str(k2)
        ),
        1 => format!("UPDATE t SET v = v + {} WHERE k = {}", (b % 97) + 100, k1),
        _ => format!("DELETE FROM t WHERE v BETWEEN {b} AND {}", b + (a % 120)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn skipping_knobs_never_change_acid_results(
        rows in proptest::collection::vec((0i64..240, -500i64..500), 80..200),
        history in proptest::collection::vec(
            (0usize..3, 0i64..1000, -400i64..400), 1..5),
        shape in 0usize..5,
        a in 0i64..1000,
        b in -400i64..400,
    ) {
        let sql = skip_query(shape, a, b);
        let mut baseline: Option<(Vec<u64>, Vec<Key>, Vec<Key>)> = None;
        for (bloom, replica) in SKIP_COMBOS {
            let mut s = skip_session(&rows, bloom, replica);
            let dml_counts: Vec<u64> = history
                .iter()
                .map(|&(op, da, db)| s.execute(&skip_dml(op, da, db)).unwrap().rows.len() as u64)
                .collect();
            let got = sorted_rows(s.execute(&sql).unwrap().rows);
            let text = s
                .execute(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap()
                .explain
                .unwrap();
            // Merge-on-read pins every file to the base copy: delete masks
            // are keyed to variant 0's row ordinals, so replica selection
            // must sit out ACID reads entirely.
            prop_assert!(
                !text.contains("replica: "),
                "replica selection leaked into an ACID read:\n{}",
                text
            );
            s.execute("ALTER TABLE t COMPACT 'major'").unwrap();
            let post = sorted_rows(s.execute(&sql).unwrap().rows);
            prop_assert_eq!(
                &post, &got,
                "compaction changed results (bloom={} replica={}) on {}",
                bloom, replica, sql
            );
            match &baseline {
                None => baseline = Some((dml_counts, got, post)),
                Some((counts0, rows0, post0)) => {
                    prop_assert_eq!(
                        &dml_counts, counts0,
                        "DML row counts diverged (bloom={} replica={})",
                        bloom, replica
                    );
                    prop_assert_eq!(
                        &got, rows0,
                        "ACID results diverged (bloom={} replica={}) on {}\n{}",
                        bloom, replica, sql, text
                    );
                    prop_assert_eq!(&post, post0, "post-compaction divergence on {}", sql);
                }
            }
        }
    }
}

/// `i64::MIN % -1` overflows; both engines answer 0, as Java (and Hive) do,
/// where Rust's `%` panics the task.
#[test]
fn vectorized_modulo_of_i64_min_by_minus_one_is_zero() {
    const SQL: &str = "SELECT (v - 9223372036854775807 - 2) % -1 AS m FROM t WHERE v = 1";
    for vectorize in [true, false] {
        let rows = [Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])];
        let mut hive = hive::HiveSession::in_memory();
        hive.set(
            hive::common::config::keys::VECTORIZED_ENABLED,
            if vectorize { "true" } else { "false" },
        );
        hive.execute("CREATE TABLE t (v BIGINT) STORED AS orc")
            .unwrap();
        hive.load_rows("t", rows).unwrap();
        let got = hive.execute(SQL).unwrap().rows;
        assert_eq!(
            got,
            [Row::new(vec![Value::Int(0)])],
            "vectorize={vectorize}"
        );
    }
}

// ---------------------------------------------------------------------------
// One engine per map stage. Every statement of the full-query corpus, the
// `tests/metrics.rs` goldens and the benchmark's statement shapes is
// compiled with vectorization on, and each map stage of each job is built:
// a stage that reads a table or an intermediate through scalar columns is
// batch-native from its input to its sink, and any other stage is row mode
// throughout.
// ---------------------------------------------------------------------------

/// The benchmark's statement shapes (`benchmark/src/{scan,join,acid}.rs`),
/// copied as SQL text. UPDATE and DELETE run as the SELECTs they plan.
const BENCHMARK_SHAPES: [&str; 12] = [
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
     SUM(l_extendedprice) AS sum_base_price, \
     SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
     SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
     AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
     AVG(l_discount) AS avg_disc, COUNT(*) AS count_order FROM lineitem \
     WHERE l_shipdate <= '1998-09-02' GROUP BY l_returnflag, l_linestatus \
     ORDER BY l_returnflag, l_linestatus",
    "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
     WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
     AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
    "SELECT i_item_id, s_state, AVG(ss_quantity) AS agg1, AVG(ss_list_price) AS agg2, \
     AVG(ss_coupon_amt) AS agg3, AVG(ss_sales_price) AS agg4 FROM store_sales \
     JOIN customer_demographics ON (ss_cdemo_sk = cd_demo_sk) \
     JOIN date_dim ON (ss_sold_date_sk = d_date_sk) \
     JOIN store ON (ss_store_sk = s_store_sk) JOIN item ON (ss_item_sk = i_item_sk) \
     WHERE cd_gender = 'M' AND cd_marital_status = 'S' \
     AND cd_education_status = 'College' AND d_year = 1998 AND s_state IN ('TN', 'SD', 'AL') \
     GROUP BY i_item_id, s_state ORDER BY i_item_id, s_state LIMIT 100",
    "SELECT ws1.ws_order_number, COUNT(*) AS line_pairs, \
     SUM(ws1.ws_ext_ship_cost) AS total_ship_cost, SUM(ws1.ws_net_profit) AS total_net_profit \
     FROM web_sales ws1 JOIN date_dim ON (ws1.ws_ship_date_sk = d_date_sk) \
     JOIN customer_address ON (ws1.ws_ship_addr_sk = ca_address_sk) \
     JOIN web_site ON (ws1.ws_web_site_sk = web_site_sk) \
     JOIN web_sales ws2 ON (ws1.ws_order_number = ws2.ws_order_number) \
     JOIN web_returns ON (ws1.ws_order_number = wr_order_number) \
     WHERE d_date BETWEEN '1995-02-01' AND '1995-04-02' AND ca_state = 'IL' \
     AND web_company_name = 'pri' AND ws1.ws_warehouse_sk <> ws2.ws_warehouse_sk \
     GROUP BY ws1.ws_order_number ORDER BY ws1.ws_order_number LIMIT 100",
    "SELECT o_orderkey, o_totalprice, t.q FROM orders \
     JOIN (SELECT l_orderkey, SUM(l_quantity) AS q FROM lineitem GROUP BY l_orderkey) t \
     ON (o_orderkey = t.l_orderkey) WHERE t.q > 150 ORDER BY o_orderkey LIMIT 100",
    "SELECT l_shipmode, COUNT(*) AS n, SUM(o_totalprice) AS tp FROM orders \
     JOIN lineitem ON (o_orderkey = l_orderkey) \
     WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01' \
     GROUP BY l_shipmode ORDER BY l_shipmode",
    "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, o_orderdate \
     FROM lineitem JOIN orders ON (l_orderkey = o_orderkey) \
     JOIN customer ON (o_custkey = c_custkey) \
     WHERE c_mktsegment = 'BUILDING' AND o_orderdate < '1995-03-15' \
     AND l_shipdate > '1995-03-15' GROUP BY l_orderkey, o_orderdate \
     ORDER BY revenue DESC, l_orderkey LIMIT 10",
    "SELECT cust, COUNT(*) AS n, SUM(total) AS rev FROM acct \
     WHERE okey >= 100 GROUP BY cust ORDER BY cust",
    "SELECT okey, cust, total FROM acct WHERE okey = 7",
    "SELECT INPUT__FILE__NAME, ROW__ID, okey, cust, total + 1.0 FROM acct WHERE cust = 3",
    "SELECT INPUT__FILE__NAME, ROW__ID FROM acct WHERE cust = 3",
    "SELECT okey, cust, total FROM acct",
];

/// The `tests/metrics.rs` golden statements, copied as SQL text.
const METRICS_GOLDENS: [&str; 6] = [
    "SELECT customer.name, COUNT(*) AS n, SUM(orders.total) AS revenue \
     FROM orders JOIN customer ON (orders.cust = customer.cust) \
     GROUP BY customer.name ORDER BY customer.name",
    "SELECT orders.cust, COUNT(*) AS n, SUM(orders.total) AS rev \
     FROM orders JOIN customer ON (orders.cust = customer.cust) \
     GROUP BY orders.cust ORDER BY orders.cust",
    "SELECT cust, COUNT(*) AS n, SUM(total) AS rev FROM orders \
     WHERE total > 50.0 GROUP BY cust ORDER BY cust",
    "SELECT cust, COUNT(*) AS n FROM orders WHERE total > 100.0 GROUP BY cust ORDER BY cust",
    "SELECT okey, vkey, total FROM fact WHERE okey BETWEEN 100 AND 300 AND vkey = 7",
    "SELECT COUNT(*) FROM orders",
];

/// The jobs `hive` compiles `sql` into, each shuffle spread over `reducers`
/// when given (instead of the planner's choice).
fn compiled_jobs(
    hive: &hive::HiveSession,
    sql: &str,
    reducers: Option<usize>,
) -> Vec<hive::mapreduce::job::JobSpec> {
    use hive::common::config::keys;
    use hive::planner::plan::PlanOp;
    use hive::planner::{compile, correlation, mapjoin, translate};
    let Ok(hive::ql::Statement::Select(select)) = hive::ql::parse(sql) else {
        panic!("not a SELECT: {sql}")
    };
    let conf = hive.conf();
    let mut t = translate(&select, hive.metastore(), conf).unwrap();
    if conf.get_bool(keys::AUTO_CONVERT_JOIN).unwrap() {
        mapjoin::convert_map_joins(&mut t.graph, conf).unwrap();
    }
    if conf.get_bool(keys::OPT_CORRELATION).unwrap() {
        correlation::optimize(&mut t.graph).unwrap();
    }
    for node in &mut t.graph.nodes {
        if let (PlanOp::ReduceSink { num_reducers, .. }, Some(r)) = (&mut node.op, reducers) {
            *num_reducers = r;
        }
    }
    compile(&t, conf).unwrap().jobs
}

/// Each map stage of `sql` as `hive` compiles it: its job input, whether it
/// runs batch-native, and the names of the operators it reaches.
fn map_stages(
    hive: &hive::HiveSession,
    sql: &str,
) -> Vec<(hive::mapreduce::job::JobInput, bool, Vec<String>)> {
    let mut stages = Vec::new();
    let engine = hive::mapreduce::MrEngine::new(hive.dfs().clone(), hive.conf().clone());
    for job in compiled_jobs(hive, sql, None) {
        let (side, _) = engine.load_side_inputs(&job.side_inputs).unwrap();
        let pipeline = (job.map_factory)(&side).unwrap();
        // `#<id> <name> -> [<child>, <child>(tag <t>)]`, by id.
        let ops: Vec<(String, Vec<usize>)> = pipeline
            .graph
            .describe()
            .iter()
            .map(|line| {
                let (head, kids) = line.rsplit_once(" -> [").unwrap();
                let kids = kids
                    .trim_end_matches(']')
                    .split(", ")
                    .filter(|k| !k.is_empty());
                let kids = kids.map(|k| k.split('(').next().unwrap().parse().unwrap());
                (head.split_once(' ').unwrap().1.to_string(), kids.collect())
            })
            .collect();
        for input in &job.inputs {
            let (root, vectorized) = match pipeline.vector.get(&input.alias) {
                Some(stage) => (stage.root, true),
                None => (pipeline.roots[&input.alias], false),
            };
            let (mut reached, mut stack) = (std::collections::BTreeSet::new(), vec![root]);
            while let Some(n) = stack.pop() {
                if reached.insert(n) {
                    stack.extend(&ops[n].1);
                }
            }
            let names = reached.iter().map(|&n| ops[n].0.clone()).collect();
            stages.push((input.clone(), vectorized, names));
        }
    }
    stages
}

/// Sessions and the statements to plan on them: the full-query shapes,
/// the metrics goldens, the benchmark's statements and a complex column.
fn stage_corpus() -> Vec<(hive::HiveSession, Vec<String>)> {
    let mut corpus: Vec<(hive::HiveSession, Vec<String>)> = Vec::new();
    let t_rows: Vec<Row> = (0..20i64)
        .map(|i| {
            let values = [
                Value::Int(i % 8),
                Value::Int(i * 7 - 50),
                Value::Double(i as f64 / 4.0),
                Value::String(format!("g{}", i % 5)),
                Value::Boolean(i % 2 == 0),
                Value::Timestamp(i * 86_400_000),
            ];
            Row::new(values.to_vec())
        })
        .collect();
    let mut statements = Vec::new();
    for (filter, shape, lit) in itertools_product(17, 11, EDGE_LITERALS.len()) {
        let group = (filter + shape + lit) % GROUP_KEYS.len();
        statements.push(full_query(filter, 17, shape, lit, group));
    }
    corpus.push((full_query_session(&t_rows, true), statements));

    let mut goldens = hive::HiveSession::in_memory();
    for ddl in [
        "CREATE TABLE orders (okey BIGINT, cust BIGINT, total DOUBLE) STORED AS orc",
        "CREATE TABLE customer (cust BIGINT, name STRING) STORED AS orc",
        "CREATE TABLE fact (okey BIGINT, vkey BIGINT, total DOUBLE) STORED AS orc",
    ] {
        goldens.execute(ddl).unwrap();
    }
    let row = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::Int(i % 10),
            Value::Double(i as f64),
        ])
    };
    goldens.load_rows("orders", (0..50).map(row)).unwrap();
    goldens.load_rows("fact", (0..50).map(row)).unwrap();
    let named = |i: i64| Row::new(vec![Value::Int(i), Value::String(format!("c{i}"))]);
    goldens.load_rows("customer", (0..10).map(named)).unwrap();
    corpus.push((goldens, METRICS_GOLDENS.map(String::from).to_vec()));

    let mut bench = hive::HiveSession::in_memory();
    hive::datagen::tpch::load(&mut bench, 0.0005, 7).unwrap();
    hive::datagen::tpcds::load(&mut bench, 0.0005, 7).unwrap();
    bench
        .execute("CREATE TABLE acct (okey BIGINT, cust BIGINT, total DOUBLE) STORED AS orc")
        .unwrap();
    bench.load_rows("acct", (0..50).map(row)).unwrap();
    // A delta and a delete: the ACID statements scan merge-on-read.
    bench
        .execute("INSERT INTO acct VALUES (90, 3, 1.5)")
        .unwrap();
    bench.execute("DELETE FROM acct WHERE okey = 4").unwrap();
    corpus.push((bench, BENCHMARK_SHAPES.map(String::from).to_vec()));

    // A complex column keeps the stage that reads it in row mode.
    let mut nested = hive::HiveSession::in_memory();
    nested
        .execute("CREATE TABLE c (k BIGINT, a ARRAY<BIGINT>) STORED AS orc")
        .unwrap();
    let nest = |i: i64| Row::new(vec![Value::Int(i), Value::Array(vec![Value::Int(i)])]);
    nested.load_rows("c", (0..10).map(nest)).unwrap();
    let statements = [
        "SELECT k, a FROM c WHERE k > 1",
        "SELECT k, COUNT(*) FROM c GROUP BY k",
    ];
    corpus.push((nested, statements.map(String::from).to_vec()));

    corpus.push((sealing_session(), vec![SEALING_SHAPE.to_string()]));
    corpus
}

/// A map stage with a leading filter, two map joins and the second join's
/// probe key computed between them: a Select fills that key into a scratch
/// column of the first join's output batch, so the first join can be built
/// only once the segment after it is compiled.
const SEALING_SHAPE: &str = "SELECT a.k, b.name, c.w FROM a JOIN b ON (a.k = b.k) \
     JOIN c ON (a.v + b.k = c.k) WHERE a.v > 1";

fn sealing_session() -> hive::HiveSession {
    let mut hive = hive::HiveSession::in_memory();
    for ddl in [
        "CREATE TABLE a (k BIGINT, v BIGINT) STORED AS orc",
        "CREATE TABLE b (k BIGINT, name STRING) STORED AS orc",
        "CREATE TABLE c (k BIGINT, w DOUBLE) STORED AS orc",
    ] {
        hive.execute(ddl).unwrap();
    }
    // No key or value is 0: it stands for NULL.
    let int = |v: i64| if v == 0 { Value::Null } else { Value::Int(v) };
    let a = [(1, 1), (2, 2), (3, 3), (4, 0), (0, 5)];
    hive.load_rows("a", a.map(|(k, v)| Row::new(vec![int(k), int(v)])))
        .unwrap();
    let b = [(1, "x"), (2, "y"), (3, "z"), (0, "n")];
    let b = b.map(|(k, name)| Row::new(vec![int(k), Value::String(name.into())]));
    hive.load_rows("b", b).unwrap();
    let c = [(2, 1.5), (4, 2.5), (6, 5.5)];
    let c = c.map(|(k, w)| Row::new(vec![Value::Int(k), Value::Double(w)]));
    hive.load_rows("c", c).unwrap();
    hive
}

#[test]
fn vectorized_map_stages_are_one_engine() {
    let mut corpus = stage_corpus();
    let (mut vector, mut intermediate, mut complex) = (0, 0, 0);
    for (hive, statements) in &mut corpus {
        for (map_join, correlation) in [(true, true), (false, true), (true, false)] {
            hive.set("hive.auto.convert.join", map_join.to_string());
            hive.set("hive.optimize.correlation", correlation.to_string());
            for sql in statements.iter() {
                for (input, vectorized, names) in map_stages(hive, sql) {
                    let vector_ops = names.iter().filter(|n| n.starts_with("Vector")).count();
                    let sinks = names.iter().filter(|n| n.contains("Sink")).count();
                    let width = input.schema.len();
                    let projected = input
                        .projection
                        .clone()
                        .unwrap_or_else(|| (0..width).collect());
                    let fields = input.schema.fields();
                    let scalar = |&c: &usize| c >= width || fields[c].data_type.is_primitive();
                    let read_complex = !projected.iter().all(scalar);
                    let reads_table = !input.alias.starts_with("cut#")
                        && !input.alias.starts_with("intermediate#");
                    let stage = format!("{} in {sql}: {names:?}", input.alias);
                    if vectorized {
                        assert_eq!(vector_ops, names.len(), "mixed stage {stage}");
                        assert_eq!(sinks, 1, "{stage}");
                        assert!(!read_complex, "{stage}");
                        vector += 1;
                        intermediate += !reads_table as usize;
                    } else {
                        assert_eq!(vector_ops, 0, "mixed stage {stage}");
                        // Row mode reads a complex column, or is a shared
                        // scan feeding several sinks: an intermediate input
                        // alone is no reason.
                        assert!(read_complex || sinks > 1, "{stage}");
                        complex += read_complex as usize;
                    }
                }
            }
        }
    }
    // Each full-query statement alone is a vectorized stage per setting.
    let full_queries = 3 * 17 * 11 * EDGE_LITERALS.len();
    assert!(vector > full_queries, "{vector} vectorized stages");
    assert!(intermediate > 0 && complex > 0, "{intermediate} {complex}");

    // The sealing shape plans one map-only job with two batch-native map
    // joins, and answers by the definition in every engine.
    let mut hive = sealing_session();
    let row = |k, name: &str, w| {
        Row::new(vec![
            Value::Int(k),
            Value::String(name.into()),
            Value::Double(w),
        ])
    };
    let expected = sorted_rows(vec![row(2, "y", 2.5), row(3, "z", 5.5)]);
    for (vectorize, map_join) in ALL_ENGINES {
        hive.set("hive.vectorized.execution.enabled", vectorize.to_string());
        hive.set("hive.auto.convert.join", map_join.to_string());
        if vectorize && map_join {
            let analyze = hive.execute(&format!("EXPLAIN ANALYZE {SEALING_SHAPE}"));
            let analyze = analyze.unwrap().explain.unwrap();
            assert_eq!(
                analyze.matches("VectorMapJoin[Inner]").count(),
                2,
                "{analyze}"
            );
            assert!(!analyze.contains("job-1"), "{analyze}");
        }
        let rows = sorted_rows(hive.execute(SEALING_SHAPE).unwrap().rows);
        assert_eq!(rows, expected, "vectorize={vectorize} map_join={map_join}");
    }
}

// ---------------------------------------------------------------------------
// Side tables once per job (DESIGN.md §9): a map join's small table is built
// when the job loads its side inputs, once, and every map task probes that
// one table — in either engine, and after a side load that had to be retried.
// ---------------------------------------------------------------------------

/// A map-only star join shaped like TPC-H q3 (`lineitem ⋈ orders ⋈
/// customer`, a filter on every table): the fact table in four files, so
/// four map tasks, and `orders` read in two side batches.
const STAR_Q3: &str = "SELECT l_orderkey, l_price, o_orderdate FROM li \
     JOIN ord ON (l_orderkey = o_orderkey) JOIN cust ON (o_custkey = c_custkey) \
     WHERE c_mktsegment = 'BUILDING' AND o_orderdate < '1995-03-15' \
     AND l_shipdate > '1995-03-15'";

fn star_session(vectorize: bool) -> hive::HiveSession {
    let mut hive = hive::HiveSession::in_memory();
    hive.set("hive.vectorized.execution.enabled", vectorize.to_string());
    for ddl in [
        "CREATE TABLE cust (c_custkey BIGINT, c_mktsegment STRING) STORED AS orc",
        "CREATE TABLE ord (o_orderkey BIGINT, o_custkey BIGINT, o_orderdate STRING) STORED AS orc",
        "CREATE TABLE li (l_orderkey BIGINT, l_price DOUBLE, l_shipdate STRING) STORED AS orc",
    ] {
        hive.execute(ddl).unwrap();
    }
    let date = |i: i64| Value::String(format!("1995-0{}-1{}", 1 + i % 6, i % 10));
    let segment = |c: i64| Value::String(["BUILDING", "MACHINERY"][(c % 3 == 0) as usize].into());
    let cust = (0..300).map(|c| Row::new(vec![Value::Int(c), segment(c)]));
    hive.load_rows("cust", cust).unwrap();
    let ord = (0..1500).map(|o| Row::new(vec![Value::Int(o), Value::Int(o * 7 % 300), date(o)]));
    hive.load_rows("ord", ord).unwrap();
    for part in 0..4 {
        let line = |l: i64| {
            Row::new(vec![
                Value::Int(l % 1600),
                Value::Double(l as f64 / 4.0),
                date(l / 3),
            ])
        };
        hive.load_rows("li", (part * 2000..(part + 1) * 2000).map(line))
            .unwrap();
    }
    hive
}

/// The side tables one map task's pipeline was built around: per alias,
/// the table's address and whether it is probed a batch at a time.
type TaskTables = Vec<(String, usize, bool)>;

/// Run `STAR_Q3`'s one job on `hive`'s cluster, under a DFS whose every
/// location fails its first read when `faulty`. Returns the rows, the job's
/// report, how many side tables were built, and the tables each pipeline
/// the map tasks built received.
fn run_star(
    hive: &hive::HiveSession,
    faulty: bool,
) -> (Vec<Key>, hive::mapreduce::JobReport, usize, Vec<TaskTables>) {
    use hive::mapreduce::job::{SideTable, SideTables};
    use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
    use std::sync::{Arc, Mutex};
    let mut jobs = compiled_jobs(hive, STAR_Q3, None);
    assert_eq!(jobs.len(), 1, "one map-only job");
    let job = &mut jobs[0];
    assert!(job.reduce_factory.is_none() && job.side_inputs.len() == 2);
    let builds = Arc::new(AtomicUsize::new(0));
    for side in &mut job.side_inputs {
        let (inner, builds) = (side.build.clone(), builds.clone());
        side.build = Arc::new(move |reader| {
            builds.fetch_add(1, AtomicOrdering::Relaxed);
            inner(reader)
        });
    }
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (inner, tasks) = (job.map_factory.clone(), seen.clone());
    job.map_factory = Arc::new(move |side: &SideTables| {
        let address = |(alias, table): (&String, &SideTable)| match table {
            SideTable::Rows(t) => (alias.clone(), Arc::as_ptr(t) as usize, false),
            SideTable::Batches(t) => (alias.clone(), Arc::as_ptr(t) as usize, true),
        };
        let mut tables: TaskTables = side.iter().map(address).collect();
        tables.sort();
        tasks.lock().unwrap().push(tables);
        inner(side)
    });
    // Faults strike reads that reach the datanodes: the faulty run reads
    // past both cache tiers.
    let mut conf = hive.conf().clone();
    if faulty {
        conf.set("dfs.fault.read.error.rate", "1.0");
        conf.set("mapred.map.max.attempts", "64");
        conf.set("hive.io.cache.bytes", "0");
    }
    let plan = hive::dfs::FaultPlan::from_conf(&conf).unwrap();
    let dfs = hive.dfs().for_statement(plan, !faulty);
    let (mut dag, rows) = hive::mapreduce::MrEngine::new(dfs, conf)
        .run_dag(&jobs)
        .unwrap();
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    (
        sorted_rows(rows),
        dag.jobs.remove(0),
        builds.load(AtomicOrdering::Relaxed),
        seen,
    )
}

#[test]
fn map_join_tables_are_built_once_per_job() {
    for vectorize in [true, false] {
        let hive = star_session(vectorize);
        let (rows, report, builds, tasks) = run_star(&hive, false);
        assert!(report.map_tasks >= 4, "{} map tasks", report.map_tasks);
        assert_eq!(builds, 2, "one build per side, vectorize={vectorize}");
        assert_eq!(tasks.len(), report.map_tasks, "one pipeline per task");
        assert!(
            tasks.iter().all(|t| *t == tasks[0]),
            "tasks probed different tables"
        );
        assert!(tasks[0].iter().all(|(_, _, batches)| *batches == vectorize));
        assert!(!rows.is_empty());

        // A transient DFS fault in the side load: the load is retried (the
        // tables are built again), and the tasks share the tables of the
        // load that succeeded and answer the same rows.
        let (faulted_rows, report, builds, tasks) = run_star(&hive, true);
        assert!(
            builds > 2,
            "the side load was not retried ({builds} builds)"
        );
        assert!(report.task_retries > 0);
        assert!(
            tasks.iter().all(|t| *t == tasks[0]),
            "tasks probed different tables"
        );
        assert_eq!(faulted_rows, rows, "vectorize={vectorize}");
    }
}

/// `(a, b, c)` over `0..x × 0..y × 0..z`.
fn itertools_product(x: usize, y: usize, z: usize) -> impl Iterator<Item = (usize, usize, usize)> {
    (0..x).flat_map(move |a| (0..y).flat_map(move |b| (0..z).map(move |c| (a, b, c))))
}

// ---------------------------------------------------------------------------
// The reduce side on batches (DESIGN.md §16 "The reduce side"): a reduce
// stage whose shuffled columns are all scalar runs batch-native from the
// merged runs to its sink, any other runs in row mode, and either way each
// reducer hands back the same rows in the same order.
// ---------------------------------------------------------------------------

/// The reduce stages of `sql` as `hive` compiles it: whether each runs
/// batch-native, whether its shuffled columns are all scalar, and the names
/// of its operators but the Demux and Muxes both engines share.
fn reduce_stages(hive: &hive::HiveSession, sql: &str) -> Vec<(bool, bool, Vec<String>)> {
    let mut stages = Vec::new();
    for job in compiled_jobs(hive, sql, None) {
        let Some(factory) = &job.reduce_factory else {
            continue;
        };
        let pipeline = factory().unwrap();
        let scalar = pipeline
            .shuffled
            .iter()
            .flatten()
            .all(DataType::is_primitive);
        let names = pipeline.graph.describe().into_iter().filter_map(|line| {
            let name = line
                .split_once(' ')
                .unwrap()
                .1
                .rsplit_once(" -> [")
                .unwrap()
                .0;
            let shared = name.starts_with("DemuxOperator") || name.starts_with("MuxOperator");
            (!shared).then(|| name.to_string())
        });
        stages.push((pipeline.batches.is_some(), scalar, names.collect()));
    }
    stages
}

#[test]
fn vectorized_reduce_stages_are_one_engine() {
    let (mut vector, mut row) = (0, 0);
    for (hive, statements) in &mut stage_corpus() {
        for (map_join, correlation) in [(true, true), (false, true), (true, false), (false, false)]
        {
            hive.set("hive.auto.convert.join", map_join.to_string());
            hive.set("hive.optimize.correlation", correlation.to_string());
            for sql in statements.iter() {
                for (vectorized, scalar, names) in reduce_stages(hive, sql) {
                    let vector_ops = names.iter().filter(|n| n.starts_with("Vector")).count();
                    let stage = format!("{sql}: {names:?}");
                    assert_eq!(vectorized, scalar, "{stage}");
                    match vectorized {
                        true => assert_eq!(vector_ops, names.len(), "mixed stage {stage}"),
                        false => assert_eq!(vector_ops, 0, "mixed stage {stage}"),
                    }
                    vector += vectorized as usize;
                    row += !vectorized as usize;
                }
            }
        }
    }
    // Every shuffled column of the corpus is scalar: AVG's partial is a
    // SUM and a COUNT column.
    assert!(
        vector > 100 && row == 0,
        "{vector} vector, {row} row stages"
    );
}

/// Tables with NULL and duplicate keys on both sides of every join, and
/// keys far larger than a batch: 7 in `big`, and NULL in `big` and `bigr`
/// alike (3 000 rows a side, which an outer join pads instead of crossing).
fn reduce_session() -> hive::HiveSession {
    let mut hive = hive::HiveSession::in_memory();
    for ddl in [
        "CREATE TABLE a (k BIGINT, v BIGINT, d DOUBLE, s STRING) STORED AS orc",
        "CREATE TABLE b (k BIGINT, w BIGINT, e DOUBLE, t STRING) STORED AS orc",
        "CREATE TABLE c (k BIGINT, x BIGINT) STORED AS orc",
        "CREATE TABLE big (k BIGINT, v BIGINT) STORED AS orc",
        "CREATE TABLE bigr (k BIGINT, w BIGINT) STORED AS orc",
    ] {
        hive.execute(ddl).unwrap();
    }
    let null_every = |i: i64, n: i64, v: Value| if i % n == 0 { Value::Null } else { v };
    let doubles = [0.5, -0.0, 0.0, f64::NAN, 2.25, -3.5, 1e9];
    let a = (0..60i64).map(|i| {
        Row::new(vec![
            null_every(i, 11, Value::Int(i % 9)),
            null_every(i, 7, Value::Int(i * 7 - 50)),
            null_every(
                i,
                13,
                Value::Double(doubles[i as usize % 7] + i as f64 / 8.0),
            ),
            null_every(i, 6, Value::String(format!("s{}", i % 5))),
        ])
    });
    hive.load_rows("a", a).unwrap();
    let b = (0..40i64).map(|i| {
        Row::new(vec![
            null_every(i, 10, Value::Int(i % 12 - 2)),
            null_every(i, 9, Value::Int(i * 3)),
            Value::Double(doubles[i as usize % 7]),
            Value::String(format!("t{}", i % 4)),
        ])
    });
    hive.load_rows("b", b).unwrap();
    let c = (0..20i64).map(|i| Row::new(vec![Value::Int(i % 6), Value::Int(i)]));
    hive.load_rows("c", c).unwrap();
    let big = (0..6050i64).map(|i| {
        let k = match i {
            0..3000 => Value::Int(7),
            3000..6000 => Value::Null,
            _ => Value::Int(i % 20),
        };
        Row::new(vec![k, null_every(i, 17, Value::Int(i))])
    });
    hive.load_rows("big", big).unwrap();
    let bigr = (0..3010i64).map(|i| {
        let k = if i < 3000 {
            Value::Null
        } else {
            Value::Int(i % 9)
        };
        Row::new(vec![k, Value::Int(i * 3)])
    });
    hive.load_rows("bigr", bigr).unwrap();
    hive
}

/// Reduce-side shapes: joins of every kind (the big key's join output spans
/// batches), GROUP BY merging partials or aggregating raw rows, HAVING, a
/// global aggregate over no row, the q18c and q95 correlated shapes, and
/// AVG (SUM / COUNT) beside SUM and COUNT of its column, in HAVING and
/// ORDER BY, over all-NULL groups, correlated, and global over batches of
/// DOUBLEs whose sums round. ORDER BY is the driver's
/// sort, which `run_dag` leaves out: the rows come back in the order the
/// reducers wrote them.
const REDUCE_SHAPES: [&str; 24] = [
    "SELECT a.k, a.v, a.s, b.w, b.t FROM a JOIN b ON (a.k = b.k)",
    "SELECT a.k, a.v, b.w, c.x FROM a JOIN b ON (a.k = b.k) JOIN c ON (b.k = c.k)",
    "SELECT a.k, a.v, b.w, c.x FROM a JOIN b ON (a.k = b.k) JOIN c ON (a.v = c.x)",
    "SELECT a.k, a.v, a.d, b.w FROM a LEFT OUTER JOIN b ON (a.k = b.k)",
    "SELECT a.k, a.s, b.k, b.w FROM a RIGHT OUTER JOIN b ON (a.k = b.k)",
    "SELECT a.k, a.v, b.k, b.t FROM a FULL OUTER JOIN b ON (a.k = b.k)",
    "SELECT a.k, a.v, b.w FROM a JOIN b ON (a.k = b.k) WHERE a.v > b.w",
    "SELECT big.k, big.v, b.w, b.e FROM big JOIN b ON (big.k = b.k)",
    "SELECT big.k, big.v, bigr.k, bigr.w FROM big FULL OUTER JOIN bigr ON (big.k = bigr.k)",
    "SELECT big.v, bigr.w FROM big LEFT OUTER JOIN bigr ON (big.k = bigr.k) WHERE big.v > 2990",
    "SELECT k, COUNT(*), COUNT(v), SUM(v), SUM(d), MIN(v), MAX(v), MIN(d), MAX(d), \
     MIN(s), MAX(s) FROM a GROUP BY k",
    "SELECT s, COUNT(d), SUM(d), MIN(d), MAX(k) FROM a GROUP BY s",
    "SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v) FROM big GROUP BY k",
    "SELECT a.k, COUNT(*), COUNT(b.w), SUM(b.w), SUM(b.e), MIN(a.s), MAX(a.d) \
     FROM a JOIN b ON (a.k = b.k) GROUP BY a.k",
    "SELECT k, SUM(v) AS sv, COUNT(*) AS n FROM a GROUP BY k HAVING SUM(v) > 20",
    "SELECT COUNT(*), SUM(v), MIN(s), MAX(d) FROM a WHERE v > 1000000",
    "SELECT a.k, a.v, t.q FROM a JOIN (SELECT k, SUM(w) AS q FROM b GROUP BY k) t \
     ON (a.k = t.k) WHERE t.q > 5",
    "SELECT a1.k, COUNT(*) AS n, SUM(a1.d) AS sd FROM a a1 JOIN a a2 ON (a1.k = a2.k) \
     JOIN b ON (a1.k = b.k) WHERE a1.v <> a2.v GROUP BY a1.k",
    "SELECT k, COUNT(*) FROM a GROUP BY k LIMIT 3",
    "SELECT k, AVG(v), SUM(v), COUNT(v), AVG(d), SUM(d), COUNT(d), COUNT(*) FROM a GROUP BY k",
    "SELECT s, AVG(d) AS ad, AVG(v) FROM a GROUP BY s HAVING AVG(d) > 1.0 ORDER BY ad",
    "SELECT k, AVG(v), AVG(d), COUNT(v) FROM a WHERE v IS NULL OR k = 2 GROUP BY k",
    "SELECT a.k, a.v, t.q FROM a JOIN (SELECT k, AVG(w) AS q FROM b GROUP BY k) t \
     ON (a.k = t.k) WHERE t.q > 5",
    "SELECT AVG(w / 7 + 0.1), SUM(w / 3), AVG(k) FROM bigr",
];

#[test]
fn vectorized_reduce_stages_match_row_mode() {
    let mut hive = reduce_session();
    let (mut nonempty, mut batch_native) = (0, 0);
    for sql in REDUCE_SHAPES {
        for (map_join, correlation, reducers) in itertools_product(2, 2, 2) {
            hive.set("hive.auto.convert.join", (map_join == 1).to_string());
            hive.set("hive.optimize.correlation", (correlation == 1).to_string());
            let reducers = [1, 10][reducers];
            let mut answers = Vec::new();
            for vectorize in [true, false] {
                hive.set("hive.vectorized.execution.enabled", vectorize.to_string());
                let jobs = compiled_jobs(&hive, sql, Some(reducers));
                let reduce = jobs.iter().filter_map(|j| j.reduce_factory.as_ref());
                batch_native += reduce.filter(|f| f().unwrap().batches.is_some()).count();
                let engine =
                    hive::mapreduce::MrEngine::new(hive.dfs().clone(), hive.conf().clone());
                let (_, rows) = engine.run_dag(&jobs).unwrap();
                // Debug text tells -0.0 from 0.0 and shows every NaN.
                answers.push(rows.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>());
            }
            let setting =
                format!("map-join {map_join}, correlation {correlation}, {reducers} reducers");
            let (vector, row) = (&answers[0], &answers[1]);
            assert_eq!(vector.len(), row.len(), "{setting}: {sql}");
            if let Some(at) = (0..row.len()).find(|&i| vector[i] != row[i]) {
                panic!(
                    "{setting}: row {at} differs on {sql}: {} vs {}",
                    vector[at], row[at]
                );
            }
            nonempty += !row.is_empty() as usize;
        }
    }
    assert_eq!(nonempty, REDUCE_SHAPES.len() * 8, "a shape answered no row");
    assert!(
        batch_native > REDUCE_SHAPES.len() * 4,
        "{batch_native} batch-native stages"
    );
}
