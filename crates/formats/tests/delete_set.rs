//! The merge-on-read cursor ([`LiveReader`]) against a naive "materialize
//! every row, then drop the deleted ones" model — over ORC with
//! predicate-pruned index groups and a split range (the reader's skip-aware
//! ordinals), and over text (the cursor's sequential fallback). The
//! [`DeleteSet`] itself (its crate-private slice probes, the delete-file
//! codec and its pinned image) is tested beside it in `src/delta.rs`.

use hive_common::config::keys;
use hive_common::{HiveConf, Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig};
use hive_formats::delta::{DeleteSet, LiveReader};
use hive_formats::{
    create_writer, open_reader, FormatKind, PredicateLeaf, ReadOptions, SearchArgument,
    WriteOptions,
};
use hive_vector::VectorizedRowBatch;
use proptest::prelude::*;

const NROWS: i64 = 3000;
const FILE: &str = "/w/live/part-00000";

fn schema() -> Schema {
    Schema::parse(&[("ord", "bigint"), ("k", "bigint"), ("pad", "string")]).unwrap()
}

/// Column 0 is the row's own physical ordinal, so every row a reader
/// returns says where in the file it came from. Column 1 is constant
/// within an index group and cycles across groups, so a range on it prunes
/// a scattered set of groups inside every stripe.
fn fixture(format: FormatKind) -> (Dfs, HiveConf) {
    let dfs = Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 1,
        nodes: 2,
    });
    // Many small stripes and index groups: a split range and a sarg each
    // cut the file at many places.
    let conf = HiveConf::new()
        .with(keys::ORC_STRIPE_SIZE, "32768")
        .with(keys::ORC_ROW_INDEX_STRIDE, "50");
    let opts = WriteOptions {
        format,
        ..Default::default()
    };
    let mut w = create_writer(&dfs, FILE, &schema(), &conf, &opts).unwrap();
    for i in 0..NROWS {
        w.write_row(&Row::new(vec![
            Value::Int(i),
            Value::Int((i / 50) % 7),
            Value::String(format!("padding-{i:020}")),
        ]))
        .unwrap();
    }
    w.close().unwrap();
    (dfs, conf)
}

/// Drive one cursor to the end in both modes and check each against the
/// model: the rows a bare reader returns under the same options, minus
/// those whose ordinal (= column 0) the set masks for this file. Returns
/// how many physical rows the options let through.
fn check_against_model(dfs: &Dfs, conf: &HiveConf, opts: &ReadOptions, set: &DeleteSet) -> usize {
    let open = || open_reader(dfs, FILE, &schema(), conf, opts).unwrap();
    let mut physical = Vec::new();
    let mut bare = open();
    while let Some(row) = bare.next_row().unwrap() {
        physical.push(row);
    }
    let ord_of = |r: &Row| r[0].as_int().unwrap() as u64;
    let live: Vec<&Row> = physical
        .iter()
        .filter(|r| !set.contains(FILE, ord_of(r)))
        .collect();
    let masked = (physical.len() - live.len()) as u64;

    let mut by_row = LiveReader::new(open(), Some((set, FILE)));
    let mut got = Vec::new();
    while let Some((ord, row)) = by_row.next_row().unwrap() {
        assert_eq!(ord, ord_of(&row), "reported ordinal is the row's position");
        got.push(row);
    }
    assert_eq!(got.iter().collect::<Vec<_>>(), live, "next_row rows");
    assert_eq!(by_row.rows_masked(), masked, "next_row rows_masked");

    let mut by_batch = LiveReader::new(open(), Some((set, FILE)));
    let columns: Vec<_> = schema()
        .fields()
        .iter()
        .map(|f| f.data_type.clone())
        .enumerate()
        .collect();
    let types: Vec<_> = columns.iter().map(|(_, t)| t.clone()).collect();
    let mut batch = VectorizedRowBatch::new(&types, 64).unwrap();
    let mut got = Vec::new();
    loop {
        let more = by_batch.next_batch(&mut batch).unwrap();
        got.extend(hive_vector::row_convert::batch_to_rows(&batch, &columns));
        if !more {
            break;
        }
    }
    assert_eq!(got.iter().collect::<Vec<_>>(), live, "next_batch rows");
    assert_eq!(by_batch.rows_masked(), masked, "next_batch rows_masked");

    // No mask at all is a pass-through.
    let mut plain = LiveReader::new(open(), None);
    let mut n = 0;
    while plain.next_row().unwrap().is_some() {
        n += 1;
    }
    assert_eq!((n, plain.rows_masked()), (physical.len(), 0));
    physical.len()
}

/// Delete keys for FILE clustered so whole batches and whole index groups
/// get masked, plus keys of another file that must not leak in.
fn file_keys() -> impl Strategy<Value = DeleteSet> {
    (
        proptest::collection::vec(0u64..NROWS as u64 + 50, 0..400),
        proptest::collection::vec((0u64..NROWS as u64, 1u64..130), 0..4),
    )
        .prop_map(|(points, runs)| {
            let runs = runs.into_iter().flat_map(|(s, n)| s..s + n);
            points
                .into_iter()
                .chain(runs)
                .flat_map(|o| {
                    [
                        (FILE.to_string(), o),
                        ("/w/live/part-00001".to_string(), o / 2),
                    ]
                })
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ORC: the sarg prunes index groups, the split range drops stripes,
    // and the surviving rows must still be masked by their true ordinals.
    #[test]
    fn live_reader_matches_the_model_over_pruned_and_split_orc(
        set in file_keys(),
        lo in 0i64..7,
        span in 0i64..4,
        cut in (0u64..4, 1u64..=4),
    ) {
        let (dfs, conf) = fixture(FormatKind::Orc);
        let len = dfs.len(FILE).unwrap();
        let opts = ReadOptions {
            format: FormatKind::Orc,
            sarg: Some(SearchArgument::new(vec![PredicateLeaf::between(
                1,
                Value::Int(lo),
                Value::Int(lo + span),
            )])),
            split: Some((len * cut.0 / 4, len * (cut.0 + cut.1).min(4) / 4)),
            ..Default::default()
        };
        let physical = check_against_model(&dfs, &conf, &opts, &set);
        prop_assert!(physical < NROWS as usize, "fixture no longer skips anything");
    }

    // Text tracks no ordinals: the cursor's own sequential clock must
    // line up with the file's row order on a whole-file scan.
    #[test]
    fn live_reader_matches_the_model_over_text(set in file_keys()) {
        let (dfs, conf) = fixture(FormatKind::Text);
        let opts = ReadOptions { format: FormatKind::Text, ..Default::default() };
        prop_assert_eq!(check_against_model(&dfs, &conf, &opts, &set), NROWS as usize);
    }
}
