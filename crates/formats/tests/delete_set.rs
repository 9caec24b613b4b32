//! The path-indexed [`DeleteSet`] against the representation it replaced
//! (a `BTreeSet<(String, u64)>`), and the delete-file image pinned byte
//! for byte: the set is rebuilt from these files on every snapshot load,
//! so neither its answers nor the bytes it is loaded from may drift.

use hive_formats::delta::{
    decode_delete_file, encode_delete_file, ordinals_in, DeleteKey, DeleteSet,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const PATHS: [&str; 4] = [
    "/w/t/part-00000",
    "/w/t/part-00001",
    "/w/t/delta_0000000005",
    "/w/t2/part-00000",
];

/// Ordinals clustered low (so ranges straddle hits and duplicates occur)
/// with the extremes mixed in.
fn ordinal() -> BoxedStrategy<u64> {
    prop_oneof![
        6 => 0u64..200,
        1 => Just(u64::MAX),
        1 => Just(u64::MAX - 1),
        1 => any::<u64>(),
    ]
    .boxed()
}

fn keys() -> impl Strategy<Value = Vec<DeleteKey>> {
    proptest::collection::vec((0usize..3, ordinal()), 0..300).prop_map(|ks| {
        ks.into_iter()
            .map(|(p, o)| (PATHS[p].to_string(), o))
            .collect()
    })
}

/// What `BTreeSet<(String, u64)>::range` answered for one ranged probe.
fn naive_masked_in(naive: &BTreeSet<DeleteKey>, path: &str, start: u64, len: u64) -> Vec<u64> {
    let lo = (path.to_string(), start);
    let hi = (path.to_string(), start.saturating_add(len));
    naive.range(lo..hi).map(|(_, o)| *o).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn path_indexed_set_agrees_with_a_naive_btreeset(
        first in keys(),
        second in keys(),
        probes in proptest::collection::vec((0usize..4, ordinal(), ordinal()), 1..40),
    ) {
        // Built in two steps, the way the metastore extends a cached set
        // with one more delete file.
        let mut set: DeleteSet = first.iter().cloned().collect();
        set.extend(second.iter().cloned());
        let naive: BTreeSet<DeleteKey> = first.iter().chain(&second).cloned().collect();

        prop_assert_eq!(set.len(), naive.len());
        prop_assert_eq!(set.is_empty(), naive.is_empty());
        let listed: Vec<DeleteKey> = set.iter().map(|(p, o)| (p.to_string(), o)).collect();
        let expected: Vec<DeleteKey> = naive.iter().cloned().collect();
        prop_assert_eq!(listed, expected, "iter order");
        let one_shot: DeleteSet = first.iter().chain(&second).cloned().collect();
        prop_assert_eq!(&one_shot, &set, "extension equals a single build");

        for (p, a, b) in probes {
            // PATHS[3] is never a key: the unmasked-file case.
            let path = PATHS[p];
            prop_assert_eq!(set.contains(path, a), naive.contains(&(path.to_string(), a)));
            // Empty, straddling and saturating ranges.
            for (start, len) in [(a, 0), (a, b), (a.min(b), a.max(b) - a.min(b)), (a, u64::MAX), (0, a)] {
                let got: Vec<u64> = set.masked_in(path, start, len).collect();
                prop_assert_eq!(&got, &naive_masked_in(&naive, path, start, len),
                    "masked_in({}, {}, {})", path, start, len);
                prop_assert_eq!(ordinals_in(set.for_path(path), start, len), &got[..]);
            }
        }
    }

    #[test]
    fn delete_files_round_trip(ks in keys()) {
        prop_assert_eq!(decode_delete_file(&encode_delete_file(&ks)).unwrap(), ks);
    }
}

/// The on-disk image of a delete file, as the parent commit wrote it:
/// insertion order kept, duplicates kept, `<ordinal>\t<path>` lines, CRC32
/// trailer over everything before it.
#[test]
fn delete_file_image_is_pinned() {
    let keys: Vec<DeleteKey> = vec![
        ("/w/t/part-00000".into(), 4),
        ("/w/t/delta_0000000005".into(), 0),
        ("/w/t/part-00000".into(), u64::MAX),
        ("/w/t/part-00000".into(), 4),
    ];
    let golden: &[u8] = b"hivedelete v1\n\
        4\t/w/t/part-00000\n\
        0\t/w/t/delta_0000000005\n\
        18446744073709551615\t/w/t/part-00000\n\
        4\t/w/t/part-00000\n\
        crc f9d28882\n";
    assert_eq!(encode_delete_file(&keys), golden);
    assert_eq!(decode_delete_file(golden).unwrap(), keys);

    let set: DeleteSet = keys.into_iter().collect();
    assert_eq!(set.len(), 3, "the duplicate key collapses");
    assert_eq!(set.for_path("/w/t/part-00000"), &[4, u64::MAX]);
    assert_eq!(set.for_path("/w/t/absent"), &[] as &[u64]);
}
