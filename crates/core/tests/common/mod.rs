//! Fixture helpers shared by the integration suites.

use hive_dfs::Dfs;
use hive_formats::orc::reader::{OrcReadOptions, OrcReader};
use hive_formats::orc::{decode_stripe_footer, StreamKind};

/// Position of the middle byte of `column`'s data stream in the middle
/// stripe of the ORC file at `path`, found from that stripe's footer. Every
/// scan that projects `column` reads it, so a byte flipped there at rest
/// costs such a scan rows mid-file — never the footer tail, and never only
/// bytes the scan leaves unread.
pub fn mid_stripe_data_byte(dfs: &Dfs, path: &str, column: &str) -> u64 {
    let reader = OrcReader::open(dfs, path, OrcReadOptions::default()).unwrap();
    let field = reader.schema().index_of(column).unwrap();
    let col_id = reader.schema().column_tree().top_level(field);
    let stripes = reader.stripe_infos();
    let si = &stripes[stripes.len() / 2];
    let data_start = si.offset + si.index_len + si.bloom_len;
    let footer = dfs
        .open(path, None)
        .unwrap()
        .read_at(data_start + si.data_len, si.footer_len as usize)
        .unwrap();
    let footer = decode_stripe_footer(&footer).unwrap();
    // Streams lie back to back in the data section, in column order.
    let mut at = data_start;
    for (id, streams) in footer.columns.iter().enumerate() {
        for s in &streams.streams {
            if id == col_id && s.kind == StreamKind::Data {
                return at + s.len / 2;
            }
            at += s.len;
        }
    }
    panic!(
        "{path}: column {column} has no data stream in stripe {}",
        stripes.len() / 2
    )
}
