//! Workload generators for the paper's three benchmarks (Section 7.1):
//! TPC-H, TPC-DS (the subset q27/q95 touch) and SS-DB.
//!
//! The paper ran SF 300 on an 11-node cluster; these generators are
//! distribution-faithful but laptop-scale (a fractional scale factor).
//! The distributions that drive the paper's observations are preserved:
//!
//! * TPC-H `comment` columns are random text — high cardinality, which
//!   defeats ORC's dictionary encoding and makes Snappy matter (Table 2)
//!   and slows ORC loading (Fig. 9);
//! * TPC-DS dimension keys and categorical strings are low-cardinality —
//!   dictionary encoding wins;
//! * SS-DB pixels are generated in row-major image order, so coordinates
//!   are clustered and ORC min/max statistics can skip aggressively
//!   (Fig. 10).

pub mod ssdb;
pub mod tpcds;
pub mod tpch;

use rand::rngs::StdRng;
use rand::Rng;

/// Deterministic random text of length in `[lo, hi]` — word-like so it is
/// compressible by a general-purpose codec but useless for dictionaries.
pub fn random_text(rng: &mut StdRng, lo: usize, hi: usize) -> String {
    const SYLLABLES: &[&str] = &[
        "ab", "ac", "ad", "al", "an", "ar", "as", "at", "ba", "be", "bi", "bo", "ca", "ce", "co",
        "cu", "da", "de", "di", "do", "el", "en", "er", "es", "et", "fa", "fi", "fo", "ga", "ge",
        "ha", "he", "hi", "ho", "il", "in", "is", "it", "la", "le", "li", "lo", "ma", "me", "mi",
        "mo", "na", "ne", "ni", "no", "or", "pa", "pe", "pi", "po", "ra", "re", "ri", "ro", "sa",
        "se", "si", "so", "ta", "te", "ti", "to", "un", "ur", "us", "ut", "va", "ve", "vi", "vo",
    ];
    let target = rng.gen_range(lo..=hi);
    let mut s = String::with_capacity(target + 4);
    while s.len() < target {
        if !s.is_empty() && rng.gen_bool(0.25) {
            s.push(' ');
        }
        s.push_str(SYLLABLES[rng.gen_range(0..SYLLABLES.len())]);
    }
    s.truncate(target);
    s
}

/// A date string `YYYY-MM-DD` between 1992-01-01 and 1998-12-31,
/// uniform over the day index (TPC-H's date domain).
pub fn random_date(rng: &mut StdRng) -> String {
    date_from_index(rng.gen_range(0..2556))
}

/// Day index (0 = 1992-01-01) to a simplistic 365.25-day-calendar string —
/// the workloads only need ordered, comparable dates.
pub fn date_from_index(idx: i64) -> String {
    let year = 1992 + idx / 365;
    let doy = idx % 365;
    let month = doy / 31 + 1;
    let day = doy % 31 + 1;
    if !(0..10_000).contains(&year) || doy < 0 {
        return format!("{year:04}-{month:02}-{day:02}");
    }
    // The same ten bytes, without the formatter: three dates a lineitem row.
    let digit = |v: i64| b'0' + v as u8;
    let bytes = [
        digit(year / 1000),
        digit(year / 100 % 10),
        digit(year / 10 % 10),
        digit(year % 10),
        b'-',
        digit(month / 10),
        digit(month % 10),
        b'-',
        digit(day / 10),
        digit(day % 10),
    ];
    String::from_utf8(bytes.to_vec()).expect("ASCII digits")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn random_text_is_deterministic_and_high_cardinality() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let ta: Vec<String> = (0..100).map(|_| random_text(&mut a, 10, 43)).collect();
        let tb: Vec<String> = (0..100).map(|_| random_text(&mut b, 10, 43)).collect();
        assert_eq!(ta, tb);
        let distinct: std::collections::HashSet<&String> = ta.iter().collect();
        assert!(distinct.len() > 95, "comments must be near-unique");
        assert!(ta.iter().all(|s| s.len() >= 10 && s.len() <= 43));
    }

    #[test]
    fn dates_are_ordered_strings() {
        assert_eq!(date_from_index(0), "1992-01-01");
        for idx in (-400..3000).chain([2_950_000, 3_000_000]) {
            let (year, doy) = (1992 + idx / 365, idx % 365);
            let (month, day) = (doy / 31 + 1, doy % 31 + 1);
            let formatted = format!("{year:04}-{month:02}-{day:02}");
            assert_eq!(date_from_index(idx), formatted, "{idx}");
        }
        assert!(date_from_index(100) < date_from_index(1000));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let d = random_date(&mut rng);
            assert!(
                d.as_str() >= "1992-01-01" && d.as_str() <= "1998-12-31",
                "{d}"
            );
        }
    }
}
