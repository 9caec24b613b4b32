//! Plan-cache keying: SQL normalization and a planning-knob fingerprint.
//!
//! The server's prepared-plan cache keys compiled queries on
//! `(normalized SQL, knob fingerprint, metastore generation, DFS
//! generation watermark)`. The two pieces here make the first half of
//! that key:
//!
//! * [`normalize_sql`] canonicalizes whitespace and case (outside string
//!   literals) so `SELECT a FROM t` and `select  a\nfrom t;` share a
//!   cache entry;
//! * [`knob_fingerprint`] hashes every *planning-relevant* effective knob
//!   so a session that flips, say, `hive.auto.convert.join` can never be
//!   served a plan compiled under the old setting. Knobs that cannot
//!   change the compiled plan — server admission, fault injection, the
//!   plan cache's own switches — are excluded, so toggling them keeps
//!   cache entries reachable.

use hive_common::HiveConf;

/// Knob-key prefixes that cannot affect the *compiled plan* and are
/// therefore excluded from the fingerprint. Everything else is hashed.
const NON_PLANNING_PREFIXES: &[&str] = &[
    "hive.server.",           // admission / workload management
    "hive.session.",          // session identity (pool mapping)
    "hive.query.plan.cache.", // the cache's own switches
    "dfs.fault.",             // fault injection perturbs execution, not plans
    "hive.io.cache.",         // block/ORC cache sizing
];

fn is_planning_key(key: &str) -> bool {
    !NON_PLANNING_PREFIXES.iter().any(|p| key.starts_with(p))
}

/// Canonical form of a statement for cache lookup: lowercased outside
/// single-quoted string literals, runs of whitespace collapsed to one
/// space, trimmed, trailing `;` stripped. Purely lexical — two statements
/// that normalize equal parse to the same AST.
pub fn normalize_sql(sql: &str) -> String {
    let mut out = String::with_capacity(sql.len());
    let mut in_string = false;
    let mut pending_space = false;
    for c in sql.chars() {
        if in_string {
            out.push(c);
            if c == '\'' {
                in_string = false;
            }
            continue;
        }
        if c.is_whitespace() {
            pending_space = true;
            continue;
        }
        if pending_space {
            if !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
        }
        if c == '\'' {
            in_string = true;
            out.push(c);
        } else {
            out.extend(c.to_lowercase());
        }
    }
    while out.ends_with(';') {
        out.pop();
        while out.ends_with(' ') {
            out.pop();
        }
    }
    out
}

/// FNV-1a 64 over the effective `key=value` pairs of every
/// planning-relevant knob (registry defaults merged with overrides, in
/// sorted key order, so insertion order of `set` calls is irrelevant).
pub fn knob_fingerprint(conf: &HiveConf) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    };
    for (k, v) in conf.effective() {
        if !is_planning_key(&k) {
            continue;
        }
        eat(k.as_bytes());
        eat(b"=");
        eat(v.as_bytes());
        eat(b"\n");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::config::keys;

    #[test]
    fn normalization_collapses_case_and_whitespace() {
        assert_eq!(
            normalize_sql("SELECT  a,\n\tb FROM t WHERE a > 1 ;"),
            "select a, b from t where a > 1"
        );
        assert_eq!(normalize_sql("select a from t"), "select a from t");
    }

    #[test]
    fn normalization_preserves_string_literals() {
        assert_eq!(
            normalize_sql("SELECT * FROM t WHERE name = 'Ann  B'"),
            "select * from t where name = 'Ann  B'"
        );
    }

    #[test]
    fn planning_knobs_change_the_fingerprint() {
        let base = HiveConf::new();
        let flipped = HiveConf::new().with(keys::AUTO_CONVERT_JOIN, "false");
        assert_ne!(knob_fingerprint(&base), knob_fingerprint(&flipped));
    }

    #[test]
    fn non_planning_knobs_do_not_change_the_fingerprint() {
        let base = HiveConf::new();
        let tweaked = HiveConf::new()
            .with(keys::SERVER_MAX_CONCURRENT, "7")
            .with(keys::SESSION_USER, "ann")
            .with(keys::PLAN_CACHE_ENABLED, "true");
        assert_eq!(knob_fingerprint(&base), knob_fingerprint(&tweaked));
    }

    #[test]
    fn fingerprint_is_stable_across_set_order() {
        let a = HiveConf::new()
            .with(keys::CBO_ENABLE, "false")
            .with(keys::OPT_CORRELATION, "false");
        let b = HiveConf::new()
            .with(keys::OPT_CORRELATION, "false")
            .with(keys::CBO_ENABLE, "false");
        assert_eq!(knob_fingerprint(&a), knob_fingerprint(&b));
    }
}
