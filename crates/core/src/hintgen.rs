//! Hint-set generation (`HintGen`, Algorithm 1 line 11).
//!
//! For every generated logic query, TQS produces several *transformed
//! queries*: the same statement steered onto different physical plans through
//! optimizer hints and `optimizer_switch` settings, in the dialect of the
//! target DBMS profile.

use tqs_engine::ProfileId;
use tqs_optimizer::SUBQUERY_STRATEGIES;
use tqs_sql::ast::SelectStmt;
use tqs_sql::hints::{Hint, HintSet, SemiJoinStrategy, SessionSwitch, SwitchName};

/// Build the hint sets used to transform `stmt` against `profile`.
///
/// The first entry is always the un-hinted default plan; the rest force the
/// plan families the paper's listings exercise (hash / merge / nested-loop /
/// index joins, semi-join strategies, materialization, join-cache switches,
/// join order).
pub fn hint_sets_for(profile: ProfileId, stmt: &SelectStmt) -> Vec<HintSet> {
    let tables: Vec<String> = stmt
        .from
        .tables()
        .iter()
        .map(|t| t.binding().to_string())
        .collect();
    let mut sets = vec![HintSet::new("default")];
    let multi_table = tables.len() > 1;

    if multi_table {
        sets.push(HintSet::new("hash-join").with_hint(Hint::HashJoin(tables.clone())));
        sets.push(HintSet::new("merge-join").with_hint(Hint::MergeJoin(tables.clone())));
        sets.push(HintSet::new("nl-join").with_hint(Hint::NlJoin(tables.clone())));
        sets.push(HintSet::new("index-join").with_hint(Hint::IndexJoin(tables.clone())));
        let mut reversed = tables.clone();
        reversed.reverse();
        sets.push(HintSet::new("join-order").with_hint(Hint::JoinOrder(reversed)));
    }

    if stmt.has_subquery() {
        for (label, _, steer) in SUBQUERY_STRATEGIES {
            sets.push(steer(HintSet::new(label)));
        }
    }

    match profile {
        ProfileId::MariadbLike => {
            sets.push(
                HintSet::new("join-cache-hashed-off")
                    .with_switch(SessionSwitch::off(SwitchName::JoinCacheHashed)),
            );
            sets.push(
                HintSet::new("join-cache-bka-off")
                    .with_switch(SessionSwitch::off(SwitchName::JoinCacheBka)),
            );
            sets.push(
                HintSet::new("no-join-buffers")
                    .with_switch(SessionSwitch::off(SwitchName::JoinCacheBka))
                    .with_switch(SessionSwitch::off(SwitchName::JoinCacheHashed))
                    .with_switch(SessionSwitch::off(SwitchName::OuterJoinWithCache)),
            );
        }
        ProfileId::MysqlLike => {
            sets.push(
                HintSet::new("bnl-only")
                    .with_switch(SessionSwitch::off(SwitchName::HashJoin))
                    .with_switch(SessionSwitch::off(SwitchName::BatchedKeyAccess)),
            );
            if stmt.has_subquery() {
                sets.push(
                    HintSet::new("firstmatch")
                        .with_hint(Hint::SemiJoin(Some(SemiJoinStrategy::FirstMatch))),
                );
            }
        }
        ProfileId::TidbLike => {
            // TiDB's hint dialect favours per-join-type hints; merge join is
            // the historically buggy one, also try forcing index joins off.
            sets.push(
                HintSet::new("no-index-join")
                    .with_hint(Hint::HashJoin(tables.clone()))
                    .with_switch(SessionSwitch::off(SwitchName::BatchedKeyAccess)),
            );
        }
        ProfileId::XdbLike => {
            sets.push(
                HintSet::new("materialization-off")
                    .with_switch(SessionSwitch::off(SwitchName::Materialization)),
            );
        }
    }
    // de-duplicate by label (materialization-off may repeat)
    let mut seen = std::collections::HashSet::new();
    sets.retain(|s| seen.insert(s.label.clone()));
    sets
}

#[cfg(test)]
mod tests {
    use super::*;
    use tqs_sql::parser::parse_stmt;

    fn join_query() -> SelectStmt {
        parse_stmt("SELECT t1.a FROM t1 JOIN t2 ON t1.a = t2.a LEFT OUTER JOIN t3 ON t2.b = t3.b")
            .unwrap()
    }

    fn subquery_query() -> SelectStmt {
        parse_stmt("SELECT t1.a FROM t1 WHERE t1.a IN (SELECT t2.a FROM t2)").unwrap()
    }

    #[test]
    fn default_plan_is_always_first() {
        for p in ProfileId::ALL {
            let sets = hint_sets_for(p, &join_query());
            assert_eq!(sets[0].label, "default");
            assert!(sets[0].is_empty());
            assert!(sets.len() >= 5, "{p:?} produced too few hint sets");
        }
    }

    #[test]
    fn join_queries_cover_all_algorithm_families() {
        let labels: Vec<String> = hint_sets_for(ProfileId::MysqlLike, &join_query())
            .into_iter()
            .map(|s| s.label)
            .collect();
        for expected in [
            "hash-join",
            "merge-join",
            "nl-join",
            "index-join",
            "join-order",
        ] {
            assert!(labels.contains(&expected.to_string()), "{labels:?}");
        }
    }

    #[test]
    fn subqueries_add_semijoin_strategies() {
        let labels: Vec<String> = hint_sets_for(ProfileId::MysqlLike, &subquery_query())
            .into_iter()
            .map(|s| s.label)
            .collect();
        assert!(labels.contains(&"semijoin-materialization".to_string()));
        assert!(labels.contains(&"no-semijoin".to_string()));
        assert!(labels.contains(&"materialization-off".to_string()));
        assert!(labels.contains(&"firstmatch".to_string()));
    }

    #[test]
    fn mariadb_uses_optimizer_switches() {
        let sets = hint_sets_for(ProfileId::MariadbLike, &join_query());
        let switchy = sets.iter().filter(|s| !s.switches.is_empty()).count();
        assert!(switchy >= 3);
        // rendering shows the SET optimizer_switch syntax from the listings
        let rendered: Vec<String> = sets.iter().map(|s| s.to_string()).collect();
        assert!(rendered.iter().any(|r| r.contains("join_cache_hashed=off")));
    }

    #[test]
    fn labels_are_unique() {
        for p in ProfileId::ALL {
            let sets = hint_sets_for(p, &subquery_query());
            let mut labels: Vec<&str> = sets.iter().map(|s| s.label.as_str()).collect();
            let before = labels.len();
            labels.dedup();
            labels.sort();
            labels.dedup();
            assert_eq!(before, labels.len());
        }
    }
}
