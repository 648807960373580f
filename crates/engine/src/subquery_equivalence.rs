//! The subquery memo against the reference it replaced: one evaluation per
//! outer row (`per_row_reference`). On generated statements over generated
//! data, all three executors must return the same rows, columns, errors and
//! — because a fault only ever fires on the memo's miss path — the same
//! `fired` vector either way, fault-free and under each fault that
//! intercepts subquery evaluation.

use crate::columnar::ColumnarDatabase;
use crate::disk::DiskDatabase;
use crate::engine::{per_row_reference, Database, Engine, EngineError, ExecOutcome};
use crate::faults::{FaultKind, FaultSet};
use crate::profiles::{DbmsProfile, ProfileId};
use proptest::prelude::*;
use tqs_sql::ast::SelectStmt;
use tqs_sql::hints::{Hint, HintSet, SemiJoinStrategy};
use tqs_sql::parser::parse_stmt;
use tqs_sql::types::{ColumnDef, ColumnType};
use tqs_sql::value::Value;
use tqs_storage::{Catalog, Row, Table};

/// `(g, s, u)` per row: a small nullable integer with duplicates, an index
/// into [`STRINGS`], and a second integer only `t1` exposes (as column `u`,
/// a name no other table has, so a bare `u` inside a subquery is an outer
/// reference).
type Cells = (Option<i64>, usize, Option<i64>);

/// Strings that meet numbers under coercion (`'2 '`, `'1.0'`), differ only
/// by case or padding, or are NULL.
const STRINGS: [Option<&str>; 7] = [
    Some("1"),
    Some("2"),
    Some("2 "),
    Some("1.0"),
    Some("x"),
    Some("X"),
    None,
];

fn catalog(t1: &[Cells], t2: &[Cells], t3: &[Cells]) -> Catalog {
    let int = |v: Option<i64>| v.map_or(Value::Null, Value::Int);
    let mut cat = Catalog::new();
    for (name, rows) in [("t1", t1), ("t2", t2), ("t3", t3)] {
        let mut columns = vec![
            ColumnDef::new("id", ColumnType::BigInt { unsigned: false }).not_null(),
            ColumnDef::new("g", ColumnType::Int { unsigned: false }),
            ColumnDef::new("s", ColumnType::Varchar(16)),
        ];
        if name == "t1" {
            columns.push(ColumnDef::new("u", ColumnType::Int { unsigned: false }));
        }
        let mut table = Table::new(name, columns).with_primary_key(vec!["id"]);
        for (id, (g, s, u)) in rows.iter().enumerate() {
            let mut values = vec![
                Value::Int(id as i64),
                int(*g),
                STRINGS[*s].map_or(Value::Null, Value::str),
            ];
            if name == "t1" {
                values.push(int(*u));
            }
            table.push_row(Row::new(values)).unwrap();
        }
        cat.add_table(table);
    }
    cat
}

/// Draws from a fixed list of picks, so a statement is a pure function of
/// the proptest input.
struct Picks<'a>(std::slice::Iter<'a, usize>);

impl Picks<'_> {
    fn of<'s>(&mut self, options: &[&'s str]) -> &'s str {
        options[self.0.next().copied().unwrap_or(0) % options.len()]
    }
}

/// `SELECT … FROM t2 [WHERE …]`: own columns qualified and bare, the outer
/// row's columns in the WHERE and in the select item, NULL-safe and coercing
/// comparisons, and — when `nest` — subqueries one level down, correlated
/// with the outermost row, with this subquery's row, or with nothing.
fn subquery(p: &mut Picks<'_>, nest: bool) -> String {
    let item = p.of(&["t2.g", "t2.s", "g", "t2.g + 0", "t1.g", "t2.id"]);
    let mut conds = vec![
        "t2.g = t1.g",
        "t2.s = t1.s",
        "t2.id = t1.g",
        "t2.g = t1.s",
        "g = u",
        "t2.g <=> t1.g",
        "t2.g > 1",
        "t2.s <> 'x'",
        "t2.g IS NULL",
    ];
    if nest {
        conds.extend([
            "t2.s IN (SELECT t3.s FROM t3)",
            "t2.id NOT IN (SELECT t3.g FROM t3 WHERE t3.s = t1.s)",
            "EXISTS (SELECT t3.id FROM t3 WHERE t3.g = t2.g)",
        ]);
    }
    match p.of(&["none", "one", "one", "two", "two"]) {
        "none" => format!("SELECT {item} FROM t2"),
        "one" => format!("SELECT {item} FROM t2 WHERE {}", p.of(&conds)),
        _ => format!(
            "SELECT {item} FROM t2 WHERE {} AND {}",
            p.of(&conds),
            p.of(&conds)
        ),
    }
}

fn predicate(p: &mut Picks<'_>) -> String {
    let nest = p.of(&["flat", "flat", "nest"]) == "nest";
    match p.of(&["in", "not in", "exists", "not exists"]) {
        "in" => format!(
            "{} IN ({})",
            p.of(&["t1.g", "t1.s", "t1.g + 1"]),
            subquery(p, nest)
        ),
        "not in" => format!(
            "{} NOT IN ({})",
            p.of(&["t1.g", "t1.s", "t1.u"]),
            subquery(p, nest)
        ),
        "exists" => format!("EXISTS ({})", subquery(p, nest)),
        _ => format!("NOT EXISTS ({})", subquery(p, nest)),
    }
}

/// One statement: `t1` alone, under a cross join (every binding repeated),
/// under an inner join, or beside the very table the subqueries select from
/// (the inner scope shadows it); one or two subquery predicates, in the
/// WHERE and sometimes in the select list too.
fn statement(picks: &[usize]) -> SelectStmt {
    let p = &mut Picks(picks.iter());
    let from = p.of(&[
        "t1",
        "t3 CROSS JOIN t1",
        "t2 CROSS JOIN t1",
        "t1 INNER JOIN t3 ON t1.g = t3.g",
    ]);
    let filter = match p.of(&["one", "and", "or", "not", "plain"]) {
        "one" => predicate(p),
        "and" => format!("{} AND {}", predicate(p), predicate(p)),
        "or" => format!("{} OR {}", predicate(p), predicate(p)),
        "not" => format!("NOT ({})", predicate(p)),
        _ => format!("{} AND t1.id > 0", predicate(p)),
    };
    let items = match p.of(&["id", "id", "pred"]) {
        "id" => "t1.id".to_string(),
        _ => format!("t1.id, {}", predicate(p)),
    };
    let sql = format!("SELECT {items} FROM {from} WHERE {filter}");
    parse_stmt(&sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

/// The subquery plans a hint can steer to: the profile's default (semi-join
/// materialization, where `SemiJoinWrongResults` lives), first-match, plain
/// materialization, per-row, derived.
fn hint_sets() -> Vec<HintSet> {
    vec![
        HintSet::new("default"),
        HintSet::new("firstmatch").with_hint(Hint::SemiJoin(Some(SemiJoinStrategy::FirstMatch))),
        HintSet::new("no-semijoin").with_hint(Hint::NoSemiJoin),
        HintSet::new("no-materialization")
            .with_hint(Hint::NoSemiJoin)
            .with_hint(Hint::Materialization(false)),
        HintSet::new("derived").with_hint(Hint::SubqueryToDerived),
    ]
}

/// What two executions must agree on.
type Observed = Result<(Vec<String>, Vec<Row>, Vec<FaultKind>), EngineError>;

fn observed(out: Result<ExecOutcome, EngineError>) -> Observed {
    out.map(|o| (o.result.columns, o.result.rows, o.fired))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn memoized_and_per_row_subqueries_agree_on_every_executor(
        t1 in proptest::collection::vec((proptest::option::of(0i64..4), 0usize..7, proptest::option::of(0i64..4)), 1..10),
        t2 in proptest::collection::vec((proptest::option::of(0i64..4), 0usize..7, proptest::option::of(0i64..4)), 1..10),
        t3 in proptest::collection::vec((proptest::option::of(0i64..4), 0usize..7, proptest::option::of(0i64..4)), 0..5),
        picks in proptest::collection::vec(0usize..1000, 40),
    ) {
        let stmt = statement(&picks);
        let cat = catalog(&t1, &t2, &t3);
        for faults in [
            FaultSet::none(),
            FaultSet::of(&[FaultKind::SemiJoinWrongResults]),
            FaultSet::of(&[FaultKind::AntiJoinMaterializationNullDrop]),
        ] {
            let mut profile = DbmsProfile::pristine(ProfileId::MysqlLike);
            profile.faults = faults;
            let mut row = Database::new(cat.clone(), profile.clone());
            let mut columnar = ColumnarDatabase::new(cat.clone(), profile.clone());
            let mut disk = DiskDatabase::new(cat.clone(), profile).unwrap();
            for hs in hint_sets() {
                let run: [(&str, &mut dyn FnMut() -> Observed); 3] = [
                    ("row", &mut || observed(row.execute_with_hints(&stmt, &hs))),
                    ("columnar", &mut || observed(columnar.execute_with_hints(&stmt, &hs))),
                    ("disk", &mut || observed(disk.execute_with_hints(&stmt, &hs))),
                ];
                for (engine, exec) in run {
                    let memoized = exec();
                    let reference = per_row_reference::with(exec);
                    prop_assert_eq!(
                        &memoized,
                        &reference,
                        "{} engine, {:?}, hints {}: {}",
                        engine,
                        faults.kinds(),
                        hs.label,
                        tqs_sql::render::render_stmt(&stmt)
                    );
                }
            }
        }
    }
}
