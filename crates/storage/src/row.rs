//! Rows and result sets, and the one result tail ([`result_tail`]) that
//! turns a filtered relation into the statement's answer.

use std::cmp::Ordering;
use std::hash::Hasher;
use tqs_sql::ast::{AggFunc, SelectItem, SelectStmt};
use tqs_sql::eval::{eval_expr, ColumnResolver, EvalError, SliceRow, SubqueryHandler};
use tqs_sql::value::{
    result_value_eq, sql_compare, ColClass, KeyBuf, KeyHasher, KeyMap, KeySet, SqlCmp, Value,
};

/// A row is an ordered list of values, positionally aligned with a column
/// list owned by the enclosing table / result set.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    pub values: Vec<Value>,
}

impl Row {
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Concatenate two rows (used by join operators).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

/// A bag (multiset) of result rows with named columns.
///
/// Query results in SQL are bags, not sets, and the order is irrelevant
/// unless ORDER BY is present — so equality is multiset equality using
/// [`result_value_eq`] (NULL equals NULL as a *result cell*).
#[derive(Debug, Clone, Default)]
pub struct ResultSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl ResultSet {
    pub fn new(columns: Vec<String>) -> Self {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Multiset equality, ignoring row order and column naming.
    pub fn same_bag(&self, other: &ResultSet) -> bool {
        self.rows.len() == other.rows.len() && self.embeds_in(other)
    }

    /// Is `self` a sub-bag of `other`? Used for the SubSet verification mode
    /// of cross joins (Table 2 of the paper).
    pub fn subset_of(&self, other: &ResultSet) -> bool {
        self.rows.len() <= other.rows.len() && self.embeds_in(other)
    }

    /// Does every row of `self` find a row of `other` of its own — equal
    /// under [`rows_eq`], and taken by no earlier row of `self`?
    ///
    /// Linear in expected time: `other`'s rows are chained by a digest of
    /// their [`KeyBuf::push_coarse`] key, and a row of `self` is compared
    /// only with the chain members that share its digest. The key coarsens
    /// `rows_eq`, so every row the comparison would accept is in that chain;
    /// chains keep row order and the first acceptable member is taken, so
    /// the pairing — and with it the verdict, even where the comparison is
    /// not transitive (`'12abc' = 12 = '12'`) — is the one a scan of all of
    /// `other` in row order would make.
    ///
    /// Two results in the same row order — the same plan twice, a table
    /// against its expected state — never get that far: while row `i` of
    /// `self` equals row `i` of `other` that scan pairs exactly those two,
    /// so the common prefix is paired off by walking it.
    fn embeds_in(&self, other: &ResultSet) -> bool {
        const NIL: usize = usize::MAX;
        let paired = self
            .rows
            .iter()
            .zip(&other.rows)
            .take_while(|(a, b)| rows_eq(a, b))
            .count();
        let (mine, theirs) = (&self.rows[paired..], &other.rows[paired..]);
        if mine.is_empty() {
            return true;
        }
        let classes = column_classes(mine, theirs);
        let mut key = KeyBuf::new();
        let digests: Vec<u64> = theirs
            .iter()
            .map(|r| row_digest(r, &classes, &mut key))
            .collect();
        let mask = theirs.len().next_power_of_two() - 1;
        let mut heads = vec![NIL; mask + 1];
        let mut next = vec![NIL; theirs.len()];
        for (i, d) in digests.iter().enumerate().rev() {
            let slot = *d as usize & mask;
            next[i] = heads[slot];
            heads[slot] = i;
        }
        for r in mine {
            let d = row_digest(r, &classes, &mut key);
            let slot = d as usize & mask;
            let (mut prev, mut i) = (NIL, heads[slot]);
            while i != NIL && !(digests[i] == d && rows_eq(r, &theirs[i])) {
                (prev, i) = (i, next[i]);
            }
            if i == NIL {
                return false;
            }
            // Unlink the taken row: duplicates count, and nobody rescans it.
            if prev == NIL {
                heads[slot] = next[i];
            } else {
                next[prev] = next[i];
            }
        }
        true
    }

    /// The judge before the digest chains: every row of `self` against every
    /// untaken row of `other`. Kept as the reference the tests hold
    /// [`embeds_in`](Self::embeds_in) to.
    #[cfg(test)]
    pub(crate) fn embeds_in_by_scan(&self, other: &ResultSet) -> bool {
        let mut used = vec![false; other.rows.len()];
        self.rows.iter().all(|r| {
            match (0..other.rows.len()).find(|&i| !used[i] && rows_eq(r, &other.rows[i])) {
                Some(i) => {
                    used[i] = true;
                    true
                }
                None => false,
            }
        })
    }

    /// `DISTINCT` by the `(type_tag, Display)` row equivalence, first
    /// occurrence kept — the one implementation both engines and the
    /// ground-truth evaluator share, so their DISTINCT semantics cannot
    /// drift apart (a drift would be indistinguishable from an engine bug).
    /// Keys go through the reusable binary [`KeyBuf`] group encoding.
    pub fn into_distinct(self) -> ResultSet {
        let mut seen = KeySet::default();
        let mut out = ResultSet::new(self.columns.clone());
        let mut fp = KeyBuf::new();
        for row in self.rows {
            fp.clear();
            for v in &row.values {
                fp.push_group(v);
            }
            if !seen.contains(&fp) {
                seen.insert(fp.clone());
                out.rows.push(row);
            }
        }
        out
    }

    /// Render as the ASCII table format used in the paper's listings.
    pub fn pretty(&self) -> String {
        if self.rows.is_empty() {
            return "Empty set".to_string();
        }
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                r.values
                    .iter()
                    .map(|v| match v {
                        Value::Null => "NULL".to_string(),
                        Value::Varchar(s) | Value::Text(s) => s.clone(),
                        other => other.to_string(),
                    })
                    .collect()
            })
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() && cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let sep = |w: &Vec<usize>| {
            let mut s = String::from("+");
            for width in w {
                s.push_str(&"-".repeat(width + 2));
                s.push('+');
            }
            s
        };
        let mut out = String::new();
        out.push_str(&sep(&widths));
        out.push('\n');
        out.push('|');
        for (c, w) in self.columns.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
        out.push_str(&sep(&widths));
        out.push('\n');
        for row in &rendered {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        out.push_str(&sep(&widths));
        out
    }
}

/// One row of the relation [`result_tail`] reads: resolved by column
/// reference, or read by header position (a `*` item).
pub trait TailRow: ColumnResolver {
    /// The value at header position `column`.
    fn at(&self, column: usize) -> &Value;
}

impl TailRow for SliceRow<'_> {
    fn at(&self, column: usize) -> &Value {
        &self.values()[column]
    }
}

/// Why [`result_tail`] refused a statement.
#[derive(Debug, Clone, PartialEq)]
pub enum TailError {
    Eval(EvalError),
    /// A shape the tail does not evaluate.
    Unsupported(&'static str),
}

impl From<EvalError> for TailError {
    fn from(e: EvalError) -> Self {
        TailError::Eval(e)
    }
}

/// The tail of a SELECT: projection, or GROUP BY grouping and aggregates,
/// then DISTINCT and LIMIT, over `rows` filtered rows under `header` (one
/// `(binding, column)` pair per column), row `i` read through `row(i)`.
///
/// The engines and the ground truth both end a statement here, so the two
/// cannot drift apart on what a result is — a drift would look exactly like
/// an engine bug. A grouped statement with no GROUP BY yields one row even
/// over no input; a grouped `*` is refused once a group exists; a plain
/// `*` expands to `header`, named `binding.column`.
pub fn result_tail<R: TailRow>(
    stmt: &SelectStmt,
    header: &[(String, String)],
    rows: usize,
    row: impl Fn(usize) -> R,
    sub: &dyn SubqueryHandler,
) -> Result<ResultSet, TailError> {
    let mut result = if stmt.is_grouped() {
        group(stmt, rows, &row, sub)?
    } else {
        project(stmt, header, rows, &row, sub)?
    };
    if stmt.distinct {
        result = result.into_distinct();
    }
    if let Some(l) = stmt.limit {
        result.rows.truncate(l as usize);
    }
    Ok(result)
}

/// An item's column name: its alias, else the expression or the function.
fn item_name(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".into(),
        SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| format!("{expr:?}")),
        SelectItem::Aggregate { func, alias, .. } => {
            alias.clone().unwrap_or_else(|| format!("{func:?}"))
        }
    }
}

fn project<R: TailRow>(
    stmt: &SelectStmt,
    header: &[(String, String)],
    rows: usize,
    row: impl Fn(usize) -> R,
    sub: &dyn SubqueryHandler,
) -> Result<ResultSet, TailError> {
    let mut columns = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => columns.extend(header.iter().map(|(b, c)| format!("{b}.{c}"))),
            item => columns.push(item_name(item)),
        }
    }
    let mut rs = ResultSet::new(columns);
    for i in 0..rows {
        let r = row(i);
        let mut out = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => out.extend((0..header.len()).map(|c| r.at(c).clone())),
                SelectItem::Expr { expr, .. } => out.push(eval_expr(expr, &r, sub)?),
                SelectItem::Aggregate { .. } => unreachable!("a statement with aggregates groups"),
            }
        }
        rs.rows.push(Row::new(out));
    }
    Ok(rs)
}

/// Rows grouped by the GROUP BY key (one global group when there is none),
/// groups in order of first appearance, keyed by the binary [`KeyBuf`]
/// group encoding; a plain item reads the group's first row.
fn group<R: TailRow>(
    stmt: &SelectStmt,
    rows: usize,
    row: impl Fn(usize) -> R,
    sub: &dyn SubqueryHandler,
) -> Result<ResultSet, TailError> {
    let mut index: KeyMap<usize> = KeyMap::default();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut key = KeyBuf::new();
    for i in 0..rows {
        let r = row(i);
        key.clear();
        for g in &stmt.group_by {
            key.push_group(&eval_expr(g, &r, sub)?);
        }
        match index.get(&key) {
            Some(&g) => groups[g].push(i),
            None => {
                index.insert(key.clone(), groups.len());
                groups.push(vec![i]);
            }
        }
    }
    if stmt.group_by.is_empty() && groups.is_empty() {
        groups.push(Vec::new());
    }
    let mut rs = ResultSet::new(stmt.items.iter().map(item_name).collect());
    for members in &groups {
        let mut out = Vec::new();
        for item in &stmt.items {
            match item {
                SelectItem::Wildcard => {
                    return Err(TailError::Unsupported("wildcard with GROUP BY"))
                }
                SelectItem::Expr { expr, .. } => out.push(match members.first() {
                    Some(&i) => eval_expr(expr, &row(i), sub)?,
                    None => Value::Null,
                }),
                SelectItem::Aggregate { func, arg, .. } => {
                    let mut values = Vec::new();
                    if let Some(e) = arg {
                        for &i in members {
                            values.push(eval_expr(e, &row(i), sub)?);
                        }
                    }
                    out.push(aggregate(*func, members.len(), &values));
                }
            }
        }
        rs.rows.push(Row::new(out));
    }
    Ok(rs)
}

/// `func` over a group of `group_size` rows whose argument values are
/// `values` (none for `COUNT(*)`): NULLs ignored, SUM and AVG as doubles,
/// MIN and MAX by [`sql_compare`], NULL over no non-NULL value.
fn aggregate(func: AggFunc, group_size: usize, values: &[Value]) -> Value {
    match func {
        AggFunc::CountStar => Value::Int(group_size as i64),
        AggFunc::Count => Value::Int(values.iter().filter(|v| !v.is_null()).count() as i64),
        AggFunc::Sum | AggFunc::Avg => {
            let nums: Vec<f64> = values.iter().filter_map(|v| v.as_f64_lossy()).collect();
            let sum: f64 = nums.iter().sum();
            match (nums.len(), func) {
                (0, _) => Value::Null,
                (_, AggFunc::Sum) => Value::Double(sum),
                (n, _) => Value::Double(sum / n as f64),
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let wanted = SqlCmp::Ordering(match func {
                AggFunc::Min => Ordering::Less,
                _ => Ordering::Greater,
            });
            (values.iter().filter(|v| !v.is_null()))
                .reduce(|best, v| {
                    if sql_compare(v, best) == wanted {
                        v
                    } else {
                        best
                    }
                })
                .map_or(Value::Null, Value::clone)
        }
    }
}

/// Result-row equality: same width, and cell by cell [`result_value_eq`].
fn rows_eq(a: &Row, b: &Row) -> bool {
    #[cfg(test)]
    tests::ROW_CONFIRMATIONS.with(|n| n.set(n.get() + 1));
    a.len() == b.len()
        && a.values
            .iter()
            .zip(&b.values)
            .all(|(x, y)| result_value_eq(x, y))
}

/// Per column position, the class of every value either side holds there.
fn column_classes(a: &[Row], b: &[Row]) -> Vec<ColClass> {
    let mut classes = Vec::new();
    for row in a.iter().chain(b) {
        if classes.len() < row.len() {
            classes.resize(row.len(), ColClass::Empty);
        }
        for (c, v) in classes.iter_mut().zip(&row.values) {
            *c = c.join(ColClass::of(v));
        }
    }
    classes
}

/// A digest that rows equal under [`rows_eq`] share: the row's width and its
/// cells' [`KeyBuf::push_coarse`] segments. `key` is scratch space.
fn row_digest(row: &Row, classes: &[ColClass], key: &mut KeyBuf) -> u64 {
    key.clear();
    for (v, class) in row.values.iter().zip(classes) {
        key.push_coarse(v, *class);
    }
    let mut h = KeyHasher::default();
    h.write_usize(row.len());
    h.write(key.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Calls of [`rows_eq`] on this thread: the judge's unit of work.
        pub(super) static ROW_CONFIRMATIONS: Cell<u64> = const { Cell::new(0) };
    }

    fn rs(rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            columns: vec!["c0".into()],
            rows: rows.into_iter().map(Row::new).collect(),
        }
    }

    #[test]
    fn the_tail_projects_groups_and_refuses_what_its_docs_say() {
        use tqs_sql::eval::NoSubqueries;
        use Value::{Double, Int, Null};
        let header = ["a", "b"].map(|c| ("t".to_string(), c.to_string()));
        let rows = [
            vec![Int(1), Int(10)],
            vec![Int(2), Null],
            vec![Int(1), Int(30)],
        ];
        let tail = |sql: &str, n: usize| {
            let stmt = tqs_sql::parser::parse_stmt(sql).unwrap();
            let row = |i: usize| SliceRow::new(&header, &rows[i]);
            result_tail(&stmt, &header, n, row, &NoSubqueries)
                .map(|rs| (rs.columns, rs.rows.into_iter().map(|r| r.values).collect()))
        };
        let got: (Vec<String>, Vec<Vec<Value>>) = tail("SELECT * FROM t", 3).unwrap();
        assert_eq!(got, (vec!["t.a".into(), "t.b".into()], rows.to_vec()));
        // Groups in order of first appearance; aggregates skip NULLs.
        let sql = "SELECT t.a, COUNT(*), COUNT(t.b), SUM(t.b), AVG(t.b), MIN(t.b), MAX(t.b) \
                   FROM t GROUP BY t.a";
        let (_, got) = tail(sql, 3).unwrap();
        let one = [
            Int(1),
            Int(2),
            Int(2),
            Double(40.0),
            Double(20.0),
            Int(10),
            Int(30),
        ];
        let two = [Int(2), Int(1), Int(0), Null, Null, Null, Null];
        assert_eq!(got, [one.to_vec(), two.to_vec()]);
        // Without GROUP BY, one row even over no input.
        assert_eq!(tail("SELECT COUNT(*) FROM t", 0).unwrap().1, [[Int(0)]]);
        // A grouped `*` is refused once a group exists.
        let star = "SELECT * FROM t GROUP BY t.a";
        let refused = Err(TailError::Unsupported("wildcard with GROUP BY"));
        assert_eq!(tail(star, 3).map(|_| ()), refused);
        assert_eq!(tail(star, 0).unwrap().1, Vec::<Vec<Value>>::new());
        // DISTINCT, then LIMIT.
        let got = tail("SELECT DISTINCT t.a FROM t LIMIT 1", 3).unwrap().1;
        assert_eq!(got, [[Int(1)]]);
    }

    #[test]
    fn concat_and_nulls() {
        let a = Row::new(vec![Value::Int(1)]);
        let b = Row::new(vec![Value::Null; 2]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert!(c.get(1).is_null());
    }

    #[test]
    fn bag_equality_ignores_order() {
        let a = rs(vec![
            vec![Value::Int(1)],
            vec![Value::Int(2)],
            vec![Value::Int(2)],
        ]);
        let b = rs(vec![
            vec![Value::Int(2)],
            vec![Value::Int(1)],
            vec![Value::Int(2)],
        ]);
        assert!(a.same_bag(&b));
        let c = rs(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(!a.same_bag(&c));
    }

    #[test]
    fn bag_equality_respects_duplicates() {
        let a = rs(vec![vec![Value::Int(1)], vec![Value::Int(1)]]);
        let b = rs(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(!a.same_bag(&b));
    }

    #[test]
    fn null_cells_match_null_cells() {
        let a = rs(vec![vec![Value::Null], vec![Value::Null]]);
        let b = rs(vec![vec![Value::Null], vec![Value::Null]]);
        assert!(a.same_bag(&b));
        // ...but a NULL cell never matches an empty string — exactly the
        // MariaDB Listing 3 bug signature.
        let c = rs(vec![vec![Value::str("")], vec![Value::Null]]);
        assert!(!a.same_bag(&c));
    }

    #[test]
    fn subset_check() {
        let small = rs(vec![vec![Value::Int(1)]]);
        let big = rs(vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        assert!(small.subset_of(&big));
        assert!(!big.subset_of(&small));
        assert!(big.subset_of(&big));
    }

    #[test]
    fn different_widths_never_match() {
        let narrow = rs(vec![vec![Value::Int(1)]]);
        let wide = rs(vec![vec![Value::Int(1), Value::Null]]);
        assert!(!narrow.same_bag(&wide));
        assert!(!narrow.subset_of(&wide));
        assert!(!wide.subset_of(&narrow));
    }

    #[test]
    fn a_column_mixing_strings_and_numbers_keeps_coercing() {
        // '12abc' = 12 and '12' = 12 but '12abc' <> '12': not an equivalence,
        // so all three share a bucket and the comparison decides inside it.
        let strings = rs(vec![vec![Value::str("12abc")], vec![Value::str("12")]]);
        let numbers = rs(vec![vec![Value::Int(12)], vec![Value::Double(12.0)]]);
        assert!(strings.same_bag(&numbers));
        assert!(numbers.same_bag(&strings));
        assert!(rs(vec![vec![Value::Int(12)]]).subset_of(&strings));
        // Rows pair up first come, first served, exactly like the scan: 12
        // takes '12abc' here, and '12abc' is left facing '12'.
        let number_first = rs(vec![vec![Value::Int(12)], vec![Value::str("12abc")]]);
        assert!(!number_first.same_bag(&strings));
        assert!(!number_first.embeds_in_by_scan(&strings));
    }

    #[test]
    fn subset_mode_counts_duplicate_ground_truth_rows() {
        let a = vec![Value::str("a"), Value::Int(1)];
        let b = vec![Value::str("b"), Value::Null];
        let truth = rs(vec![a.clone(), a.clone(), b.clone()]);
        let enough = rs(vec![b.clone(), a.clone(), b.clone(), a.clone()]);
        let one_short = rs(vec![a.clone(), b.clone(), b.clone(), b]);
        assert!(truth.subset_of(&enough));
        assert!(!truth.subset_of(&one_short));
        assert!(!rs(vec![a.clone(), a.clone()]).subset_of(&rs(vec![a])));
    }

    /// `n` rows, pairwise different, with a cell of every type family.
    fn distinct_typed_rows(n: usize) -> Vec<Vec<Value>> {
        use tqs_sql::value::Decimal;
        (0..n as i64)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("Name{i} ")),
                    Value::Decimal(Decimal::new(i as i128 * 10 + 5, 1)),
                    Value::Double(i as f64 / 4.0),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Date((i % 365) as i32)
                    },
                ]
            })
            .collect()
    }

    /// Asserts that `judge` accepts equal bags of `n` rows within `2 * n`
    /// [`rows_eq`] calls — shuffled distinct rows, and `n` copies of one row.
    fn assert_linear(n: usize, judge: fn(&ResultSet, &ResultSet) -> bool) {
        let confirmations = |a: &ResultSet, b: &ResultSet| {
            ROW_CONFIRMATIONS.with(|c| c.set(0));
            assert!(judge(a, b));
            ROW_CONFIRMATIONS.with(|c| c.get())
        };
        let rows = distinct_typed_rows(n);
        // 7919 is prime and does not divide n: a permutation.
        let shuffled = (0..n).map(|i| rows[i * 7919 % n].clone()).collect();
        let copies = rs(vec![rows[1].clone(); n]);
        for (a, b) in [(rs(rows), rs(shuffled)), (copies.clone(), copies)] {
            let made = confirmations(&a, &b);
            assert!(
                made <= 2 * n as u64,
                "{made} row confirmations for {n} rows"
            );
        }
    }

    #[test]
    fn judging_equal_bags_takes_linearly_many_row_confirmations() {
        assert_linear(20_000, |a, b| a.same_bag(b));
        assert_linear(20_000, |a, b| a.subset_of(b));
    }

    /// The measuring stick measures: the scan it replaced needs about n²/2.
    #[test]
    #[should_panic(expected = "row confirmations for 2000 rows")]
    fn the_scan_reference_is_not_linear() {
        assert_linear(2_000, |a, b| a.embeds_in_by_scan(b));
    }

    #[test]
    fn pretty_matches_paper_listing_style() {
        let a = rs(vec![vec![Value::Null]]);
        let p = a.pretty();
        assert!(p.contains("| NULL |"));
        assert_eq!(rs(vec![]).pretty(), "Empty set");
    }
}
