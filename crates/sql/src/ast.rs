//! Abstract syntax tree for the SQL dialect generated by DSG and executed by
//! the simulated engines.
//!
//! The dialect covers the paper's query space: multi-table equi-joins of the
//! seven join types, WHERE filters, IN / NOT IN / EXISTS subqueries, GROUP BY
//! with aggregates, DISTINCT and LIMIT, plus optimizer hints (both
//! `/*+ ... */` hint comments and `SET optimizer_switch` style session
//! switches). Nothing is parsed that no executor and no ground truth
//! evaluates: there is no HAVING and no ORDER BY.

use crate::types::ColumnType;
use crate::value::Value;

/// Reference to a column, optionally qualified by table name or alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    pub table: Option<String>,
    pub column: String,
}

impl ColumnRef {
    pub fn new(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Eq,
    NullSafeEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinOp {
    pub fn sql(self) -> &'static str {
        match self {
            BinOp::Eq => "=",
            BinOp::NullSafeEq => "<=>",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
        }
    }

    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::NullSafeEq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    Not,
    Neg,
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Value),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnOp,
        expr: Box<Expr>,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    Exists {
        subquery: Box<SelectStmt>,
        negated: bool,
    },
    /// Explicit CAST. The generator emits none; only parsed text (the
    /// paper's listings, hand-written statements) carries one.
    Cast {
        expr: Box<Expr>,
        ty: ColumnType,
    },
}

impl Expr {
    pub fn col(table: &str, column: &str) -> Expr {
        Expr::Column(ColumnRef::new(table, column))
    }
    pub fn lit(v: Value) -> Expr {
        Expr::Literal(v)
    }
    pub fn binary(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }
    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Eq, left, right)
    }
    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::And, left, right)
    }
    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinOp::Or, left, right)
    }
    #[allow(clippy::should_implement_trait)]
    pub fn not(expr: Expr) -> Expr {
        Expr::Unary {
            op: UnOp::Not,
            expr: Box::new(expr),
        }
    }
    pub fn is_null(expr: Expr) -> Expr {
        Expr::IsNull {
            expr: Box::new(expr),
            negated: false,
        }
    }

    /// Combine a list of predicates with AND; `None` when empty.
    pub fn conjunction(mut preds: Vec<Expr>) -> Option<Expr> {
        if preds.is_empty() {
            return None;
        }
        let mut acc = preds.remove(0);
        for p in preds {
            acc = Expr::and(acc, p);
        }
        Some(acc)
    }

    /// The top-level AND conjuncts of this expression, left to right; any
    /// other expression (an OR included) is one conjunct.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        self.collect_conjuncts(&mut out);
        out
    }

    fn collect_conjuncts<'a>(&'a self, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary {
            op: BinOp::And,
            left,
            right,
        } = self
        {
            left.collect_conjuncts(out);
            right.collect_conjuncts(out);
        } else {
            out.push(self);
        }
    }

    /// Calls `f` on each of this expression's direct children, in
    /// evaluation order: `Binary` left then right, `Between` expr / low /
    /// high, `InList` expr then the list. A subquery is not a child
    /// ([`subquery`](Self::subquery)); an `InSubquery`'s only child is its
    /// expr. The one place that knows which variant holds which
    /// expressions; every walk below is built on it.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Expr)) {
        match self {
            Expr::Column(_) | Expr::Literal(_) | Expr::Exists { .. } => {}
            Expr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::Cast { expr, .. }
            | Expr::InSubquery { expr, .. } => f(expr),
            Expr::Between {
                expr, low, high, ..
            } => {
                f(expr);
                f(low);
                f(high);
            }
            Expr::InList { expr, list, .. } => {
                f(expr);
                list.iter().for_each(f);
            }
        }
    }

    /// The statement of an `InSubquery` or `Exists` node.
    pub fn subquery(&self) -> Option<&SelectStmt> {
        match self {
            Expr::InSubquery { subquery, .. } | Expr::Exists { subquery, .. } => Some(subquery),
            _ => None,
        }
    }

    /// All column references appearing in this expression (not descending
    /// into subqueries — those have their own scopes).
    pub fn column_refs(&self) -> Vec<&ColumnRef> {
        let mut out = Vec::new();
        self.collect_column_refs(&mut out);
        out
    }

    fn collect_column_refs<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        if let Expr::Column(c) = self {
            out.push(c);
        }
        self.for_each_child(|child| child.collect_column_refs(out));
    }

    /// Like [`column_refs`](Self::column_refs), but also descends into
    /// subquery statements — correlated subqueries reference outer columns
    /// from inside, which the shallow walk cannot see. Used by column
    /// pruning, which must treat *every* reachable reference as live.
    pub fn collect_column_refs_deep<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        if let Expr::Column(c) = self {
            out.push(c);
        }
        self.for_each_child(|child| child.collect_column_refs_deep(out));
        if let Some(subquery) = self.subquery() {
            subquery.collect_column_refs_deep(out);
        }
    }

    /// The subqueries this expression holds, not those nested inside them.
    pub fn collect_subqueries<'a>(&'a self, out: &mut Vec<&'a SelectStmt>) {
        self.for_each_child(|child| child.collect_subqueries(out));
        out.extend(self.subquery());
    }

    /// Does this expression (transitively) contain a subquery?
    pub fn has_subquery(&self) -> bool {
        let mut found = self.subquery().is_some();
        self.for_each_child(|child| found = found || child.has_subquery());
        found
    }
}

/// Aggregate functions supported in the SELECT list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    pub fn sql(self) -> &'static str {
        match self {
            AggFunc::CountStar | AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// An item in the SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    Wildcard,
    Expr {
        expr: Expr,
        alias: Option<String>,
    },
    Aggregate {
        func: AggFunc,
        arg: Option<Expr>,
        alias: Option<String>,
    },
}

impl SelectItem {
    pub fn column(table: &str, column: &str) -> SelectItem {
        SelectItem::Expr {
            expr: Expr::col(table, column),
            alias: None,
        }
    }
    pub fn is_aggregate(&self) -> bool {
        matches!(self, SelectItem::Aggregate { .. })
    }

    /// The expression the item evaluates, or its aggregate's argument.
    pub fn expr(&self) -> Option<&Expr> {
        match self {
            SelectItem::Wildcard => None,
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Aggregate { arg, .. } => arg.as_ref(),
        }
    }
}

/// The seven join types of Table 2 in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinType {
    Inner,
    LeftOuter,
    RightOuter,
    FullOuter,
    Cross,
    Semi,
    Anti,
}

impl JoinType {
    pub const ALL: [JoinType; 7] = [
        JoinType::Inner,
        JoinType::LeftOuter,
        JoinType::RightOuter,
        JoinType::FullOuter,
        JoinType::Cross,
        JoinType::Semi,
        JoinType::Anti,
    ];

    pub fn sql(self) -> &'static str {
        match self {
            JoinType::Inner => "INNER JOIN",
            JoinType::LeftOuter => "LEFT OUTER JOIN",
            JoinType::RightOuter => "RIGHT OUTER JOIN",
            JoinType::FullOuter => "FULL OUTER JOIN",
            JoinType::Cross => "CROSS JOIN",
            JoinType::Semi => "SEMI JOIN",
            JoinType::Anti => "ANTI JOIN",
        }
    }

    /// Edge label in the plan-iterative graph.
    pub fn graph_label(self) -> &'static str {
        match self {
            JoinType::Inner => "inner join",
            JoinType::LeftOuter => "left outer join",
            JoinType::RightOuter => "right outer join",
            JoinType::FullOuter => "full outer join",
            JoinType::Cross => "cross join",
            JoinType::Semi => "semi join",
            JoinType::Anti => "anti join",
        }
    }
}

/// A table reference in FROM, with optional alias.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TableRef {
    pub table: String,
    pub alias: Option<String>,
}

impl TableRef {
    pub fn new(table: impl Into<String>) -> Self {
        TableRef {
            table: table.into(),
            alias: None,
        }
    }
    /// Name by which columns of this table are qualified.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// One join step: `<join type> <table> ON <condition>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub join_type: JoinType,
    pub table: TableRef,
    pub on: Option<Expr>,
}

/// FROM clause: a base table plus a left-deep chain of joins.
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    pub base: TableRef,
    pub joins: Vec<Join>,
}

impl FromClause {
    pub fn single(table: impl Into<String>) -> Self {
        FromClause {
            base: TableRef::new(table),
            joins: Vec::new(),
        }
    }
    /// All table bindings, base first.
    pub fn tables(&self) -> Vec<&TableRef> {
        let mut v = vec![&self.base];
        v.extend(self.joins.iter().map(|j| &j.table));
        v
    }

    /// The first binding (alias, or table name when unaliased) that repeats
    /// an earlier one, compared case-blind: such a FROM clause is not a
    /// valid statement, as no reference to that binding is unambiguous.
    pub fn repeated_binding(&self) -> Option<&str> {
        let tables = self.tables();
        tables.iter().enumerate().find_map(|(i, t)| {
            let b = t.binding();
            tables[..i]
                .iter()
                .any(|e| e.binding().eq_ignore_ascii_case(b))
                .then_some(b)
        })
    }
}

/// A full SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub items: Vec<SelectItem>,
    pub from: FromClause,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub limit: Option<u64>,
    /// Optimizer hints rendered as a `/*+ ... */` comment after SELECT.
    pub hints: Vec<crate::hints::Hint>,
}

impl SelectStmt {
    pub fn new(from: FromClause) -> Self {
        SelectStmt {
            distinct: false,
            items: vec![SelectItem::Wildcard],
            from,
            where_clause: None,
            group_by: Vec::new(),
            limit: None,
            hints: Vec::new(),
        }
    }

    /// Number of tables referenced in the FROM clause (not subqueries).
    pub fn table_count(&self) -> usize {
        1 + self.from.joins.len()
    }

    pub fn has_aggregates(&self) -> bool {
        self.items.iter().any(SelectItem::is_aggregate)
    }

    /// Does the statement group its rows (aggregates or a GROUP BY)?
    pub fn is_grouped(&self) -> bool {
        self.has_aggregates() || !self.group_by.is_empty()
    }

    /// The statement's expressions, in this fixed order: select items
    /// (an aggregate's argument included), ON conditions in FROM order,
    /// WHERE, GROUP BY. Subqueries are not entered. Every walk over a whole
    /// statement starts here, so none of them can miss a clause.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        (self.items.iter().filter_map(SelectItem::expr))
            .chain(self.from.joins.iter().filter_map(|j| j.on.as_ref()))
            .chain(&self.where_clause)
            .chain(&self.group_by)
    }

    /// Join types used, in FROM order.
    #[cfg(test)]
    pub(crate) fn join_types(&self) -> Vec<JoinType> {
        self.from.joins.iter().map(|j| j.join_type).collect()
    }

    /// For a *single-table* subquery: the columns of the enclosing row its
    /// select items and WHERE read, each once, in first-occurrence order —
    /// empty when the subquery is uncorrelated. A reference is the
    /// subquery's own (the inner scope shadows the outer one) when it is
    /// bare or qualified with the subquery's binding *and* `has_own_column`
    /// knows the column; anything else resolves in the outer row. Together
    /// with the node itself these values decide everything the subquery
    /// returns, which is what lets an evaluator run it once per distinct
    /// binding instead of once per outer row. `None` when an expression
    /// carries a nested subquery, whose references this walk cannot see.
    pub fn outer_column_refs(
        &self,
        has_own_column: &dyn Fn(&str) -> bool,
    ) -> Option<Vec<&ColumnRef>> {
        let binding = self.from.base.binding();
        let own = |c: &ColumnRef| {
            c.table
                .as_ref()
                .map_or(true, |q| q.eq_ignore_ascii_case(binding))
                && has_own_column(&c.column)
        };
        let exprs = (self.items.iter().filter_map(SelectItem::expr)).chain(&self.where_clause);
        let mut outer: Vec<&ColumnRef> = Vec::new();
        for e in exprs {
            if e.has_subquery() {
                return None;
            }
            for c in e.column_refs() {
                let seen = |o: &&ColumnRef| {
                    o.column.eq_ignore_ascii_case(&c.column)
                        && match (&o.table, &c.table) {
                            (Some(a), Some(b)) => a.eq_ignore_ascii_case(b),
                            (None, None) => true,
                            _ => false,
                        }
                };
                if !own(c) && !outer.iter().any(seen) {
                    outer.push(c);
                }
            }
        }
        Some(outer)
    }

    /// Every column reference reachable from this statement — its
    /// [`exprs`](Self::exprs) and, recursively, subqueries. The executor's
    /// column pruning keeps exactly these.
    pub fn collect_column_refs_deep<'a>(&'a self, out: &mut Vec<&'a ColumnRef>) {
        for e in self.exprs() {
            e.collect_column_refs_deep(out);
        }
    }

    /// The tables this statement reads: those its FROM clause names and,
    /// recursively, those its subqueries' FROM clauses name.
    pub fn tables_read(&self) -> Vec<&str> {
        let mut tables = Vec::new();
        let mut stmts = vec![self];
        while let Some(stmt) = stmts.pop() {
            tables.extend(stmt.from.tables().into_iter().map(|t| t.table.as_str()));
            for e in stmt.exprs() {
                e.collect_subqueries(&mut stmts);
            }
        }
        tables
    }

    /// Does this query contain any subquery (IN/EXISTS) in any clause?
    pub fn has_subquery(&self) -> bool {
        self.exprs().any(Expr::has_subquery)
    }
}

/// One `SET column = expr` assignment in an UPDATE statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    pub column: String,
    pub value: Expr,
}

/// `INSERT INTO table (cols...) VALUES (row...), (row...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStmt {
    pub table: String,
    /// Column names in VALUES order. Always explicit — the generator lists
    /// every column so the statement survives schema evolution in logs.
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Expr>>,
}

/// `UPDATE table SET a = e1, b = e2 [WHERE pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStmt {
    pub table: String,
    pub set: Vec<Assignment>,
    pub where_clause: Option<Expr>,
}

/// `DELETE FROM table [WHERE pred]`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStmt {
    pub table: String,
    pub where_clause: Option<Expr>,
}

/// A single DML or transaction-control statement. Mutation workloads are
/// sequences (`programs`) of these, separated by `;` in text form.
#[derive(Debug, Clone, PartialEq)]
pub enum DmlStmt {
    Insert(InsertStmt),
    Update(UpdateStmt),
    Delete(DeleteStmt),
    Begin,
    Commit,
    Rollback,
}

impl DmlStmt {
    /// The base table this statement mutates, if any (transaction control
    /// statements touch no table).
    pub fn table(&self) -> Option<&str> {
        match self {
            DmlStmt::Insert(i) => Some(&i.table),
            DmlStmt::Update(u) => Some(&u.table),
            DmlStmt::Delete(d) => Some(&d.table),
            DmlStmt::Begin | DmlStmt::Commit | DmlStmt::Rollback => None,
        }
    }

    pub fn is_txn_control(&self) -> bool {
        matches!(self, DmlStmt::Begin | DmlStmt::Commit | DmlStmt::Rollback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> SelectStmt {
        let mut from = FromClause::single("t1");
        from.joins.push(Join {
            join_type: JoinType::Inner,
            table: TableRef::new("t3"),
            on: Some(Expr::eq(
                Expr::col("t1", "goodsId"),
                Expr::col("t3", "goodsId"),
            )),
        });
        from.joins.push(Join {
            join_type: JoinType::Anti,
            table: TableRef::new("t4"),
            on: Some(Expr::eq(
                Expr::col("t3", "goodsName"),
                Expr::col("t4", "goodsName"),
            )),
        });
        let mut q = SelectStmt::new(from);
        q.items = vec![SelectItem::column("t1", "userId")];
        q.where_clause = Some(Expr::eq(
            Expr::col("t3", "goodsName"),
            Expr::lit(Value::str("flower")),
        ));
        q
    }

    #[test]
    fn table_count_and_join_types() {
        let q = sample_query();
        assert_eq!(q.table_count(), 3);
        assert_eq!(q.join_types(), vec![JoinType::Inner, JoinType::Anti]);
        assert!(!q.has_subquery());
        assert!(!q.has_aggregates());
    }

    #[test]
    fn column_refs_collected() {
        let e = Expr::and(
            Expr::eq(Expr::col("t1", "a"), Expr::col("t2", "b")),
            Expr::is_null(Expr::col("t1", "c")),
        );
        let refs: Vec<String> = e.column_refs().iter().map(|c| c.column.clone()).collect();
        assert_eq!(refs, vec!["a", "b", "c"]);
    }

    #[test]
    fn conjunction_builder() {
        assert!(Expr::conjunction(vec![]).is_none());
        let c = Expr::conjunction(vec![
            Expr::lit(Value::Int(1)),
            Expr::lit(Value::Int(2)),
            Expr::lit(Value::Int(3)),
        ])
        .unwrap();
        assert_eq!(c.conjuncts().len(), 3);
    }

    #[test]
    fn conjuncts_split_nested_ands_left_to_right_and_keep_an_or_whole() {
        let lit = |i| Expr::lit(Value::Int(i));
        let or = Expr::or(lit(3), lit(4));
        let e = Expr::and(Expr::and(lit(1), Expr::and(lit(2), or.clone())), lit(5));
        assert_eq!(e.conjuncts(), vec![&lit(1), &lit(2), &or, &lit(5)]);
        assert_eq!(or.conjuncts(), vec![&or]);
    }

    #[test]
    fn subquery_detection() {
        let sub = sample_query();
        let e = Expr::InSubquery {
            expr: Box::new(Expr::col("t1", "userId")),
            subquery: Box::new(sub),
            negated: true,
        };
        assert!(e.has_subquery());
        let mut q = sample_query();
        q.where_clause = Some(e);
        assert!(q.has_subquery());
    }

    /// The subquery of `SELECT … WHERE <column> IN (<subquery>)`, classified
    /// against a table with columns `id` and `name`.
    fn outer_refs_of(subquery: &str) -> Option<Vec<String>> {
        let stmt =
            crate::parser::parse_stmt(&format!("SELECT t1.id FROM t1 WHERE t1.id IN ({subquery})"))
                .unwrap();
        let Some(Expr::InSubquery { subquery, .. }) = &stmt.where_clause else {
            panic!("not an IN predicate");
        };
        let own = |c: &str| ["id", "name"].iter().any(|o| o.eq_ignore_ascii_case(c));
        subquery.outer_column_refs(&own).map(|refs| {
            refs.iter()
                .map(|c| match &c.table {
                    Some(t) => format!("{t}.{}", c.column),
                    None => c.column.clone(),
                })
                .collect()
        })
    }

    #[test]
    fn outer_column_refs_tell_own_columns_from_the_enclosing_row() {
        let none: Option<Vec<String>> = Some(Vec::new());
        // Qualified with the subquery's binding (table name or alias), or
        // bare and a column of its table: the subquery's own.
        assert_eq!(
            outer_refs_of("SELECT t2.id FROM t2 WHERE T2.name = 'a'"),
            none
        );
        assert_eq!(
            outer_refs_of("SELECT x.id FROM t2 AS x WHERE X.name = 'a'"),
            none
        );
        assert_eq!(outer_refs_of("SELECT id FROM t2 WHERE NAME = 'a'"), none);
        // The enclosing statement also reads t2: the inner scope shadows it.
        let stmt =
            crate::parser::parse_stmt("SELECT t2.id FROM t2 WHERE t2.id IN (SELECT t2.id FROM t2)")
                .unwrap();
        let Some(Expr::InSubquery { subquery, .. }) = &stmt.where_clause else {
            panic!("not an IN predicate");
        };
        assert_eq!(subquery.outer_column_refs(&|c| c == "id"), Some(vec![]));
        // A bare column the table lacks, another binding, and the subquery's
        // binding on a column it lacks all resolve in the outer row; each is
        // listed once, in first-occurrence order, select item first.
        assert_eq!(
            outer_refs_of(
                "SELECT price FROM t2 WHERE t2.id = t1.id AND T1.ID > t2.price AND price = 1"
            ),
            Some(vec!["price".to_string(), "t1.id".into(), "t2.price".into()])
        );
        // An aliased table no longer answers to its own name.
        assert_eq!(
            outer_refs_of("SELECT x.id FROM t2 AS x WHERE t2.id = 1"),
            Some(vec!["t2.id".to_string()])
        );
        // A wildcard item names no column.
        assert_eq!(
            outer_refs_of("SELECT * FROM t2 WHERE t2.id = t1.id"),
            Some(vec!["t1.id".to_string()])
        );
        // A nested subquery hides its references: not classified.
        assert_eq!(
            outer_refs_of("SELECT t2.id FROM t2 WHERE t2.id IN (SELECT t3.id FROM t3)"),
            None
        );
        assert_eq!(
            outer_refs_of("SELECT t2.id FROM t2 WHERE NOT EXISTS (SELECT t3.id FROM t3)"),
            None
        );
    }

    /// `table.column` of each reference, in walk order.
    fn names(refs: &[&ColumnRef]) -> Vec<String> {
        refs.iter()
            .map(|c| format!("{}.{}", c.table.as_deref().unwrap_or(""), c.column))
            .collect()
    }

    /// Every walk keeps one order, which plan-graph fingerprints (and with
    /// them class keys) and `outer_column_refs` depend on: the clauses as
    /// [`SelectStmt::exprs`] lists them, `Binary` left before right,
    /// `Between` expr / low / high, `InList` expr before the list, and an
    /// `InSubquery`'s expr before its subquery.
    #[test]
    fn walks_keep_one_order_over_every_expr_variant() {
        let stmt = crate::parser::parse_stmt(
            "SELECT t1.a, SUM(t1.b + 1) AS s \
             FROM t1 LEFT OUTER JOIN t2 ON t1.c = t2.c AND t2.d IS NOT NULL \
             WHERE NOT t1.e BETWEEN t2.f AND -t1.g \
             OR CAST(t1.h AS bigint(64)) IN (t2.i, 1, t1.j) \
             OR (t1.k IN (SELECT t3.x FROM t3 WHERE t3.y = t1.l)) IN \
                (SELECT t4.z FROM t4 WHERE EXISTS (SELECT t5.w FROM t5 WHERE t5.w = t4.z)) \
             OR NOT EXISTS (SELECT t6.v FROM t6 WHERE t6.v = t1.m) \
             GROUP BY t1.a, t2.n",
        )
        .unwrap();
        let w = stmt.where_clause.as_ref().unwrap();
        assert_eq!(
            names(&w.column_refs()),
            ["t1.e", "t2.f", "t1.g", "t1.h", "t2.i", "t1.j", "t1.k"]
        );
        let mut deep = Vec::new();
        stmt.collect_column_refs_deep(&mut deep);
        assert_eq!(
            names(&deep),
            [
                "t1.a", "t1.b", "t1.c", "t2.c", "t2.d", "t1.e", "t2.f", "t1.g", "t1.h", "t2.i",
                "t1.j", "t1.k", "t3.x", "t3.y", "t1.l", "t4.z", "t5.w", "t5.w", "t4.z", "t6.v",
                "t6.v", "t1.m", "t1.a", "t2.n"
            ]
        );
        let mut subqueries = Vec::new();
        w.collect_subqueries(&mut subqueries);
        let bases: Vec<&str> = subqueries
            .iter()
            .map(|s| s.from.base.table.as_str())
            .collect();
        assert_eq!(bases, ["t3", "t4", "t6"]);
        assert_eq!(stmt.tables_read(), ["t1", "t2", "t6", "t4", "t5", "t3"]);
    }

    #[test]
    fn a_subquery_in_any_clause_is_found() {
        let select_item = "SELECT t1.a IN (SELECT t2.a FROM t2) AS x FROM t1";
        let on = "SELECT t1.a FROM t1 JOIN t2 ON t1.a IN (SELECT t3.a FROM t3)";
        let group_by = "SELECT t1.a FROM t1 GROUP BY EXISTS (SELECT t2.a FROM t2)";
        for sql in [select_item, on, group_by] {
            assert!(
                crate::parser::parse_stmt(sql).unwrap().has_subquery(),
                "{sql}"
            );
        }
        let aggregate = "SELECT COUNT(t1.a IN (SELECT t2.a FROM t2)) AS n FROM t1";
        assert!(crate::parser::parse_stmt(aggregate).unwrap().has_subquery());
        assert!(!sample_query().has_subquery());
    }

    #[test]
    fn join_type_metadata() {
        assert_eq!(JoinType::ALL.len(), 7);
        assert_eq!(JoinType::Semi.graph_label(), "semi join");
    }
}
