//! Rendering of AST nodes back into SQL text.
//!
//! The generated workload is produced as ASTs (Figure 5 of the paper); the
//! renderer turns them into SQL strings so that transformed queries can be
//! logged in bug reports exactly the way the paper's listings show them, and
//! so the parser can round-trip them.

use crate::ast::*;
use crate::value::Value;

/// Render a full statement, including the hint comment right after SELECT.
pub fn render_stmt(stmt: &SelectStmt) -> String {
    let mut s = String::with_capacity(128);
    render_stmt_into(stmt, &mut s);
    s
}

fn render_stmt_into(stmt: &SelectStmt, out: &mut String) {
    out.push_str("SELECT ");
    if !stmt.hints.is_empty() {
        let rendered: Vec<String> = stmt.hints.iter().map(|h| h.to_string()).collect();
        out.push_str("/*+ ");
        out.push_str(&rendered.join(" "));
        out.push_str(" */ ");
    }
    if stmt.distinct {
        out.push_str("DISTINCT ");
    }
    let items: Vec<String> = stmt.items.iter().map(render_item).collect();
    out.push_str(&items.join(", "));
    out.push_str(" FROM ");
    out.push_str(&render_table_ref(&stmt.from.base));
    for j in &stmt.from.joins {
        out.push(' ');
        out.push_str(j.join_type.sql());
        out.push(' ');
        out.push_str(&render_table_ref(&j.table));
        if let Some(on) = &j.on {
            out.push_str(" ON ");
            out.push_str(&render_expr(on));
        }
    }
    if let Some(w) = &stmt.where_clause {
        out.push_str(" WHERE ");
        out.push_str(&render_expr(w));
    }
    if !stmt.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        let g: Vec<String> = stmt.group_by.iter().map(render_expr).collect();
        out.push_str(&g.join(", "));
    }
    if let Some(h) = &stmt.having {
        out.push_str(" HAVING ");
        out.push_str(&render_expr(h));
    }
    if !stmt.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        let o: Vec<String> = stmt
            .order_by
            .iter()
            .map(|ob| {
                format!(
                    "{}{}",
                    render_expr(&ob.expr),
                    if ob.asc { "" } else { " DESC" }
                )
            })
            .collect();
        out.push_str(&o.join(", "));
    }
    if let Some(l) = stmt.limit {
        out.push_str(&format!(" LIMIT {l}"));
    }
}

/// Render a single DML / transaction-control statement.
pub fn render_dml(stmt: &DmlStmt) -> String {
    match stmt {
        DmlStmt::Begin => "BEGIN".to_string(),
        DmlStmt::Commit => "COMMIT".to_string(),
        DmlStmt::Rollback => "ROLLBACK".to_string(),
        DmlStmt::Insert(i) => {
            let rows: Vec<String> = i
                .rows
                .iter()
                .map(|row| {
                    let vals: Vec<String> = row.iter().map(render_expr).collect();
                    format!("({})", vals.join(", "))
                })
                .collect();
            format!(
                "INSERT INTO {} ({}) VALUES {}",
                i.table,
                i.columns.join(", "),
                rows.join(", ")
            )
        }
        DmlStmt::Update(u) => {
            let sets: Vec<String> = u
                .set
                .iter()
                .map(|a| format!("{} = {}", a.column, render_expr(&a.value)))
                .collect();
            let mut s = format!("UPDATE {} SET {}", u.table, sets.join(", "));
            if let Some(w) = &u.where_clause {
                s.push_str(" WHERE ");
                s.push_str(&render_expr(w));
            }
            s
        }
        DmlStmt::Delete(d) => {
            let mut s = format!("DELETE FROM {}", d.table);
            if let Some(w) = &d.where_clause {
                s.push_str(" WHERE ");
                s.push_str(&render_expr(w));
            }
            s
        }
    }
}

/// Render a DML program — statements joined by `; `, the form bug reports
/// store and [`crate::parser::parse_program`] round-trips.
pub fn render_program(stmts: &[DmlStmt]) -> String {
    let parts: Vec<String> = stmts.iter().map(render_dml).collect();
    parts.join("; ")
}

fn render_item(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".to_string(),
        SelectItem::Expr { expr, alias } => match alias {
            Some(a) => format!("{} AS {a}", render_expr(expr)),
            None => render_expr(expr),
        },
        SelectItem::Aggregate { func, arg, alias } => {
            let inner = match (func, arg) {
                (AggFunc::CountStar, _) => "*".to_string(),
                (_, Some(e)) => render_expr(e),
                (_, None) => "*".to_string(),
            };
            let base = format!("{}({})", func.sql(), inner);
            match alias {
                Some(a) => format!("{base} AS {a}"),
                None => base,
            }
        }
    }
}

fn render_table_ref(t: &TableRef) -> String {
    match &t.alias {
        Some(a) => format!("{} AS {a}", t.table),
        None => t.table.clone(),
    }
}

/// Render an expression with minimal but unambiguous parenthesization.
pub(crate) fn render_expr(e: &Expr) -> String {
    render_expr_prec(e, 0)
}

fn prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq
        | BinOp::NullSafeEq
        | BinOp::Ne
        | BinOp::Lt
        | BinOp::Le
        | BinOp::Gt
        | BinOp::Ge => 3,
        BinOp::Add | BinOp::Sub => 4,
        BinOp::Mul | BinOp::Div => 5,
    }
}

fn render_expr_prec(e: &Expr, parent: u8) -> String {
    match e {
        Expr::Column(c) => match &c.table {
            Some(t) => format!("{t}.{}", c.column),
            None => c.column.clone(),
        },
        Expr::Literal(v) => render_value(v),
        Expr::Binary { op, left, right } => {
            let p = prec(*op);
            let s = format!(
                "{} {} {}",
                render_expr_prec(left, p),
                op.sql(),
                render_expr_prec(right, p + 1)
            );
            if p < parent {
                format!("({s})")
            } else {
                s
            }
        }
        Expr::Unary { op, expr } => match op {
            UnOp::Not => format!("NOT ({})", render_expr_prec(expr, 0)),
            UnOp::Neg => format!("-({})", render_expr_prec(expr, 0)),
        },
        Expr::IsNull { expr, negated } => wrap_if_nested(
            format!(
                "{} IS{} NULL",
                render_expr_prec(expr, 6),
                if *negated { " NOT" } else { "" }
            ),
            parent,
        ),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => wrap_if_nested(
            format!(
                "{}{} BETWEEN {} AND {}",
                render_expr_prec(expr, 6),
                if *negated { " NOT" } else { "" },
                render_expr_prec(low, 6),
                render_expr_prec(high, 6)
            ),
            parent,
        ),
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let items: Vec<String> = list.iter().map(|e| render_expr_prec(e, 0)).collect();
            wrap_if_nested(
                format!(
                    "{}{} IN ({})",
                    render_expr_prec(expr, 6),
                    if *negated { " NOT" } else { "" },
                    items.join(", ")
                ),
                parent,
            )
        }
        Expr::InSubquery {
            expr,
            subquery,
            negated,
        } => wrap_if_nested(
            format!(
                "{}{} IN ({})",
                render_expr_prec(expr, 6),
                if *negated { " NOT" } else { "" },
                render_stmt(subquery)
            ),
            parent,
        ),
        Expr::Exists { subquery, negated } => wrap_if_nested(
            format!(
                "{}EXISTS ({})",
                if *negated { "NOT " } else { "" },
                render_stmt(subquery)
            ),
            parent,
        ),
        Expr::Cast { expr, ty } => format!("CAST({} AS {})", render_expr_prec(expr, 0), ty),
    }
}

/// IN / BETWEEN / IS NULL / EXISTS bind loosely; whenever they appear as an
/// operand of another operator (parent > AND precedence is not enough — any
/// comparison or boolean context), parenthesize so the text re-parses to the
/// same tree.
fn wrap_if_nested(s: String, parent: u8) -> String {
    if parent > 0 {
        format!("({s})")
    } else {
        s
    }
}

fn render_value(v: &Value) -> String {
    match v {
        // DATE literal rendering differs from the Display impl used in logs.
        Value::Date(d) => format!("DATE '{d}'"),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hints::Hint;

    fn shopping_query() -> SelectStmt {
        let mut from = FromClause::single("T3");
        from.joins.push(Join {
            join_type: JoinType::Inner,
            table: TableRef::new("T4"),
            on: Some(Expr::eq(
                Expr::col("T3", "goodsName"),
                Expr::col("T4", "goodsName"),
            )),
        });
        let mut q = SelectStmt::new(from);
        q.items = vec![SelectItem::column("T4", "price")];
        q.where_clause = Some(Expr::eq(
            Expr::col("T3", "goodsName"),
            Expr::lit(Value::str("flower")),
        ));
        q
    }

    #[test]
    fn renders_example_3_5_style_query() {
        let sql = render_stmt(&shopping_query());
        assert_eq!(
            sql,
            "SELECT T4.price FROM T3 INNER JOIN T4 ON T3.goodsName = T4.goodsName \
             WHERE T3.goodsName = 'flower'"
        );
    }

    #[test]
    fn renders_hint_comment_after_select() {
        let mut q = shopping_query();
        q.hints.push(Hint::HashJoin(vec!["T3".into(), "T4".into()]));
        let sql = render_stmt(&q);
        assert!(sql.starts_with("SELECT /*+ HASH_JOIN(T3, T4) */ T4.price"));
    }

    #[test]
    fn renders_in_subquery_and_not_in() {
        let sub = shopping_query();
        let e = Expr::InSubquery {
            expr: Box::new(Expr::col("t0", "c0")),
            subquery: Box::new(sub),
            negated: true,
        };
        let s = render_expr(&e);
        assert!(s.starts_with("t0.c0 NOT IN (SELECT "));
    }

    #[test]
    fn parenthesizes_or_under_and() {
        let e = Expr::and(
            Expr::or(Expr::col("a", "x"), Expr::col("a", "y")),
            Expr::col("a", "z"),
        );
        assert_eq!(render_expr(&e), "(a.x OR a.y) AND a.z");
    }

    #[test]
    fn renders_group_by_order_by_limit() {
        let mut q = shopping_query();
        q.items = vec![SelectItem::Aggregate {
            func: AggFunc::CountStar,
            arg: None,
            alias: Some("cnt".into()),
        }];
        q.group_by = vec![Expr::col("T4", "price")];
        q.order_by = vec![OrderBy {
            expr: Expr::col("T4", "price"),
            asc: false,
        }];
        q.limit = Some(10);
        let sql = render_stmt(&q);
        assert!(sql.contains("COUNT(*) AS cnt"));
        assert!(sql.contains("GROUP BY T4.price"));
        assert!(sql.contains("ORDER BY T4.price DESC"));
        assert!(sql.ends_with("LIMIT 10"));
    }

    #[test]
    fn renders_distinct_and_aliases() {
        let mut q = shopping_query();
        q.distinct = true;
        q.from.base.alias = Some("g".into());
        let sql = render_stmt(&q);
        assert!(sql.contains("SELECT DISTINCT"));
        assert!(sql.contains("FROM T3 AS g"));
    }
}
