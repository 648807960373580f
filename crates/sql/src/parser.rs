//! A recursive-descent parser for the SQL dialect emitted by [`crate::render`].
//!
//! Transformed queries are shipped around as SQL text (bug reports, the
//! reducer, the engine's text entry point), so the parser must round-trip
//! everything the renderer can produce: SELECT with hint comments, the seven
//! join types, IN / NOT IN / EXISTS subqueries, GROUP BY / LIMIT, CAST,
//! BETWEEN and the literal forms of every [`Value`] variant. HAVING and ORDER
//! BY stay reserved words but are refused with a [`ParseError`]: no executor
//! and no ground truth evaluates them, so a statement carrying one could only
//! be checked with the clause silently dropped on both sides.
//! Text from outside (a damaged corpus line) can be anything, so expressions
//! nested past a fixed depth are a [`ParseError`], not a stack overflow, and
//! the lexer reads by `char`: string literals keep any UTF-8 text, and a
//! character that starts no token is a [`ParseError`].

use crate::ast::*;
use crate::hints::{Hint, SemiJoinStrategy};
use crate::types::ColumnType;
use crate::value::{Decimal, Value};
use std::fmt;

/// Parser errors, with byte offset of the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(String),
    Str(String),
    Symbol(String),
    HintComment(String),
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer { src, pos: 0 }
    }

    fn tokens(mut self) -> Result<Vec<(Tok, usize)>, ParseError> {
        let mut out = Vec::new();
        loop {
            self.skip_ws();
            let start = self.pos;
            let b = self.src.as_bytes();
            let Some(c) = self.src[self.pos..].chars().next() else {
                out.push((Tok::Eof, start));
                return Ok(out);
            };
            let tok = if c == '/' && self.src[self.pos..].starts_with("/*+") {
                let end = self.src[self.pos..]
                    .find("*/")
                    .map(|i| self.pos + i + 2)
                    .ok_or_else(|| ParseError {
                        message: "unterminated hint comment".into(),
                        offset: start,
                    })?;
                let inner = self.src[self.pos + 3..end - 2].trim().to_string();
                self.pos = end;
                Tok::HintComment(inner)
            } else if c == '\'' {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    let Some(ch) = self.src[self.pos..].chars().next() else {
                        return Err(ParseError {
                            message: "unterminated string literal".into(),
                            offset: start,
                        });
                    };
                    if ch == '\'' {
                        if b.get(self.pos + 1) == Some(&b'\'') {
                            s.push('\'');
                            self.pos += 2;
                        } else {
                            self.pos += 1;
                            break;
                        }
                    } else {
                        s.push(ch);
                        self.pos += ch.len_utf8();
                    }
                }
                Tok::Str(s)
            } else if c.is_ascii_digit()
                || (c == '.' && self.peek_digit(1))
                || (c == '-' && self.peek_digit(1) && self.numeric_context(&out))
            {
                let mut end = self.pos + 1;
                while end < b.len() {
                    let ch = b[end] as char;
                    let exponent_sign =
                        (ch == '-' || ch == '+') && matches!(b[end - 1] as char, 'e' | 'E');
                    if ch.is_ascii_digit() || ch == '.' || ch == 'e' || ch == 'E' || exponent_sign {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let s = self.src[self.pos..end].to_string();
                self.pos = end;
                Tok::Number(s)
            } else if c.is_ascii_alphabetic() || c == '_' {
                let mut end = self.pos + 1;
                while end < b.len() {
                    let ch = b[end] as char;
                    if ch.is_ascii_alphanumeric() || ch == '_' {
                        end += 1;
                    } else {
                        break;
                    }
                }
                let s = self.src[self.pos..end].to_string();
                self.pos = end;
                Tok::Ident(s)
            } else if c.is_ascii_punctuation() {
                // multi-char operators first
                let rest = &self.src[self.pos..];
                let sym = ["<=>", "<>", "<=", ">=", "!="]
                    .iter()
                    .find(|s| rest.starts_with(**s))
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| c.to_string());
                self.pos += sym.len();
                Tok::Symbol(sym)
            } else {
                return Err(ParseError {
                    message: format!("unexpected character {c:?}"),
                    offset: start,
                });
            };
            out.push((tok, start));
        }
    }

    fn peek_digit(&self, ahead: usize) -> bool {
        self.src
            .as_bytes()
            .get(self.pos + ahead)
            .map(|b| (*b as char).is_ascii_digit())
            .unwrap_or(false)
    }

    /// A leading '-' is part of a number only when the previous token cannot
    /// end an operand (so `a - 1` lexes as minus but `(-1)` as a literal).
    fn numeric_context(&self, out: &[(Tok, usize)]) -> bool {
        match out.last() {
            None => true,
            Some((Tok::Symbol(s), _)) => s != ")" && s != "*",
            Some((Tok::Ident(id), _)) => {
                let k = id.to_ascii_uppercase();
                matches!(
                    k.as_str(),
                    "SELECT" | "WHERE" | "AND" | "OR" | "NOT" | "ON" | "IN" | "BETWEEN" | "THEN"
                )
            }
            _ => false,
        }
    }

    fn skip_ws(&mut self) {
        let rest = &self.src[self.pos..];
        self.pos += rest.len() - rest.trim_start().len();
    }
}

/// Parse a complete SELECT statement.
pub fn parse_stmt(sql: &str) -> Result<SelectStmt, ParseError> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_select()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a single DML or transaction-control statement (trailing `;` ok).
pub fn parse_dml(sql: &str) -> Result<DmlStmt, ParseError> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_dml_stmt()?;
    while p.eat_symbol(";") {}
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated sequence of DML / transaction statements — the unit
/// mutation workloads are logged and replayed as. The split happens at the
/// token level, so `;` inside string literals is handled correctly.
pub fn parse_program(sql: &str) -> Result<Vec<DmlStmt>, ParseError> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat_symbol(";") {}
        if matches!(p.peek(), Tok::Eof) {
            break;
        }
        out.push(p.parse_dml_stmt()?);
        if !matches!(p.peek(), Tok::Eof) {
            p.expect_symbol(";")?;
        }
    }
    Ok(out)
}

/// Parse a standalone expression.
#[cfg(test)]
pub(crate) fn parse_expr(sql: &str) -> Result<Expr, ParseError> {
    let mut p = Parser::new(sql)?;
    let e = p.parse_or()?;
    p.expect_eof()?;
    Ok(e)
}

/// How many expression frames ([`Parser::nested`]) the parser holds open at
/// once before it gives up with a [`ParseError`]. Every recursive path of the
/// grammar — parentheses, `NOT` and unary minus chains, `CAST`, `IN` lists and
/// subqueries — passes through `parse_not` or `parse_unary`, and each of them
/// is one frame, so a parenthesized level takes two. Without the bound a
/// damaged statement of `((((…` would overflow the stack and abort the
/// process; nothing the generator or the reducer writes comes near it.
const MAX_DEPTH: usize = 256;

struct Parser {
    toks: Vec<(Tok, usize)>,
    idx: usize,
    /// Expression frames open around `idx`.
    depth: usize,
}

impl Parser {
    fn new(sql: &str) -> Result<Parser, ParseError> {
        Ok(Parser {
            toks: Lexer::new(sql).tokens()?,
            idx: 0,
            depth: 0,
        })
    }
    /// Run `parse` one expression frame deeper, or fail past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        if self.depth == MAX_DEPTH {
            return self.err(format!("expression nested deeper than {MAX_DEPTH} levels"));
        }
        self.depth += 1;
        let e = parse(self);
        self.depth -= 1;
        e
    }
    fn peek(&self) -> &Tok {
        &self.toks[self.idx].0
    }
    fn offset(&self) -> usize {
        self.toks[self.idx].1
    }
    fn bump(&mut self) -> Tok {
        let t = self.toks[self.idx].0.clone();
        if self.idx + 1 < self.toks.len() {
            self.idx += 1;
        }
        t
    }
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: msg.into(),
            offset: self.offset(),
        })
    }
    fn expect_eof(&self) -> Result<(), ParseError> {
        if matches!(self.peek(), Tok::Eof) {
            Ok(())
        } else {
            self.err(format!("trailing input: {:?}", self.peek()))
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }
    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}, found {:?}", self.peek()))
        }
    }
    fn at_symbol(&self, s: &str) -> bool {
        matches!(self.peek(), Tok::Symbol(x) if x == s)
    }
    fn eat_symbol(&mut self, s: &str) -> bool {
        if self.at_symbol(s) {
            self.bump();
            true
        } else {
            false
        }
    }
    fn expect_symbol(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            self.err(format!("expected `{s}`, found {:?}", self.peek()))
        }
    }
    fn ident(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Tok::Ident(s) => Ok(s),
            other => self.err(format!("expected identifier, found {other:?}")),
        }
    }

    fn parse_dml_stmt(&mut self) -> Result<DmlStmt, ParseError> {
        if self.eat_keyword("BEGIN") {
            return Ok(DmlStmt::Begin);
        }
        if self.eat_keyword("COMMIT") {
            return Ok(DmlStmt::Commit);
        }
        if self.eat_keyword("ROLLBACK") {
            return Ok(DmlStmt::Rollback);
        }
        if self.eat_keyword("INSERT") {
            return self.parse_insert();
        }
        if self.eat_keyword("UPDATE") {
            return self.parse_update();
        }
        if self.eat_keyword("DELETE") {
            return self.parse_delete();
        }
        self.err(format!("expected DML statement, found {:?}", self.peek()))
    }

    fn parse_insert(&mut self) -> Result<DmlStmt, ParseError> {
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        self.expect_symbol("(")?;
        let mut columns = vec![self.ident()?];
        while self.eat_symbol(",") {
            columns.push(self.ident()?);
        }
        self.expect_symbol(")")?;
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect_symbol("(")?;
            let mut row = vec![self.parse_or()?];
            while self.eat_symbol(",") {
                row.push(self.parse_or()?);
            }
            self.expect_symbol(")")?;
            if row.len() != columns.len() {
                return self.err(format!(
                    "INSERT row has {} values for {} columns",
                    row.len(),
                    columns.len()
                ));
            }
            rows.push(row);
            if !self.eat_symbol(",") {
                break;
            }
        }
        Ok(DmlStmt::Insert(InsertStmt {
            table,
            columns,
            rows,
        }))
    }

    fn parse_update(&mut self) -> Result<DmlStmt, ParseError> {
        let table = self.ident()?;
        self.expect_keyword("SET")?;
        let mut set = Vec::new();
        loop {
            let column = self.ident()?;
            self.expect_symbol("=")?;
            let value = self.parse_or()?;
            set.push(Assignment { column, value });
            if !self.eat_symbol(",") {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_or()?)
        } else {
            None
        };
        Ok(DmlStmt::Update(UpdateStmt {
            table,
            set,
            where_clause,
        }))
    }

    fn parse_delete(&mut self) -> Result<DmlStmt, ParseError> {
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_or()?)
        } else {
            None
        };
        Ok(DmlStmt::Delete(DeleteStmt {
            table,
            where_clause,
        }))
    }

    fn parse_select(&mut self) -> Result<SelectStmt, ParseError> {
        self.expect_keyword("SELECT")?;
        let mut hints = Vec::new();
        if let Tok::HintComment(h) = self.peek().clone() {
            self.bump();
            hints = parse_hints(&h).map_err(|m| ParseError {
                message: m,
                offset: self.offset(),
            })?;
        }
        let distinct = self.eat_keyword("DISTINCT");
        // `SELECT ALL` is a no-op modifier used in one of the paper's listings.
        let _ = self.eat_keyword("ALL");
        let mut items = vec![self.parse_select_item()?];
        while self.eat_symbol(",") {
            items.push(self.parse_select_item()?);
        }
        self.expect_keyword("FROM")?;
        let base = self.parse_table_ref()?;
        let mut joins = Vec::new();
        while let Some(jt) = self.peek_join_type() {
            self.consume_join_type(jt)?;
            let table = self.parse_table_ref()?;
            let on = if self.eat_keyword("ON") {
                Some(self.parse_or()?)
            } else {
                None
            };
            joins.push(Join {
                join_type: jt,
                table,
                on,
            });
        }
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_or()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_keyword("GROUP") {
            self.expect_keyword("BY")?;
            group_by.push(self.parse_or()?);
            while self.eat_symbol(",") {
                group_by.push(self.parse_or()?);
            }
        }
        for (keyword, clause) in [("HAVING", "HAVING"), ("ORDER", "ORDER BY")] {
            if self.at_keyword(keyword) {
                return self.err(format!("{clause} is not supported: nothing evaluates it"));
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.bump() {
                Tok::Number(n) => Some(n.parse::<u64>().map_err(|_| ParseError {
                    message: format!("bad LIMIT value {n}"),
                    offset: self.offset(),
                })?),
                other => return self.err(format!("expected LIMIT count, found {other:?}")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from: FromClause { base, joins },
            where_clause,
            group_by,
            limit,
            hints,
        })
    }

    fn peek_join_type(&self) -> Option<JoinType> {
        let kw = match self.peek() {
            Tok::Ident(s) => s.to_ascii_uppercase(),
            _ => return None,
        };
        match kw.as_str() {
            "INNER" | "JOIN" => Some(JoinType::Inner),
            "LEFT" => Some(JoinType::LeftOuter),
            "RIGHT" => Some(JoinType::RightOuter),
            "FULL" => Some(JoinType::FullOuter),
            "CROSS" => Some(JoinType::Cross),
            "SEMI" => Some(JoinType::Semi),
            "ANTI" => Some(JoinType::Anti),
            _ => None,
        }
    }

    fn consume_join_type(&mut self, jt: JoinType) -> Result<(), ParseError> {
        match jt {
            JoinType::Inner => {
                let _ = self.eat_keyword("INNER");
                self.expect_keyword("JOIN")
            }
            JoinType::LeftOuter | JoinType::RightOuter | JoinType::FullOuter => {
                self.bump(); // LEFT/RIGHT/FULL
                let _ = self.eat_keyword("OUTER");
                self.expect_keyword("JOIN")
            }
            JoinType::Cross | JoinType::Semi | JoinType::Anti => {
                self.bump(); // CROSS/SEMI/ANTI
                self.expect_keyword("JOIN")
            }
        }
    }

    fn parse_table_ref(&mut self) -> Result<TableRef, ParseError> {
        let table = self.ident()?;
        let alias =
            if self.eat_keyword("AS") || matches!(self.peek(), Tok::Ident(s) if !is_reserved(s)) {
                Some(self.ident()?)
            } else {
                None
            };
        Ok(TableRef { table, alias })
    }

    fn parse_select_item(&mut self) -> Result<SelectItem, ParseError> {
        if self.at_symbol("*") {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // aggregate?
        if let Tok::Ident(name) = self.peek().clone() {
            let up = name.to_ascii_uppercase();
            let agg = match up.as_str() {
                "COUNT" => Some(AggFunc::Count),
                "SUM" => Some(AggFunc::Sum),
                "MIN" => Some(AggFunc::Min),
                "MAX" => Some(AggFunc::Max),
                "AVG" => Some(AggFunc::Avg),
                _ => None,
            };
            if let Some(func) = agg {
                if matches!(&self.toks.get(self.idx + 1), Some((Tok::Symbol(s), _)) if s == "(") {
                    self.bump(); // name
                    self.bump(); // (
                    let (func, arg) = if self.at_symbol("*") {
                        self.bump();
                        (AggFunc::CountStar, None)
                    } else {
                        (func, Some(self.parse_or()?))
                    };
                    self.expect_symbol(")")?;
                    let alias = if self.eat_keyword("AS") {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    return Ok(SelectItem::Aggregate { func, arg, alias });
                }
            }
        }
        let expr = self.parse_or()?;
        let alias = if self.eat_keyword("AS") {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    // Expression grammar: OR > AND > NOT > comparison/IN/BETWEEN/IS > add > mul > unary > primary
    fn parse_or(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_and()?;
        while self.eat_keyword("OR") {
            let right = self.parse_and()?;
            left = Expr::or(left, right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_not()?;
        while self.eat_keyword("AND") {
            let right = self.parse_not()?;
            left = Expr::and(left, right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| {
            if p.at_keyword("NOT") && !p.next_is_in_chain() {
                p.bump();
                let e = p.parse_not()?;
                return Ok(Expr::not(e));
            }
            p.parse_comparison()
        })
    }

    /// `NOT EXISTS` is handled by the primary parser; `NOT IN`/`NOT BETWEEN`
    /// belong to the comparison suffix, so plain NOT should not eat them.
    fn next_is_in_chain(&self) -> bool {
        matches!(&self.toks.get(self.idx + 1), Some((Tok::Ident(s), _))
            if s.eq_ignore_ascii_case("EXISTS"))
    }

    fn parse_comparison(&mut self) -> Result<Expr, ParseError> {
        let left = self.parse_additive()?;
        // IS [NOT] NULL
        if self.eat_keyword("IS") {
            let negated = self.eat_keyword("NOT");
            self.expect_keyword("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        // [NOT] IN / BETWEEN
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("IN") {
            self.expect_symbol("(")?;
            if self.at_keyword("SELECT") {
                let sub = self.parse_select()?;
                self.expect_symbol(")")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    subquery: Box::new(sub),
                    negated,
                });
            }
            let mut list = vec![self.parse_or()?];
            while self.eat_symbol(",") {
                list.push(self.parse_or()?);
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if self.eat_keyword("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_keyword("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if negated {
            return self.err("expected IN or BETWEEN after NOT");
        }
        // binary comparison operator
        let op = match self.peek() {
            Tok::Symbol(s) => match s.as_str() {
                "=" => Some(BinOp::Eq),
                "<=>" => Some(BinOp::NullSafeEq),
                "<>" | "!=" => Some(BinOp::Ne),
                "<" => Some(BinOp::Lt),
                "<=" => Some(BinOp::Le),
                ">" => Some(BinOp::Gt),
                ">=" => Some(BinOp::Ge),
                _ => None,
            },
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let right = self.parse_additive()?;
            return Ok(Expr::binary(op, left, right));
        }
        Ok(left)
    }

    fn parse_additive(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = if self.at_symbol("+") {
                BinOp::Add
            } else if self.at_symbol("-") {
                BinOp::Sub
            } else {
                break;
            };
            self.bump();
            let right = self.parse_multiplicative()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr, ParseError> {
        let mut left = self.parse_unary()?;
        loop {
            let op = if self.at_symbol("*") {
                BinOp::Mul
            } else if self.at_symbol("/") {
                BinOp::Div
            } else {
                break;
            };
            self.bump();
            let right = self.parse_unary()?;
            left = Expr::binary(op, left, right);
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        self.nested(|p| {
            if p.at_symbol("-") {
                p.bump();
                let e = p.parse_unary()?;
                return Ok(Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(e),
                });
            }
            p.parse_primary()
        })
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Tok::Symbol(s) if s == "(" => {
                self.bump();
                if self.at_keyword("SELECT") {
                    // scalar/EXISTS-less subquery in parentheses — treat as
                    // an EXISTS-style membership is not valid here; we only
                    // allow it behind IN/EXISTS which are handled elsewhere.
                    return self.err("bare subquery not supported in scalar position");
                }
                let e = self.parse_or()?;
                self.expect_symbol(")")?;
                Ok(e)
            }
            Tok::Number(n) => {
                self.bump();
                Ok(Expr::Literal(parse_number_literal(&n)))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Varchar(s)))
            }
            Tok::Ident(id) => {
                let up = id.to_ascii_uppercase();
                match up.as_str() {
                    "NULL" => {
                        self.bump();
                        Ok(Expr::Literal(Value::Null))
                    }
                    "TRUE" => {
                        self.bump();
                        Ok(Expr::Literal(Value::Bool(true)))
                    }
                    "FALSE" => {
                        self.bump();
                        Ok(Expr::Literal(Value::Bool(false)))
                    }
                    "DATE" => {
                        self.bump();
                        match self.bump() {
                            Tok::Str(s) => {
                                let days = s.trim().parse::<i32>().unwrap_or(0);
                                Ok(Expr::Literal(Value::Date(days)))
                            }
                            other => self.err(format!("expected DATE literal, found {other:?}")),
                        }
                    }
                    "NOT" => {
                        self.bump();
                        if self.eat_keyword("EXISTS") {
                            self.expect_symbol("(")?;
                            let sub = self.parse_select()?;
                            self.expect_symbol(")")?;
                            Ok(Expr::Exists {
                                subquery: Box::new(sub),
                                negated: true,
                            })
                        } else {
                            let e = self.parse_not()?;
                            Ok(Expr::not(e))
                        }
                    }
                    "EXISTS" => {
                        self.bump();
                        self.expect_symbol("(")?;
                        let sub = self.parse_select()?;
                        self.expect_symbol(")")?;
                        Ok(Expr::Exists {
                            subquery: Box::new(sub),
                            negated: false,
                        })
                    }
                    "CAST" => {
                        self.bump();
                        self.expect_symbol("(")?;
                        let e = self.parse_or()?;
                        self.expect_keyword("AS")?;
                        let ty = self.parse_type()?;
                        self.expect_symbol(")")?;
                        Ok(Expr::Cast {
                            expr: Box::new(e),
                            ty,
                        })
                    }
                    _ => {
                        self.bump();
                        if self.eat_symbol(".") {
                            let col = self.ident()?;
                            Ok(Expr::Column(ColumnRef::new(id, col)))
                        } else {
                            Ok(Expr::Column(ColumnRef::bare(id)))
                        }
                    }
                }
            }
            other => self.err(format!("unexpected token {other:?}")),
        }
    }

    fn parse_type(&mut self) -> Result<ColumnType, ParseError> {
        let name = self.ident()?.to_ascii_lowercase();
        // swallow optional (n[,m]) and trailing keywords
        let mut args: Vec<u64> = Vec::new();
        if self.eat_symbol("(") {
            loop {
                match self.bump() {
                    Tok::Number(n) => match n.parse() {
                        Ok(len) => args.push(len),
                        Err(_) => return self.err(format!("type length `{n}` is not an integer")),
                    },
                    other => return self.err(format!("expected type length, got {other:?}")),
                }
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
        }
        let unsigned = self.eat_keyword("UNSIGNED");
        let zerofill = self.eat_keyword("ZEROFILL");
        Ok(match name.as_str() {
            "tinyint" => ColumnType::TinyInt { unsigned },
            "smallint" => ColumnType::SmallInt { unsigned },
            "mediumint" => ColumnType::MediumInt { unsigned },
            "int" | "integer" => ColumnType::Int { unsigned },
            "bigint" => ColumnType::BigInt { unsigned },
            "decimal" | "numeric" => {
                let precision = self.type_length(&args, 0, 10)?;
                let scale = self.type_length(&args, 1, 0)?;
                if scale > precision || scale > Decimal::MAX_SCALE {
                    return self.err(format!("decimal({precision},{scale}): scale out of range"));
                }
                ColumnType::Decimal {
                    precision,
                    scale,
                    zerofill,
                }
            }
            "float" => ColumnType::Float,
            "double" => ColumnType::Double,
            "varchar" => ColumnType::Varchar(self.type_length(&args, 0, 255)?),
            "char" => ColumnType::Char(self.type_length(&args, 0, 1)?),
            "text" | "blob" => ColumnType::Text,
            "date" => ColumnType::Date,
            "bool" | "boolean" => ColumnType::Bool,
            other => {
                return self.err(format!("unknown type `{other}`"));
            }
        })
    }

    /// Type argument `i` (`default` when absent), or an error when it does
    /// not fit the field it sets.
    fn type_length<T: TryFrom<u64>>(
        &self,
        args: &[u64],
        i: usize,
        default: T,
    ) -> Result<T, ParseError> {
        match args.get(i) {
            None => Ok(default),
            Some(&n) => match T::try_from(n) {
                Ok(len) => Ok(len),
                Err(_) => self.err(format!("type length {n} out of range")),
            },
        }
    }
}

fn is_reserved(word: &str) -> bool {
    const RESERVED: &[&str] = &[
        "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "JOIN", "INNER", "LEFT",
        "RIGHT", "FULL", "CROSS", "SEMI", "ANTI", "ON", "AND", "OR", "NOT", "IN", "IS", "NULL",
        "AS", "BY", "EXISTS", "BETWEEN", "DISTINCT", "ALL", "OUTER", "DESC", "ASC", "CAST",
        "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE", "BEGIN", "COMMIT", "ROLLBACK",
    ];
    RESERVED.iter().any(|r| r.eq_ignore_ascii_case(word))
}

fn parse_number_literal(n: &str) -> Value {
    if let Ok(i) = n.parse::<i64>() {
        return Value::Int(i);
    }
    if !n.contains(['e', 'E']) {
        if let Some(dot) = n.find('.') {
            let scale = n.len() - dot - 1;
            let digits: String = n.chars().filter(|c| *c != '.').collect();
            if let (Ok(scale), Ok(m)) = (u8::try_from(scale), digits.parse::<i128>()) {
                if scale <= Decimal::MAX_SCALE {
                    return Value::Decimal(Decimal::new(m, scale));
                }
            }
        }
    }
    Value::Double(n.parse::<f64>().unwrap_or(0.0))
}

/// Parse the body of a `/*+ ... */` comment into structured hints.
pub(crate) fn parse_hints(body: &str) -> Result<Vec<Hint>, String> {
    let mut hints = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let open = match rest.find('(') {
            Some(i) => i,
            None => return Err(format!("malformed hint near `{rest}`")),
        };
        let close = rest[open..]
            .find(')')
            .map(|i| open + i)
            .ok_or_else(|| format!("unclosed hint near `{rest}`"))?;
        let name = rest[..open].trim().to_ascii_uppercase();
        let args: Vec<String> = rest[open + 1..close]
            .split(',')
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .collect();
        let hint = match name.as_str() {
            "JOIN_ORDER" => Hint::JoinOrder(args),
            "HASH_JOIN" => Hint::HashJoin(args),
            "NO_HASH_JOIN" => Hint::NoHashJoin(args),
            "MERGE_JOIN" => Hint::MergeJoin(args),
            "NL_JOIN" => Hint::NlJoin(args),
            "INDEX_JOIN" => Hint::IndexJoin(args),
            "SEMIJOIN" => {
                let strat = args.first().map(|a| match a.to_ascii_uppercase().as_str() {
                    "MATERIALIZATION" => Ok(SemiJoinStrategy::Materialization),
                    "DUPSWEEDOUT" => Ok(SemiJoinStrategy::DuplicateWeedout),
                    "FIRSTMATCH" => Ok(SemiJoinStrategy::FirstMatch),
                    "LOOSESCAN" => Ok(SemiJoinStrategy::LooseScan),
                    other => Err(format!("unknown semijoin strategy {other}")),
                });
                match strat {
                    None => Hint::SemiJoin(None),
                    Some(Ok(s)) => Hint::SemiJoin(Some(s)),
                    Some(Err(e)) => return Err(e),
                }
            }
            "NO_SEMIJOIN" => Hint::NoSemiJoin,
            "SUBQUERY_TO_DERIVED" => Hint::SubqueryToDerived,
            "MATERIALIZATION" => Hint::Materialization(true),
            "NO_MATERIALIZATION" => Hint::Materialization(false),
            other => return Err(format!("unknown hint `{other}`")),
        };
        hints.push(hint);
        rest = rest[close + 1..].trim();
    }
    Ok(hints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::render::{render_expr, render_stmt};

    #[test]
    fn a_literal_with_more_fractional_digits_than_a_decimal_holds_is_a_double() {
        let tiny = format!("0.{}1", "0".repeat(39));
        let sql = format!("SELECT t.a AS x FROM t WHERE t.a = {tiny}");
        let rendered = render_stmt(&parse_stmt(&sql).unwrap());
        assert_eq!(rendered, sql);
        assert_eq!(parse_number_literal(&tiny), Value::Double(1e-40));
        let widest = format!("0.{}1", "0".repeat(37));
        assert_eq!(
            parse_number_literal(&widest),
            Value::Decimal(Decimal::new(1, Decimal::MAX_SCALE))
        );
    }

    #[test]
    fn parses_simple_join_query() {
        let sql = "SELECT T4.price FROM T3 INNER JOIN T4 ON T3.goodsName = T4.goodsName \
                   WHERE T3.goodsName = 'flower'";
        let stmt = parse_stmt(sql).unwrap();
        assert_eq!(stmt.table_count(), 2);
        assert_eq!(stmt.join_types(), vec![JoinType::Inner]);
        assert_eq!(render_stmt(&stmt), sql);
    }

    #[test]
    fn parses_all_join_keywords() {
        for (kw, jt) in [
            ("JOIN", JoinType::Inner),
            ("INNER JOIN", JoinType::Inner),
            ("LEFT JOIN", JoinType::LeftOuter),
            ("LEFT OUTER JOIN", JoinType::LeftOuter),
            ("RIGHT OUTER JOIN", JoinType::RightOuter),
            ("FULL OUTER JOIN", JoinType::FullOuter),
            ("CROSS JOIN", JoinType::Cross),
            ("SEMI JOIN", JoinType::Semi),
            ("ANTI JOIN", JoinType::Anti),
        ] {
            let sql = format!("SELECT * FROM a {kw} b ON a.x = b.x");
            let stmt = parse_stmt(&sql).unwrap();
            assert_eq!(stmt.join_types(), vec![jt], "{kw}");
        }
    }

    #[test]
    fn parses_hint_comment() {
        let sql = "SELECT /*+ MERGE_JOIN(t1, t2, t3) NO_SEMIJOIN() */ t3.col1 FROM t1 \
                   LEFT OUTER JOIN t2 ON t1.col1 = t2.col1";
        let stmt = parse_stmt(sql).unwrap();
        assert_eq!(stmt.hints.len(), 2);
        assert_eq!(
            stmt.hints[0],
            Hint::MergeJoin(vec!["t1".into(), "t2".into(), "t3".into()])
        );
        assert_eq!(stmt.hints[1], Hint::NoSemiJoin);
    }

    #[test]
    fn parses_nested_not_in_subqueries_like_listing_1() {
        let sql = "SELECT t0.c0 FROM t0 WHERE t0.c0 IN (SELECT t0.c0 FROM t0 WHERE \
                   (t0.c0 NOT IN (SELECT t0.c0 FROM t0 WHERE t0.c0)) = t0.c0)";
        let stmt = parse_stmt(sql).unwrap();
        assert!(stmt.has_subquery());
        // round-trip is stable
        let rendered = render_stmt(&stmt);
        let reparsed = parse_stmt(&rendered).unwrap();
        assert_eq!(render_stmt(&reparsed), rendered);
    }

    #[test]
    fn a_character_that_starts_no_token_is_a_parse_error() {
        for err in [
            parse_stmt("SELECT € FROM t").unwrap_err(),
            parse_dml("SELECT € FROM t").unwrap_err(),
        ] {
            assert_eq!(err.offset, 7, "{err}");
            assert!(err.message.contains('€'), "{err}");
        }
    }

    #[test]
    fn non_ascii_string_literals_keep_their_text() {
        let stmt = parse_stmt("SELECT * FROM t WHERE a = 'é'").unwrap();
        assert_eq!(render_stmt(&stmt), "SELECT * FROM t WHERE a = 'é'");
        let stmt = parse_dml("UPDATE t SET b = 'Grüße, €5' WHERE a = '日本'").unwrap();
        assert_eq!(
            crate::render::render_dml(&stmt),
            "UPDATE t SET b = 'Grüße, €5' WHERE a = '日本'"
        );
    }

    #[test]
    fn parses_literals_numbers_strings_null() {
        let e = parse_expr("a.x = -3.50").unwrap();
        match e {
            Expr::Binary { right, .. } => match *right {
                Expr::Literal(Value::Decimal(d)) => {
                    assert_eq!(d.mantissa, -350);
                    assert_eq!(d.scale, 2);
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            parse_expr("x IS NOT NULL").unwrap(),
            Expr::IsNull { negated: true, .. }
        ));
        let e = parse_expr("name = 'it''s'").unwrap();
        assert!(render_expr(&e).contains("'it''s'"));
    }

    #[test]
    fn parses_exists_and_not_exists() {
        let sql = "SELECT * FROM t1 WHERE EXISTS (SELECT * FROM t2 WHERE t2.a = t1.a)";
        assert!(parse_stmt(sql).unwrap().has_subquery());
        let sql = "SELECT * FROM t1 WHERE NOT EXISTS (SELECT * FROM t2)";
        let stmt = parse_stmt(sql).unwrap();
        match stmt.where_clause.unwrap() {
            Expr::Exists { negated, .. } => assert!(negated),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_cast_and_between() {
        let e = parse_expr("CAST(t1.c1 AS bigint(64)) BETWEEN 1 AND 10").unwrap();
        assert!(matches!(e, Expr::Between { .. }));
        let e = parse_expr("CAST(x AS varchar(20)) = 'a'").unwrap();
        assert!(render_expr(&e).starts_with("CAST(x AS varchar(20))"));
    }

    #[test]
    fn type_lengths_that_do_not_fit_are_errors() {
        let e = parse_expr("CAST(t.a AS DECIMAL(10,2)) = 1").unwrap();
        assert!(render_expr(&e).starts_with("CAST(t.a AS decimal(10,2))"));
        assert_eq!(
            render_expr(&parse_expr(&render_expr(&e)).unwrap()),
            render_expr(&e)
        );
        for ty in [
            "DECIMAL(10, 300)",
            "DECIMAL(300)",
            "DECIMAL(10, 11)",
            "DECIMAL(40, 39)",
            "VARCHAR(70000)",
            "CHAR(1.5)",
            "VARCHAR(99999999999999999999)",
        ] {
            let sql = format!("CAST(t.a AS {ty}) = 1");
            assert!(parse_expr(&sql).is_err(), "{ty} parsed");
        }
    }

    #[test]
    fn parses_group_by_and_limit() {
        let sql = "SELECT COUNT(*) AS cnt FROM t1 JOIN t2 ON t1.a = t2.a \
                   GROUP BY t1.a LIMIT 5";
        let stmt = parse_stmt(sql).unwrap();
        assert_eq!(stmt.group_by.len(), 1);
        assert_eq!(stmt.limit, Some(5));
        assert!(stmt.items[0].is_aggregate());
    }

    /// No executor and no ground truth evaluates HAVING or ORDER BY, so a
    /// statement carrying either is refused instead of checked without it.
    #[test]
    fn clauses_nothing_evaluates_are_rejected_by_name() {
        for (sql, clause) in [
            (
                "SELECT t1.a FROM t1 GROUP BY t1.a HAVING t1.a > 1",
                "HAVING",
            ),
            // Both stay reserved words, so neither is taken for an alias.
            ("SELECT t1.a FROM t1 HAVING t1.a > 1", "HAVING"),
            ("SELECT t1.a FROM t1 ORDER BY t1.a DESC", "ORDER BY"),
            (
                "SELECT t1.a FROM t1 WHERE t1.a = 1 ORDER BY t1.a LIMIT 5",
                "ORDER BY",
            ),
            (
                "SELECT t1.a FROM t1 WHERE t1.a IN (SELECT t2.a FROM t2 ORDER BY t2.a)",
                "ORDER BY",
            ),
        ] {
            let err = parse_stmt(sql).unwrap_err();
            assert!(err.message.contains(clause), "{sql}: {err}");
        }
    }

    #[test]
    fn round_trips_renderer_output() {
        let sqls = [
            "SELECT DISTINCT t1.a FROM t1 ANTI JOIN t2 ON t1.a = t2.a WHERE t1.b <> 3",
            "SELECT * FROM t1 AS x JOIN t2 AS y ON x.a = y.a WHERE x.b IN (1, 2, NULL)",
            "SELECT t1.a FROM t1 WHERE t1.a <=> NULL OR t1.b >= 2.5",
        ];
        for sql in sqls {
            let stmt = parse_stmt(sql).unwrap();
            let rendered = render_stmt(&stmt);
            let reparsed = parse_stmt(&rendered).unwrap();
            assert_eq!(render_stmt(&reparsed), rendered, "{sql}");
        }
    }

    #[test]
    fn parses_dml_statements_and_round_trips() {
        use crate::render::{render_dml, render_program};
        let sqls = [
            "INSERT INTO t1 (a, b, c) VALUES (1, 'x; y', NULL), (2, 'it''s', 3.5)",
            "UPDATE t1 SET a = 2, b = 'z' WHERE t1.a = 1 AND (b IS NOT NULL)",
            "DELETE FROM t1 WHERE a IN (1, 2, 3)",
            "DELETE FROM t1",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
        ];
        for sql in sqls {
            let stmt = parse_dml(sql).unwrap();
            assert_eq!(render_dml(&stmt), sql, "{sql}");
        }
        // a full program round-trips through text, `;` in strings included
        let program = sqls.join("; ");
        let stmts = parse_program(&program).unwrap();
        assert_eq!(stmts.len(), sqls.len());
        assert_eq!(render_program(&stmts), program);
        // empty statements / trailing separators are tolerated
        assert_eq!(parse_program("BEGIN;; COMMIT;").unwrap().len(), 2);
        assert!(parse_program("").unwrap().is_empty());
    }

    #[test]
    fn dml_parse_errors() {
        assert!(parse_dml("INSERT INTO t1 (a, b) VALUES (1)").is_err());
        assert!(parse_dml("UPDATE t1 WHERE a = 1").is_err());
        assert!(parse_dml("DELETE t1").is_err());
        assert!(parse_dml("SELECT * FROM t1").is_err());
        assert!(parse_program("BEGIN; SELECT 1").is_err());
    }

    #[test]
    fn nesting_is_bounded_instead_of_overflowing_the_stack() {
        let deep = 100_000;
        let too_deep = |r: Result<(), ParseError>| {
            let err = r.unwrap_err();
            assert!(err.message.contains("nested deeper"), "{err}");
        };
        let parens = "(".repeat(deep);
        too_deep(parse_stmt(&format!("SELECT a FROM t WHERE {parens}")).map(drop));
        too_deep(parse_stmt(&format!("SELECT a FROM t WHERE {}a", "NOT ".repeat(deep))).map(drop));
        too_deep(parse_stmt(&format!("SELECT {}1 FROM t", "- ".repeat(deep))).map(drop));
        let exists = "EXISTS (SELECT a FROM t WHERE ".repeat(deep / 8);
        too_deep(parse_stmt(&format!("SELECT a FROM t WHERE {exists}")).map(drop));
        too_deep(parse_stmt(&format!("SELECT a FROM t WHERE a IN {parens}")).map(drop));
        // DML shares the expression parser.
        too_deep(parse_dml(&format!("DELETE FROM t WHERE {parens}")).map(drop));
        too_deep(parse_dml(&format!("UPDATE t SET a = {}1", "- ".repeat(deep))).map(drop));
        too_deep(parse_program(&format!("BEGIN; DELETE FROM t WHERE {parens}")).map(drop));
        // Nesting well inside the bound still parses, and round-trips.
        let n = MAX_DEPTH / 2 - 8;
        let sql = format!(
            "SELECT a FROM t WHERE {}a = 1{}",
            "(".repeat(n),
            ")".repeat(n)
        );
        let stmt = parse_stmt(&sql).unwrap();
        assert_eq!(parse_stmt(&render_stmt(&stmt)).unwrap(), stmt);
        let nots = format!(
            "SELECT a FROM t WHERE {}a = 1",
            "NOT ".repeat(MAX_DEPTH - 8)
        );
        assert!(parse_stmt(&nots).is_ok());
    }

    #[test]
    fn error_reporting_has_offsets() {
        let err = parse_stmt("SELECT FROM").unwrap_err();
        assert!(err.offset > 0);
        assert!(parse_stmt("SELECT * FROM t WHERE").is_err());
        assert!(parse_hints("BOGUS_HINT(t1)").is_err());
    }
}
