//! Optimizer hints and session switches.
//!
//! TQS transforms each generated query with several *hint sets* so that the
//! target DBMS executes different physical plans for the same logical query
//! (Algorithm 1, line 11). We model both MySQL/TiDB-style `/*+ ... */` hint
//! comments and MariaDB-style `SET optimizer_switch='...'` session switches,
//! because the paper's reproduction cases use both.

use std::fmt;

/// A `/*+ ... */` optimizer hint attached to a SELECT.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Hint {
    /// Force the listed join order (X-DB / TiDB `JOIN_ORDER(t3, t1, t2)`).
    JoinOrder(Vec<String>),
    /// Force hash join for the listed tables (`HASH_JOIN(t1, t2)`).
    HashJoin(Vec<String>),
    /// Forbid hash join.
    NoHashJoin(Vec<String>),
    /// Force sort-merge join (`MERGE_JOIN(t1, t2)`).
    MergeJoin(Vec<String>),
    /// Force (block) nested-loop join.
    NlJoin(Vec<String>),
    /// Force index (lookup) join.
    IndexJoin(Vec<String>),
    /// Enable semi-join transformation of IN subqueries (`SEMIJOIN()`),
    /// optionally pinning the strategy.
    SemiJoin(Option<SemiJoinStrategy>),
    /// Disable semi-join transformation (`NO_SEMIJOIN()`).
    NoSemiJoin,
    /// Rewrite subqueries to derived tables (`SUBQUERY_TO_DERIVED`).
    SubqueryToDerived,
    /// Force / forbid subquery materialization.
    Materialization(bool),
}

/// Semi-join execution strategies (mirrors MySQL's set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemiJoinStrategy {
    Materialization,
    DuplicateWeedout,
    FirstMatch,
    LooseScan,
}

impl SemiJoinStrategy {
    pub fn name(self) -> &'static str {
        match self {
            SemiJoinStrategy::Materialization => "MATERIALIZATION",
            SemiJoinStrategy::DuplicateWeedout => "DUPSWEEDOUT",
            SemiJoinStrategy::FirstMatch => "FIRSTMATCH",
            SemiJoinStrategy::LooseScan => "LOOSESCAN",
        }
    }
}

fn list(tables: &[String]) -> String {
    tables.join(", ")
}

impl fmt::Display for Hint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Hint::JoinOrder(t) => write!(f, "JOIN_ORDER({})", list(t)),
            Hint::HashJoin(t) => write!(f, "HASH_JOIN({})", list(t)),
            Hint::NoHashJoin(t) => write!(f, "NO_HASH_JOIN({})", list(t)),
            Hint::MergeJoin(t) => write!(f, "MERGE_JOIN({})", list(t)),
            Hint::NlJoin(t) => write!(f, "NL_JOIN({})", list(t)),
            Hint::IndexJoin(t) => write!(f, "INDEX_JOIN({})", list(t)),
            Hint::SemiJoin(None) => write!(f, "SEMIJOIN()"),
            Hint::SemiJoin(Some(s)) => write!(f, "SEMIJOIN({})", s.name()),
            Hint::NoSemiJoin => write!(f, "NO_SEMIJOIN()"),
            Hint::SubqueryToDerived => write!(f, "SUBQUERY_TO_DERIVED()"),
            Hint::Materialization(true) => write!(f, "MATERIALIZATION()"),
            Hint::Materialization(false) => write!(f, "NO_MATERIALIZATION()"),
        }
    }
}

/// A MariaDB-style optimizer switch toggled via
/// `SET optimizer_switch='name=on|off'` before the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SwitchName {
    /// `join_cache_hashed` — allow BNLH / BKAH (hashed join buffers).
    JoinCacheHashed,
    /// `join_cache_bka` — allow batched key access joins.
    JoinCacheBka,
    /// `outer_join_with_cache` — join buffer for outer joins.
    OuterJoinWithCache,
    /// `materialization` — subquery materialization.
    Materialization,
    /// `block_nested_loop` — block nested loop join.
    BlockNestedLoop,
    /// `batched_key_access` — BKA join.
    BatchedKeyAccess,
    /// `hash_join` (MySQL ≥8.0.18 always-on, still a switch in forks).
    HashJoin,
}

impl SwitchName {
    pub const ALL: [SwitchName; 7] = [
        SwitchName::JoinCacheHashed,
        SwitchName::JoinCacheBka,
        SwitchName::OuterJoinWithCache,
        SwitchName::Materialization,
        SwitchName::BlockNestedLoop,
        SwitchName::BatchedKeyAccess,
        SwitchName::HashJoin,
    ];

    pub fn name(self) -> &'static str {
        match self {
            SwitchName::JoinCacheHashed => "join_cache_hashed",
            SwitchName::JoinCacheBka => "join_cache_bka",
            SwitchName::OuterJoinWithCache => "outer_join_with_cache",
            SwitchName::Materialization => "materialization",
            SwitchName::BlockNestedLoop => "block_nested_loop",
            SwitchName::BatchedKeyAccess => "batched_key_access",
            SwitchName::HashJoin => "hash_join",
        }
    }
}

/// One `optimizer_switch` assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionSwitch {
    pub name: SwitchName,
    pub on: bool,
}

impl SessionSwitch {
    pub fn off(name: SwitchName) -> Self {
        SessionSwitch { name, on: false }
    }
    pub fn on(name: SwitchName) -> Self {
        SessionSwitch { name, on: true }
    }
}

impl fmt::Display for SessionSwitch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SET optimizer_switch='{}={}';",
            self.name.name(),
            if self.on { "on" } else { "off" }
        )
    }
}

/// A *hint set*: the complete steering applied to one transformed query —
/// session switches executed first, then hints spliced into the SELECT.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HintSet {
    pub label: String,
    pub switches: Vec<SessionSwitch>,
    pub hints: Vec<Hint>,
}

impl HintSet {
    pub fn new(label: impl Into<String>) -> Self {
        HintSet {
            label: label.into(),
            switches: Vec::new(),
            hints: Vec::new(),
        }
    }
    pub fn with_hint(mut self, h: Hint) -> Self {
        self.hints.push(h);
        self
    }
    pub fn with_switch(mut self, s: SessionSwitch) -> Self {
        self.switches.push(s);
        self
    }
    pub fn is_empty(&self) -> bool {
        self.switches.is_empty() && self.hints.is_empty()
    }
}

impl fmt::Display for HintSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in &self.switches {
            writeln!(f, "{s}")?;
        }
        if !self.hints.is_empty() {
            let rendered: Vec<String> = self.hints.iter().map(|h| h.to_string()).collect();
            write!(f, "/*+ {} */", rendered.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_rendering_matches_paper_style() {
        assert_eq!(
            Hint::JoinOrder(vec!["t3".into(), "t1".into(), "t2".into()]).to_string(),
            "JOIN_ORDER(t3, t1, t2)"
        );
        assert_eq!(
            Hint::MergeJoin(vec!["t1".into(), "t2".into(), "t3".into()]).to_string(),
            "MERGE_JOIN(t1, t2, t3)"
        );
        assert_eq!(Hint::SemiJoin(None).to_string(), "SEMIJOIN()");
        assert_eq!(Hint::NoSemiJoin.to_string(), "NO_SEMIJOIN()");
    }

    #[test]
    fn switch_rendering_matches_mariadb_style() {
        assert_eq!(
            SessionSwitch::off(SwitchName::JoinCacheHashed).to_string(),
            "SET optimizer_switch='join_cache_hashed=off';"
        );
        assert_eq!(
            SessionSwitch::off(SwitchName::Materialization).to_string(),
            "SET optimizer_switch='materialization=off';"
        );
    }

    #[test]
    fn hint_set_display_combines_switches_and_hints() {
        let hs = HintSet::new("bnl-only")
            .with_switch(SessionSwitch::off(SwitchName::JoinCacheBka))
            .with_hint(Hint::NlJoin(vec!["t1".into()]));
        let s = hs.to_string();
        assert!(s.contains("join_cache_bka=off"));
        assert!(s.contains("/*+ NL_JOIN(t1) */"));
        assert!(!HintSet::new("x").with_hint(Hint::NoSemiJoin).is_empty());
        assert!(HintSet::new("empty").is_empty());
    }
}
