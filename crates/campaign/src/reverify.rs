//! Corpus re-verification: regression campaigns that replay every persisted
//! bug class against chosen engine builds.
//!
//! A hunt campaign's corpus is a *regression* asset as much as a discovery
//! log: every deduplicated class carries the statement that exposed it and a
//! replayable witness trace. [`ReverifyCampaign`] turns that asset into an
//! automatic check on engine changes. For every corpus class and every
//! configured [`BuildSpec`] it runs two legs:
//!
//! 1. **Replay leg** — the persisted witness trace is served back through a
//!    [`ReplayConnector`] and the cell's original oracle re-checks the
//!    originating statement against it. This asks: *does the recorded
//!    evidence still demonstrate the recorded divergence* under today's
//!    harness (schema rebuild, hint generation, ground truth)?
//! 2. **Live leg** — the statement is re-executed end to end on a freshly
//!    connected engine build (the faulty build that produced the corpus, a
//!    fault-free build standing in for "every bug fixed", or anything in
//!    between). This asks: *does the bug still fire on this build?*
//!
//! The two legs classify each (class, build) pair:
//!
//! * [`ReverifyStatus::StillFailing`] — witness reproduces **and** the live
//!   build still trips the same root cause. The regression is still open.
//! * [`ReverifyStatus::Fixed`] — witness reproduces, live build passes. The
//!   bug this class tracked no longer occurs on this build.
//! * [`ReverifyStatus::Flaky`] — replay and live disagree about the class
//!   itself: the witness no longer reproduces the recorded divergence (with
//!   the live build firing or not). Deterministic engines should never
//!   produce this; it flags harness or corpus drift and fails CI.
//! * [`ReverifyStatus::Stale`] — the entry can no longer be checked at all:
//!   the SQL does not parse, the rebuilt shard schema lost a referenced
//!   table, or the trace no longer serves the witness statement.
//!
//! Verdicts aggregate into a machine-readable [`ReverifyReport`] (hand-rolled
//! [`tqs_telemetry::Json`], like every campaign artifact), which also drives corpus
//! compaction: [`ReverifyReport::retain_class`] keeps classes that still fail
//! (or are flaky — contested evidence is not discharged) and garbage-collects
//! `Fixed`/`Stale` classes unless the caller opts into keeping them
//! ([`Corpus::compact`](crate::corpus::Corpus::compact)).
//!
//! Like a hunt, re-verification runs on the campaign fleet
//! (`scheduler::drain_in_order`): workers take (entry × build) pairs in
//! order from one shared cursor, and the verdicts retire into the report in
//! (entry, build) order regardless of which worker checked which pair.

use crate::campaign::{Campaign, CampaignCell, CampaignConfig};
use crate::corpus::CorpusEntry;
use crate::scheduler::drain_in_order;
use crate::stats::ReverifyStats;
use std::collections::BTreeSet;
use std::convert::Infallible;
use std::io;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;
use tqs_core::backend::{BuildSpec, DbmsConnector, EngineConnector};
use tqs_core::bugs::{BugReport, OracleKind};
use tqs_core::dsg::DsgDatabase;
use tqs_core::mutation::DmlOracle;
use tqs_core::oracle::OracleVerdict;
use tqs_sql::ast::{DmlStmt, SelectStmt};
use tqs_sql::parser::{parse_program, parse_stmt};
use tqs_sql::render::render_dml;
use tqs_telemetry::Json;

/// Verdict for one (class, build) pair. Declared in ascending severity so
/// `ReverifyReport::class_status` can aggregate across builds with `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReverifyStatus {
    /// The entry can no longer be checked (schema/SQL/trace no longer loads).
    Stale,
    /// The witness reproduces but the live build no longer fails.
    Fixed,
    /// Replay and live disagree: the witness no longer demonstrates the
    /// recorded class. Should never happen on deterministic engines.
    Flaky,
    /// The witness reproduces and the live build still fails.
    StillFailing,
}

impl ReverifyStatus {
    pub(crate) const ALL: [ReverifyStatus; 4] = [
        ReverifyStatus::Stale,
        ReverifyStatus::Fixed,
        ReverifyStatus::Flaky,
        ReverifyStatus::StillFailing,
    ];

    pub fn label(self) -> &'static str {
        match self {
            ReverifyStatus::Stale => "stale",
            ReverifyStatus::Fixed => "fixed",
            ReverifyStatus::Flaky => "flaky",
            ReverifyStatus::StillFailing => "still-failing",
        }
    }

    pub(crate) fn from_label(label: &str) -> Result<ReverifyStatus, String> {
        Self::ALL
            .into_iter()
            .find(|s| s.label() == label)
            .ok_or_else(|| format!("unknown reverify status `{label}`"))
    }
}

/// One (class, build) verdict of a re-verification run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassVerdict {
    /// The corpus class ([`CorpusEntry::class_key`]).
    pub class_key: String,
    /// The campaign cell that discovered the class (fixes shard + oracle).
    pub cell_id: usize,
    /// Profile of the build under test (the discovering cell's).
    pub profile: String,
    pub build: BuildSpec,
    pub status: ReverifyStatus,
    /// Replay leg: the persisted witness still demonstrates the recorded
    /// divergence.
    pub replay_reproduced: bool,
    /// Live leg: re-execution on this build still trips the class's root
    /// cause.
    pub live_failing: bool,
    /// Human-readable reason for `Stale`/`Flaky` verdicts (empty otherwise).
    pub detail: String,
}

impl ClassVerdict {
    pub(crate) fn to_json(&self) -> Json {
        let mut members = vec![
            ("class".to_string(), Json::str(&self.class_key)),
            ("cell".to_string(), Json::count(self.cell_id)),
            ("profile".to_string(), Json::str(&self.profile)),
            ("build".to_string(), Json::str(self.build.label())),
            ("status".to_string(), Json::str(self.status.label())),
            ("replay".to_string(), Json::Bool(self.replay_reproduced)),
            ("live".to_string(), Json::Bool(self.live_failing)),
        ];
        if !self.detail.is_empty() {
            members.push(("detail".to_string(), Json::str(&self.detail)));
        }
        Json::Obj(members)
    }

    pub(crate) fn from_json(j: &Json) -> Result<ClassVerdict, String> {
        let str_field = |k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("verdict missing `{k}`"))
        };
        let bool_field = |k: &str| -> Result<bool, String> {
            j.get(k)
                .and_then(Json::as_bool)
                .ok_or_else(|| format!("verdict missing `{k}`"))
        };
        Ok(ClassVerdict {
            class_key: str_field("class")?,
            cell_id: j
                .get("cell")
                .and_then(Json::as_usize)
                .ok_or("verdict missing `cell`")?,
            profile: str_field("profile")?,
            build: BuildSpec::from_label(&str_field("build")?)?,
            status: ReverifyStatus::from_label(&str_field("status")?)?,
            replay_reproduced: bool_field("replay")?,
            live_failing: bool_field("live")?,
            detail: j
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }
}

/// The machine-readable outcome of one re-verification run: every (class,
/// build) verdict, in deterministic (corpus, build) order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReverifyReport {
    pub verdicts: Vec<ClassVerdict>,
}

impl ReverifyReport {
    /// How many verdicts carry `status`.
    pub fn count(&self, status: ReverifyStatus) -> usize {
        self.verdicts.iter().filter(|v| v.status == status).count()
    }

    /// How many verdicts against `build` carry `status`.
    pub fn count_on(&self, build: BuildSpec, status: ReverifyStatus) -> usize {
        self.verdicts
            .iter()
            .filter(|v| v.build == build && v.status == status)
            .count()
    }

    /// The distinct class keys the report covers.
    pub(crate) fn classes(&self) -> BTreeSet<String> {
        self.verdicts.iter().map(|v| v.class_key.clone()).collect()
    }

    /// A class's status aggregated across every build it was checked on:
    /// the most severe verdict (`StillFailing > Flaky > Fixed > Stale`), so
    /// a class fixed on one build but failing on another stays open.
    pub(crate) fn class_status(&self, class_key: &str) -> Option<ReverifyStatus> {
        self.verdicts
            .iter()
            .filter(|v| v.class_key == class_key)
            .map(|v| v.status)
            .max()
    }

    /// Should compaction keep `class_key`? `StillFailing` and `Flaky`
    /// classes always survive (contested evidence is not discharged);
    /// `Fixed`/`Stale` classes survive only with `keep_fixed`. Classes the
    /// report never checked are kept — re-verification must not
    /// garbage-collect what it did not verify.
    pub fn retain_class(&self, class_key: &str, keep_fixed: bool) -> bool {
        match self.class_status(class_key) {
            Some(ReverifyStatus::StillFailing) | Some(ReverifyStatus::Flaky) | None => true,
            Some(ReverifyStatus::Fixed) | Some(ReverifyStatus::Stale) => keep_fixed,
        }
    }

    /// The class keys [`retain_class`](Self::retain_class) keeps.
    pub fn surviving_classes(&self, keep_fixed: bool) -> BTreeSet<String> {
        self.classes()
            .into_iter()
            .filter(|k| self.retain_class(k, keep_fixed))
            .collect()
    }

    pub fn to_json(&self) -> Json {
        let mut members = vec![("classes".to_string(), Json::count(self.classes().len()))];
        for status in ReverifyStatus::ALL {
            members.push((
                status.label().replace('-', "_"),
                Json::count(self.count(status)),
            ));
        }
        members.push((
            "verdicts".to_string(),
            Json::Arr(self.verdicts.iter().map(ClassVerdict::to_json).collect()),
        ));
        Json::Obj(members)
    }

    pub fn from_json(j: &Json) -> Result<ReverifyReport, String> {
        let verdicts = j
            .get("verdicts")
            .and_then(Json::as_arr)
            .ok_or("report missing `verdicts`")?
            .iter()
            .map(ClassVerdict::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ReverifyReport { verdicts })
    }
}

/// Configuration of one re-verification run.
#[derive(Debug, Clone)]
pub struct ReverifyConfig {
    /// The campaign whose corpus is re-verified. Its identity must match the
    /// directory's checkpoint header — re-verification rebuilds the shard
    /// databases from this recipe, and silently re-verifying against
    /// different data would be meaningless.
    pub campaign: CampaignConfig,
    /// Engine builds every class is re-executed against.
    pub builds: Vec<BuildSpec>,
    /// Worker threads draining the (entry × build) grid.
    pub workers: usize,
}

/// A loaded re-verification campaign: the resumed hunt campaign (validated
/// header, rebuilt shards, cell grid) plus its corpus entries.
pub struct ReverifyCampaign {
    cfg: ReverifyConfig,
    campaign: Campaign,
    entries: Vec<CorpusEntry>,
}

impl ReverifyCampaign {
    /// Open the campaign directory (via [`Campaign::resume`], which refuses a
    /// mismatched identity) and load its corpus.
    pub fn load(cfg: ReverifyConfig) -> io::Result<ReverifyCampaign> {
        let campaign = Campaign::resume(cfg.campaign.clone())?;
        let entries = campaign.corpus().load()?;
        Ok(ReverifyCampaign {
            cfg,
            campaign,
            entries,
        })
    }

    /// The corpus entries under re-verification, in corpus order.
    pub fn entries(&self) -> &[CorpusEntry] {
        &self.entries
    }

    /// Re-verify every corpus class against every configured build with the
    /// worker fleet. Verdicts are deterministic per (entry, build) — thread
    /// scheduling only changes who computes them — and the report lists them
    /// in (corpus, build) order.
    pub fn run(&self) -> (ReverifyReport, ReverifyStats) {
        let started = Instant::now();
        let units: Vec<(&CorpusEntry, BuildSpec)> = self
            .entries
            .iter()
            .flat_map(|e| self.cfg.builds.iter().map(move |&b| (e, b)))
            .collect();
        let mut verdicts = Vec::with_capacity(units.len());
        let Ok(()) = drain_in_order(
            self.cfg.workers,
            &units,
            &AtomicBool::new(false),
            |&(entry, build)| self.verify_one(entry, build),
            |_, verdict| {
                verdicts.push(verdict);
                Ok::<_, Infallible>(())
            },
        );
        let report = ReverifyReport { verdicts };
        let stats = ReverifyStats {
            elapsed: started.elapsed(),
            entries: self.entries.len(),
            builds: self.cfg.builds.len(),
            verdicts: report.verdicts.len(),
            still_failing: report.count(ReverifyStatus::StillFailing),
            fixed: report.count(ReverifyStatus::Fixed),
            flaky: report.count(ReverifyStatus::Flaky),
            stale: report.count(ReverifyStatus::Stale),
        };
        (report, stats)
    }

    /// Both legs for one (entry, build) pair, for either workload: what
    /// differs between a SELECT and a DML class is [`Unit`]'s.
    fn verify_one(&self, entry: &CorpusEntry, build: BuildSpec) -> ClassVerdict {
        let verdict =
            |profile: &str, status: ReverifyStatus, replay: bool, live: bool, detail: String| {
                ClassVerdict {
                    class_key: entry.class_key.clone(),
                    cell_id: entry.cell_id,
                    profile: profile.to_string(),
                    build,
                    status,
                    replay_reproduced: replay,
                    live_failing: live,
                    detail,
                }
            };
        let stale = |profile: &str, detail: String| {
            verdict(profile, ReverifyStatus::Stale, false, false, detail)
        };

        if entry.report.oracle == OracleKind::HarnessPanic {
            // Panic incidents record that the *harness* failed, not that an
            // engine misbehaved — there is no SQL to replay against a build.
            return stale(
                entry.connector.dialect.name(),
                "harness incident, not an engine bug".to_string(),
            );
        }
        let Some(cell) = self.campaign.cells().get(entry.cell_id).copied() else {
            return stale(
                entry.connector.dialect.name(),
                format!("cell {} is outside the campaign grid", entry.cell_id),
            );
        };
        let profile = cell.profile.name();
        let shard = &self.campaign.shards()[cell.shard];
        let unit = match Unit::parse(&entry.report, shard) {
            Ok(unit) => unit,
            Err(detail) => return stale(profile, detail),
        };
        for table in unit.tables() {
            if shard.db.catalog.table(table).is_none() {
                return stale(
                    profile,
                    format!("table `{table}` missing from the rebuilt shard schema"),
                );
            }
        }
        let mut replay = entry.replay_connector();
        for (label, sql, what) in unit.witness_keys(&entry.report) {
            if !replay.contains(&label, &sql) {
                return stale(
                    profile,
                    format!("witness trace no longer serves {what} [{label}]"),
                );
            }
        }

        // Replay leg: the recorded witness, re-judged by the procedure that
        // flagged it.
        let replay_verdict = unit.judge(cell, shard, &mut replay);
        if !replay_verdict.executed() {
            return stale(
                profile,
                "witness trace no longer serves the oracle's statements".to_string(),
            );
        }
        let replay_reproduced = matches_class(&entry.report, replay_verdict.into_bugs());

        // Live leg: a fresh end-to-end execution on the build under test.
        let mut conn = EngineConnector::open(cell.engine, build, cell.profile).loaded(shard);
        let live_verdict = unit.judge(cell, shard, &mut conn);
        if !live_verdict.executed() {
            return stale(
                profile,
                format!("live re-execution on the {} build skipped", build.label()),
            );
        }
        let live_failing = matches_class(&entry.report, live_verdict.into_bugs());

        let (status, detail) = match (replay_reproduced, live_failing) {
            (true, true) => (ReverifyStatus::StillFailing, String::new()),
            (true, false) => (ReverifyStatus::Fixed, String::new()),
            (false, true) => (
                ReverifyStatus::Flaky,
                "witness replay no longer reproduces the class but live re-execution still \
                 trips it"
                    .to_string(),
            ),
            (false, false) => (
                ReverifyStatus::Flaky,
                "neither witness replay nor live re-execution reproduces the recorded class"
                    .to_string(),
            ),
        };
        verdict(profile, status, replay_reproduced, live_failing, detail)
    }
}

/// What a corpus class is re-checked with: its persisted SQL, parsed for the
/// workload that recorded it, and the judge that flagged it.
enum Unit {
    /// A SELECT statement, judged by the cell's oracle (the plan-space
    /// oracle for plan-space cells — the witness trace recorded every
    /// enumerated plan's execution).
    Select(Box<SelectStmt>),
    /// A whole DML + transaction program, judged by the delta-maintained
    /// mutation ground truth. Its witness trace serves every statement of it
    /// (recorded under the `dml` label) plus the oracle's per-table
    /// verification probes.
    Dml(Vec<DmlStmt>, DmlOracle),
}

impl Unit {
    fn parse(report: &BugReport, shard: &DsgDatabase) -> Result<Unit, String> {
        if report.oracle == OracleKind::Mutation {
            parse_program(&report.sql)
                .map(|program| Unit::Dml(program, DmlOracle::new(&shard.db.catalog)))
                .map_err(|e| format!("program no longer parses: {e}"))
        } else {
            parse_stmt(&report.sql)
                .map(|stmt| Unit::Select(Box::new(stmt)))
                .map_err(|e| format!("sql no longer parses: {e}"))
        }
    }

    /// The tables the unit reads or writes.
    fn tables(&self) -> Vec<&str> {
        match self {
            Unit::Select(stmt) => stmt
                .from
                .tables()
                .into_iter()
                .map(|t| t.table.as_str())
                .collect(),
            Unit::Dml(program, _) => program.iter().filter_map(DmlStmt::table).collect(),
        }
    }

    /// The `(label, sql)` keys the witness trace must serve, each with how a
    /// `Stale` detail names it.
    fn witness_keys(&self, report: &BugReport) -> Vec<(String, String, String)> {
        match self {
            Unit::Select(_) => vec![(
                report.hint_label.clone(),
                report.sql.clone(),
                "the failing statement".to_string(),
            )],
            Unit::Dml(program, _) => program
                .iter()
                .map(|stmt| {
                    let sql = render_dml(stmt);
                    let what = format!("`{sql}`");
                    ("dml".to_string(), sql, what)
                })
                .collect(),
        }
    }

    fn judge(
        &self,
        cell: CampaignCell,
        shard: &Arc<DsgDatabase>,
        conn: &mut dyn DbmsConnector,
    ) -> OracleVerdict {
        match self {
            Unit::Select(stmt) => cell.build_oracle(shard).check(stmt, conn),
            Unit::Dml(program, oracle) => oracle.check_program(program, conn),
        }
    }
}

/// Does any of `candidates` re-establish `recorded`'s class? Matching is by
/// build-independent [`BugReport::cause_key`]; candidates inherit the
/// recorded fingerprint — they re-executed the *same* statement, whose
/// canonical plan graph is by construction the recorded one — so the
/// comparison reduces to the root-cause fault set (plus hint label when no
/// fingerprint was ever stamped).
fn matches_class(recorded: &BugReport, candidates: Vec<BugReport>) -> bool {
    let want = recorded.cause_key();
    candidates.into_iter().any(|mut report| {
        report.set_fingerprint(recorded.fingerprint);
        report.cause_key() == want
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{OracleSpec, PlanMode, Workload};
    use tqs_core::backend::EngineKind;
    use tqs_core::dsg::{DsgConfig, WideSource};
    use tqs_engine::ProfileId;
    use tqs_schema::NoiseConfig;
    use tqs_storage::widegen::ShoppingConfig;

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tqs-reverify-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: std::path::PathBuf) -> CampaignConfig {
        CampaignConfig {
            dir,
            dsg: DsgConfig {
                source: WideSource::Shopping(ShoppingConfig {
                    n_rows: 90,
                    ..Default::default()
                }),
                fd: Default::default(),
                noise: Some(NoiseConfig {
                    epsilon: 0.04,
                    seed: 5,
                    max_injections: 10,
                }),
            },
            shards: 2,
            workers: 2,
            profiles: vec![ProfileId::MysqlLike],
            oracles: vec![OracleSpec::GroundTruth],
            engines: vec![EngineKind::Row],
            plan_modes: vec![PlanMode::Single],
            workloads: vec![Workload::Select],
            queries_per_cell: 30,
            seed: 77,
            minimize: false,
            max_cells_per_run: None,
            supervisor: Default::default(),
        }
    }

    fn sample_verdict(status: ReverifyStatus, build: BuildSpec) -> ClassVerdict {
        ClassVerdict {
            class_key: "MySQL-like|SemiJoinWrongResults|plan:00000000000000a1".into(),
            cell_id: 3,
            profile: "MySQL-like".into(),
            build,
            status,
            replay_reproduced: status != ReverifyStatus::Stale,
            live_failing: status == ReverifyStatus::StillFailing,
            detail: match status {
                ReverifyStatus::Stale => "sql no longer parses: boom".into(),
                _ => String::new(),
            },
        }
    }

    #[test]
    fn verdicts_round_trip_through_json() {
        for status in ReverifyStatus::ALL {
            for build in BuildSpec::ALL {
                let v = sample_verdict(status, build);
                let back = ClassVerdict::from_json(&Json::parse(&v.to_json().to_string()).unwrap())
                    .unwrap();
                assert_eq!(back, v);
            }
        }
    }

    #[test]
    fn report_aggregates_by_severity_and_gc_spares_the_unverified() {
        let mut report = ReverifyReport::default();
        report
            .verdicts
            .push(sample_verdict(ReverifyStatus::Fixed, BuildSpec::Pristine));
        report.verdicts.push(sample_verdict(
            ReverifyStatus::StillFailing,
            BuildSpec::Faulty,
        ));
        let key = &report.verdicts[0].class_key.clone();
        // Fixed on pristine + still failing on faulty → the class stays open.
        assert_eq!(report.class_status(key), Some(ReverifyStatus::StillFailing));
        assert!(report.retain_class(key, false));
        // A class the report never saw is never garbage-collected.
        assert!(report.retain_class("never-checked", false));
        assert_eq!(report.count(ReverifyStatus::Fixed), 1);
        assert_eq!(
            report.count_on(BuildSpec::Faulty, ReverifyStatus::StillFailing),
            1
        );
        assert_eq!(report.surviving_classes(false).len(), 1);
        // Round trip the whole report.
        let back = ReverifyReport::from_json(&Json::parse(&report.to_json().to_string()).unwrap())
            .unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn status_severity_order_backs_the_aggregation() {
        assert!(ReverifyStatus::StillFailing > ReverifyStatus::Flaky);
        assert!(ReverifyStatus::Flaky > ReverifyStatus::Fixed);
        assert!(ReverifyStatus::Fixed > ReverifyStatus::Stale);
        for s in ReverifyStatus::ALL {
            assert_eq!(ReverifyStatus::from_label(s.label()), Ok(s));
        }
        for b in BuildSpec::ALL {
            assert_eq!(BuildSpec::from_label(b.label()), Ok(b));
        }
    }

    #[test]
    fn corrupted_entries_re_verify_as_stale() {
        let dir = test_dir("stale");
        let grid = || CampaignConfig {
            workloads: vec![Workload::Select, Workload::Dml],
            ..cfg(dir.clone())
        };
        let mut campaign = Campaign::new(grid()).unwrap();
        campaign.run().unwrap();
        let corpus = campaign.corpus().clone();
        let entries = corpus.load().unwrap();
        let template = |mutation: bool| {
            entries
                .iter()
                .find(|e| (e.report.oracle == OracleKind::Mutation) == mutation)
                .cloned()
                .unwrap()
        };
        let (select, dml) = (template(false), template(true));

        // Corrupt one entry of each workload four ways: unparseable sql, a
        // dropped table, a witness trace that no longer covers the failing
        // statement, and a cell outside the grid.
        let corrupt = |template: &CorpusEntry, bad_sql: &str, gone_sql: &str| {
            let mut bad = template.clone();
            bad.report.sql = bad_sql.into();
            let mut gone = template.clone();
            gone.report.sql = gone_sql.into();
            let mut no_trace = template.clone();
            no_trace.trace.clear();
            let mut out_of_grid = template.clone();
            out_of_grid.cell_id = 999;
            [bad, gone, no_trace, out_of_grid]
        };
        let mut corrupted =
            corrupt(&select, "SELECT FROM WHERE", "SELECT Gone.x FROM Gone").to_vec();
        corrupted.extend(corrupt(&dml, "INSERT INTO", "DELETE FROM Gone"));
        // Rewrite the corpus with only the corrupted variants.
        let text: String = corrupted
            .iter()
            .map(|e| format!("{}\n", e.to_json()))
            .collect();
        std::fs::write(corpus.path(), text).unwrap();

        let reverify = ReverifyCampaign::load(ReverifyConfig {
            campaign: grid(),
            builds: vec![BuildSpec::Faulty],
            workers: 2,
        })
        .unwrap();
        let (report, stats) = reverify.run();
        assert_eq!(stats.verdicts, 8);
        assert_eq!(stats.stale, 8, "{report:#?}");
        assert!(report
            .verdicts
            .iter()
            .all(|v| v.status == ReverifyStatus::Stale));
        let first_dml = render_dml(&parse_program(&dml.report.sql).unwrap()[0]);
        let details: Vec<&str> = report.verdicts.iter().map(|v| v.detail.as_str()).collect();
        assert_eq!(
            details,
            [
                r#"sql no longer parses: parse error at byte 12: expected keyword FROM, found Ident("WHERE")"#
                    .to_string(),
                "table `Gone` missing from the rebuilt shard schema".to_string(),
                format!(
                    "witness trace no longer serves the failing statement [{}]",
                    select.report.hint_label
                ),
                "cell 999 is outside the campaign grid".to_string(),
                "program no longer parses: parse error at byte 11: expected identifier, found Eof"
                    .to_string(),
                "table `Gone` missing from the rebuilt shard schema".to_string(),
                format!("witness trace no longer serves `{first_dml}` [dml]"),
                "cell 999 is outside the campaign grid".to_string(),
            ]
        );
        // Stale classes are garbage-collected unless kept.
        for template in [&select, &dml] {
            assert!(!report.retain_class(&template.class_key, false));
            assert!(report.retain_class(&template.class_key, true));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
