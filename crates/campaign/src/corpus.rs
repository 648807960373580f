//! The append-only JSONL bug corpus.
//!
//! Every time the campaign triage admits a *new* bug class, one line is
//! appended to `corpus.jsonl` in the campaign directory: the representative
//! [`BugReport`] (minimized when the reducer ran), the class key, and the
//! witness trace — the recorded statements and full result sets that
//! established the divergence. The trace is enough to rebuild a
//! [`ReplayConnector`], so any persisted bug re-executes bit-for-bit without
//! the engine build that produced it.
//!
//! The format is line-oriented on purpose: appends from concurrent workers
//! serialize through one lock, a killed campaign loses at most the final
//! partial line (the `journal` contract), and `grep` works
//! on it.

use crate::journal::Journal;
use std::io;
use std::path::Path;
use tqs_core::backend::{ConnectorInfo, ReplayConnector, SqlOutcome, TraceEvent};
use tqs_core::bugs::{BugReport, OracleKind};
use tqs_engine::{FaultKind, ProfileId};
use tqs_pager::envfault::EnvFaultPolicy;
use tqs_sql::value::{Decimal, Value};
use tqs_storage::{ResultSet, Row};
use tqs_telemetry::Json;

/// One recorded statement of a witness trace: the rendered SQL, the hint-set
/// label it ran under, and the full outcome (result rows + fired faults, or
/// the error message).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredStatement {
    pub label: String,
    pub sql: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
    pub fired: Vec<FaultKind>,
    pub error: Option<String>,
}

/// One corpus line: a deduplicated bug class with its representative report
/// and replayable witness trace.
#[derive(Debug, Clone)]
pub struct CorpusEntry {
    /// Id of the campaign cell that discovered the class.
    pub cell_id: usize,
    /// The triage key ([`BugReport::class_key`]) the fleet deduplicates on.
    pub class_key: String,
    /// Metadata of the backend build that produced the witness trace.
    pub connector: ConnectorInfo,
    pub report: BugReport,
    pub trace: Vec<StoredStatement>,
}

// ---------------------------------------------------------------------------
// enum <-> label round-trips
// ---------------------------------------------------------------------------

fn fault_label(f: FaultKind) -> String {
    format!("{f:?}")
}

fn fault_from_label(label: &str) -> Result<FaultKind, String> {
    FaultKind::ALL
        .iter()
        .chain(FaultKind::COLUMNAR.iter())
        .chain(FaultKind::DISK.iter())
        .chain(FaultKind::OPTIMIZER.iter())
        .chain(FaultKind::DML.iter())
        .copied()
        .find(|f| fault_label(*f) == label)
        .ok_or_else(|| format!("unknown fault kind `{label}`"))
}

fn oracle_kind_label(k: OracleKind) -> String {
    format!("{k:?}")
}

fn oracle_kind_from_label(label: &str) -> Result<OracleKind, String> {
    const ALL: [OracleKind; 9] = [
        OracleKind::GroundTruth,
        OracleKind::Differential,
        OracleKind::CrossEngine,
        OracleKind::PivotMissing,
        OracleKind::Partitioning,
        OracleKind::NonOptimizingRewrite,
        OracleKind::PlanSpace,
        OracleKind::Mutation,
        OracleKind::HarnessPanic,
    ];
    ALL.into_iter()
        .find(|k| oracle_kind_label(*k) == label)
        .ok_or_else(|| format!("unknown oracle kind `{label}`"))
}

fn profile_from_name(name: &str) -> Result<ProfileId, String> {
    ProfileId::ALL
        .into_iter()
        .find(|p| p.name() == name)
        .ok_or_else(|| format!("unknown profile `{name}`"))
}

// ---------------------------------------------------------------------------
// Value <-> Json (exact round-trip: everything is a tagged string pair)
// ---------------------------------------------------------------------------

/// `Value` as a `[tag, text]` pair. Numeric payloads go through strings so
/// i64/u64/i128 widths and float bit patterns survive the f64-only JSON
/// number space.
pub(crate) fn value_to_json(v: &Value) -> Json {
    let (tag, text) = match v {
        Value::Null => ("null", String::new()),
        Value::Bool(b) => ("bool", b.to_string()),
        Value::Int(i) => ("int", i.to_string()),
        Value::UInt(u) => ("uint", u.to_string()),
        // Debug-formatting floats yields the shortest round-trip decimal.
        Value::Float(f) => ("float", format!("{f:?}")),
        Value::Double(d) => ("double", format!("{d:?}")),
        Value::Decimal(d) => ("dec", format!("{}/{}", d.mantissa, d.scale)),
        Value::Varchar(s) => ("str", s.clone()),
        Value::Text(s) => ("text", s.clone()),
        Value::Date(d) => ("date", d.to_string()),
    };
    Json::Arr(vec![Json::str(tag), Json::str(text)])
}

pub(crate) fn value_from_json(j: &Json) -> Result<Value, String> {
    let pair = j.as_arr().ok_or("value must be a [tag, text] pair")?;
    let [tag, text] = pair else {
        return Err(format!("value pair has {} elements", pair.len()));
    };
    let tag = tag.as_str().ok_or("value tag must be a string")?;
    let text = text.as_str().ok_or("value text must be a string")?;
    fn num<T: std::str::FromStr>(tag: &str, text: &str) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("bad {tag} payload `{text}`"))
    }
    Ok(match tag {
        "null" => Value::Null,
        "bool" => Value::Bool(num(tag, text)?),
        "int" => Value::Int(num(tag, text)?),
        "uint" => Value::UInt(num(tag, text)?),
        "float" => Value::Float(num(tag, text)?),
        "double" => Value::Double(num(tag, text)?),
        "dec" => {
            let (m, s) = text
                .split_once('/')
                .ok_or_else(|| format!("bad decimal `{text}`"))?;
            let scale = s
                .parse()
                .ok()
                .filter(|s| *s <= Decimal::MAX_SCALE)
                .ok_or_else(|| format!("bad scale `{s}`"))?;
            Value::Decimal(Decimal::new(
                m.parse().map_err(|_| format!("bad mantissa `{m}`"))?,
                scale,
            ))
        }
        "str" => Value::Varchar(text.to_string()),
        "text" => Value::Text(text.to_string()),
        "date" => Value::Date(num(tag, text)?),
        other => return Err(format!("unknown value tag `{other}`")),
    })
}

// ---------------------------------------------------------------------------
// StoredStatement / CorpusEntry <-> Json
// ---------------------------------------------------------------------------

impl StoredStatement {
    /// Convert a recorded [`TraceEvent`] (statement events only; catalog
    /// loads and explains carry no replayable outcome a bug witness needs).
    pub fn from_event(ev: &TraceEvent) -> Option<StoredStatement> {
        let TraceEvent::Statement {
            label,
            sql,
            outcome,
        } = ev
        else {
            return None;
        };
        Some(match outcome {
            Ok(out) => StoredStatement {
                label: label.clone(),
                sql: sql.clone(),
                columns: out.result.columns.clone(),
                rows: out.result.rows.iter().map(|r| r.values.clone()).collect(),
                fired: out.fired.clone(),
                error: None,
            },
            Err(e) => StoredStatement {
                label: label.clone(),
                sql: sql.clone(),
                columns: Vec::new(),
                rows: Vec::new(),
                fired: Vec::new(),
                error: Some(e.clone()),
            },
        })
    }

    /// Back to a [`TraceEvent`] for [`ReplayConnector::from_trace`].
    pub(crate) fn to_event(&self) -> TraceEvent {
        let outcome = match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(SqlOutcome {
                result: ResultSet {
                    columns: self.columns.clone(),
                    rows: self.rows.iter().cloned().map(Row::new).collect(),
                },
                fired: self.fired.clone(),
            }),
        };
        TraceEvent::Statement {
            label: self.label.clone(),
            sql: self.sql.clone(),
            outcome,
        }
    }

    fn to_json(&self) -> Json {
        let mut members = vec![
            ("label".to_string(), Json::str(&self.label)),
            ("sql".to_string(), Json::str(&self.sql)),
            (
                "columns".to_string(),
                Json::Arr(self.columns.iter().map(Json::str).collect()),
            ),
            (
                "rows".to_string(),
                Json::Arr(
                    self.rows
                        .iter()
                        .map(|r| Json::Arr(r.iter().map(value_to_json).collect()))
                        .collect(),
                ),
            ),
            (
                "fired".to_string(),
                Json::Arr(
                    self.fired
                        .iter()
                        .map(|f| Json::str(fault_label(*f)))
                        .collect(),
                ),
            ),
        ];
        if let Some(e) = &self.error {
            members.push(("error".to_string(), Json::str(e)));
        }
        Json::Obj(members)
    }

    fn from_json(j: &Json) -> Result<StoredStatement, String> {
        let str_field = |k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("statement missing `{k}`"))
        };
        let rows = j
            .get("rows")
            .and_then(Json::as_arr)
            .ok_or("statement missing `rows`")?
            .iter()
            .map(|r| {
                r.as_arr()
                    .ok_or_else(|| "row must be an array".to_string())?
                    .iter()
                    .map(value_from_json)
                    .collect::<Result<Vec<Value>, String>>()
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(StoredStatement {
            label: str_field("label")?,
            sql: str_field("sql")?,
            columns: json_string_list(j.get("columns"), "columns")?,
            rows,
            fired: json_string_list(j.get("fired"), "fired")?
                .iter()
                .map(|l| fault_from_label(l))
                .collect::<Result<Vec<_>, String>>()?,
            error: j.get("error").and_then(Json::as_str).map(String::from),
        })
    }
}

fn json_string_list(j: Option<&Json>, what: &str) -> Result<Vec<String>, String> {
    j.and_then(Json::as_arr)
        .ok_or_else(|| format!("missing `{what}` list"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(String::from)
                .ok_or_else(|| format!("`{what}` entries must be strings"))
        })
        .collect()
}

impl CorpusEntry {
    /// A replay backend serving this entry's witness trace: the stored
    /// statements come back with their recorded result sets, everything else
    /// misses (exactly like any unrecorded statement on a replay backend).
    pub fn replay_connector(&self) -> ReplayConnector {
        ReplayConnector::from_trace(
            self.connector.clone(),
            self.trace.iter().map(StoredStatement::to_event).collect(),
        )
    }

    pub(crate) fn to_json(&self) -> Json {
        let r = &self.report;
        let mut members = vec![
            ("cell".to_string(), Json::count(self.cell_id)),
            ("class".to_string(), Json::str(&self.class_key)),
            ("dbms".to_string(), Json::str(&self.connector.name)),
            ("version".to_string(), Json::str(&self.connector.version)),
            (
                "dialect".to_string(),
                Json::str(self.connector.dialect.name()),
            ),
            ("oracle".to_string(), Json::str(oracle_kind_label(r.oracle))),
            ("sql".to_string(), Json::str(&r.sql)),
            ("transformed_sql".to_string(), Json::str(&r.transformed_sql)),
            ("hint_label".to_string(), Json::str(&r.hint_label)),
            ("expected_rows".to_string(), Json::count(r.expected_rows)),
            ("observed_rows".to_string(), Json::count(r.observed_rows)),
            (
                "fired".to_string(),
                Json::Arr(r.fired.iter().map(|f| Json::str(fault_label(*f))).collect()),
            ),
        ];
        // Emitted only when true, so corpora from fault-free builds stay
        // byte-identical to the pre-optimizer format.
        if self.connector.seeded_faults {
            members.push(("seeded".to_string(), Json::Bool(true)));
        }
        if let Some(m) = &r.minimized_sql {
            members.push(("minimized_sql".to_string(), Json::str(m)));
        }
        if let Some(fp) = r.fingerprint {
            members.push(("fingerprint".to_string(), Json::str(format!("{fp:016x}"))));
        }
        members.push((
            "trace".to_string(),
            Json::Arr(self.trace.iter().map(StoredStatement::to_json).collect()),
        ));
        Json::Obj(members)
    }

    pub(crate) fn from_json(j: &Json) -> Result<CorpusEntry, String> {
        let str_field = |k: &str| -> Result<String, String> {
            j.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("corpus entry missing `{k}`"))
        };
        let count_field = |k: &str| -> Result<usize, String> {
            j.get(k)
                .and_then(Json::as_usize)
                .ok_or_else(|| format!("corpus entry missing `{k}`"))
        };
        let fingerprint = match j.get("fingerprint").and_then(Json::as_str) {
            Some(hex) => {
                Some(u64::from_str_radix(hex, 16).map_err(|_| format!("bad fingerprint `{hex}`"))?)
            }
            None => None,
        };
        let report = BugReport {
            dbms: str_field("dbms")?,
            oracle: oracle_kind_from_label(&str_field("oracle")?)?,
            sql: str_field("sql")?,
            transformed_sql: str_field("transformed_sql")?,
            hint_label: str_field("hint_label")?,
            expected_rows: count_field("expected_rows")?,
            observed_rows: count_field("observed_rows")?,
            fired: json_string_list(j.get("fired"), "fired")?
                .iter()
                .map(|l| fault_from_label(l))
                .collect::<Result<Vec<_>, String>>()?,
            minimized_sql: j
                .get("minimized_sql")
                .and_then(Json::as_str)
                .map(String::from),
            fingerprint,
            keys: Default::default(),
        };
        let trace = j
            .get("trace")
            .and_then(Json::as_arr)
            .ok_or("corpus entry missing `trace`")?
            .iter()
            .map(StoredStatement::from_json)
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CorpusEntry {
            cell_id: count_field("cell")?,
            class_key: str_field("class")?,
            connector: ConnectorInfo {
                name: str_field("dbms")?,
                version: str_field("version")?,
                dialect: profile_from_name(&str_field("dialect")?)?,
                seeded_faults: j.get("seeded").and_then(Json::as_bool).unwrap_or(false),
            },
            report,
            trace,
        })
    }
}

/// Handle on the append-only corpus file of one campaign directory.
#[derive(Debug, Clone)]
pub struct Corpus {
    journal: Journal,
}

impl Corpus {
    pub fn in_dir(dir: &Path) -> Corpus {
        Corpus {
            journal: Journal::in_dir(dir, "corpus", "campaign.corpus.torn_lines_dropped"),
        }
    }

    pub fn path(&self) -> &Path {
        self.journal.path()
    }

    /// Append one entry as a single line, fsynced, with no fault
    /// injection. Callers serialize appends
    /// through the campaign's io lock.
    pub fn append(&self, entry: &CorpusEntry) -> io::Result<()> {
        self.append_with(entry, &EnvFaultPolicy::off())
    }

    /// Append one entry through an environmental fault policy.
    pub(crate) fn append_with(&self, entry: &CorpusEntry, env: &EnvFaultPolicy) -> io::Result<()> {
        tqs_telemetry::counter!("campaign.corpus.appends").incr();
        self.journal.append(&entry.to_json(), env)
    }

    /// Load every complete entry; a missing corpus is empty.
    pub fn load(&self) -> io::Result<Vec<CorpusEntry>> {
        self.journal.load_or_empty(|_, j| CorpusEntry::from_json(j))
    }

    /// Truncate a torn final line left by a kill mid-append.
    pub(crate) fn repair_torn_tail(&self) -> io::Result<bool> {
        self.journal.repair_torn_tail()
    }

    /// Rewrite the corpus keeping **one representative entry per class key
    /// accepted by `retain`**: the class's first minimized entry, or its
    /// first entry when none was minimized. Classes `retain` rejects (fixed
    /// or stale under re-verification) are garbage-collected wholesale.
    ///
    /// Output order follows each surviving class's first appearance and the
    /// serialization is deterministic, so compaction is **idempotent**: a
    /// second pass over a compacted corpus rewrites it byte-identically.
    /// A kill mid-compact leaves the original corpus intact.
    pub fn compact(&self, retain: impl Fn(&str) -> bool) -> io::Result<CompactionStats> {
        let entries = self.load()?;
        let mut kept: Vec<CorpusEntry> = Vec::new();
        let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        let mut stats = CompactionStats::default();
        for entry in entries {
            if !retain(&entry.class_key) {
                stats.classes_dropped += 1;
                continue;
            }
            match index.get(&entry.class_key) {
                None => {
                    index.insert(entry.class_key.clone(), kept.len());
                    kept.push(entry);
                }
                Some(&at) => {
                    stats.duplicates_dropped += 1;
                    if kept[at].report.minimized_sql.is_none()
                        && entry.report.minimized_sql.is_some()
                    {
                        kept[at] = entry;
                    }
                }
            }
        }
        stats.kept = kept.len();
        self.journal
            .rewrite(kept.iter().map(CorpusEntry::to_json))?;
        Ok(stats)
    }
}

/// Outcome of one [`Corpus::compact`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Entries surviving the pass (one per retained class).
    pub kept: usize,
    /// Extra entries of retained classes that were collapsed away.
    pub duplicates_dropped: usize,
    /// Entries whose whole class was garbage-collected.
    pub classes_dropped: usize,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::fs::OpenOptions;
    use std::io::Write;
    use tqs_core::backend::DbmsConnector;

    pub(crate) fn sample_entry() -> CorpusEntry {
        let report = BugReport {
            dbms: "MySQL-like".into(),
            oracle: OracleKind::GroundTruth,
            sql: "SELECT T1.a FROM T1".into(),
            transformed_sql: "SELECT /*+ HASH_JOIN(T1) */ T1.a FROM T1".into(),
            hint_label: "hash-join".into(),
            expected_rows: 3,
            observed_rows: 2,
            fired: vec![FaultKind::HashJoinNullMatchesEmpty],
            minimized_sql: Some("SELECT T1.a FROM T1".into()),
            fingerprint: Some(0xfeed_beef_dead_cafe),
            keys: Default::default(),
        };
        let trace = vec![
            StoredStatement {
                label: "hash-join".into(),
                sql: "SELECT T1.a FROM T1".into(),
                columns: vec!["a".into()],
                rows: vec![
                    vec![Value::Int(1)],
                    vec![Value::Null],
                    vec![Value::Decimal(Decimal::new(150, 2))],
                ],
                fired: vec![FaultKind::HashJoinNullMatchesEmpty],
                error: None,
            },
            StoredStatement {
                label: "sql".into(),
                sql: "SELECT x.a FROM missing x".into(),
                columns: vec![],
                rows: vec![],
                fired: vec![],
                error: Some("unknown table `missing`".into()),
            },
        ];
        CorpusEntry {
            cell_id: 7,
            class_key: report.class_key().to_string(),
            connector: ConnectorInfo {
                name: "MySQL-like".into(),
                version: "8.0.28-sim".into(),
                dialect: ProfileId::MysqlLike,
                seeded_faults: true,
            },
            report,
            trace,
        }
    }

    #[test]
    fn entries_round_trip_through_json() {
        let e = sample_entry();
        let j = e.to_json();
        let back = CorpusEntry::from_json(&Json::parse(&j.to_string()).unwrap()).unwrap();
        assert_eq!(back.cell_id, e.cell_id);
        assert_eq!(back.class_key, e.class_key);
        assert_eq!(back.report.fingerprint, e.report.fingerprint);
        assert_eq!(back.report.fired, e.report.fired);
        assert_eq!(back.report.class_key(), e.report.class_key());
        assert_eq!(back.trace, e.trace);
        assert_eq!(back.connector.dialect, ProfileId::MysqlLike);
    }

    #[test]
    fn mutation_entries_round_trip_through_json() {
        // A mutation-workload class: Mutation oracle kind, DML fault
        // provenance, a multi-statement program as its SQL, no fingerprint.
        let mut e = sample_entry();
        e.report.oracle = OracleKind::Mutation;
        e.report.sql = "INSERT INTO T1 (a) VALUES (1); COMMIT".into();
        e.report.hint_label = "dml".into();
        e.report.fired = vec![FaultKind::DmlRollbackLeaksInsertedRow];
        e.report.fingerprint = None;
        e.report.minimized_sql = None;
        e.report.keys = Default::default();
        e.class_key = e.report.class_key().to_string();
        let back = CorpusEntry::from_json(&Json::parse(&e.to_json().to_string()).unwrap()).unwrap();
        assert_eq!(back.report.oracle, OracleKind::Mutation);
        assert_eq!(back.report.fired, e.report.fired);
        assert_eq!(back.class_key, e.class_key);
        assert_eq!(back.report.class_key(), e.report.class_key());
    }

    #[test]
    fn all_value_variants_round_trip() {
        let values = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::UInt(u64::MAX),
            Value::Float(1.5e-3),
            Value::Double(std::f64::consts::PI),
            Value::Decimal(Decimal::new(-12345, 3)),
            Value::str("a\"b\nc"),
            Value::text("long text"),
            Value::Date(19876),
        ];
        for v in values {
            let back = value_from_json(&Json::parse(&value_to_json(&v).to_string()).unwrap());
            assert_eq!(back.as_ref(), Ok(&v), "{v:?}");
        }
    }

    #[test]
    fn a_decimal_scale_beyond_an_i128_is_rejected() {
        let dec = |text: &str| value_from_json(&Json::Arr(vec![Json::str("dec"), Json::str(text)]));
        assert_eq!(dec("1/38"), Ok(Value::Decimal(Decimal::new(1, 38))));
        assert!(dec("1/39").is_err());
        assert!(dec("1/40").is_err());
        assert!(dec("1/256").is_err());
    }

    #[test]
    fn corpus_appends_and_loads_with_torn_tail() {
        let dir = std::env::temp_dir().join(format!("tqs-corpus-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = Corpus::in_dir(&dir);
        let _ = std::fs::remove_file(corpus.path());
        corpus.append(&sample_entry()).unwrap();
        corpus.append(&sample_entry()).unwrap();
        // simulate a kill mid-append
        {
            let mut f = OpenOptions::new().append(true).open(corpus.path()).unwrap();
            f.write_all(b"{\"cell\": 9, \"class\": \"torn").unwrap();
        }
        let loaded = corpus.load().unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded[0].class_key, sample_entry().class_key);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repair_truncates_tails_torn_inside_a_multibyte_char() {
        let dir = std::env::temp_dir().join(format!("tqs-torn-utf8-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = Corpus::in_dir(&dir);
        let _ = std::fs::remove_file(corpus.path());
        assert!(!corpus.repair_torn_tail().unwrap(), "absent file untouched");
        corpus.append(&sample_entry()).unwrap();
        assert!(
            !corpus.repair_torn_tail().unwrap(),
            "healthy file untouched"
        );
        // A kill can land mid-way through a multi-byte UTF-8 character:
        // 0xCE is the first byte of a two-byte sequence, never valid alone.
        {
            let mut f = OpenOptions::new().append(true).open(corpus.path()).unwrap();
            f.write_all(b"{\"class\": \"\xCE").unwrap();
        }
        assert!(corpus.repair_torn_tail().unwrap());
        assert_eq!(corpus.load().unwrap().len(), 1);
        assert!(!corpus.repair_torn_tail().unwrap(), "repair is idempotent");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compact_keeps_one_minimized_representative_per_surviving_class() {
        let dir = std::env::temp_dir().join(format!("tqs-compact-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let corpus = Corpus::in_dir(&dir);
        let _ = std::fs::remove_file(corpus.path());
        // Class A twice (first sighting unminimized, second minimized) and
        // class B once; B's class is garbage-collected by `retain`.
        let mut raw = sample_entry();
        raw.report.minimized_sql = None;
        corpus.append(&raw).unwrap();
        corpus.append(&sample_entry()).unwrap();
        let mut fixed = sample_entry();
        // `with_fingerprint` resets the report's memoized keys; a direct
        // field write would leave the cached class key stale.
        fixed.report = fixed.report.clone().with_fingerprint(0x0B);
        fixed.class_key = fixed.report.class_key().to_string();
        corpus.append(&fixed).unwrap();

        let keep = sample_entry().class_key;
        let stats = corpus.compact(|k| k == keep).unwrap();
        assert_eq!(
            stats,
            CompactionStats {
                kept: 1,
                duplicates_dropped: 1,
                classes_dropped: 1,
            }
        );
        let survivors = corpus.load().unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].class_key, keep);
        assert!(survivors[0].report.minimized_sql.is_some());

        // Idempotent: the second pass is a byte-identical no-op.
        let before = std::fs::read(corpus.path()).unwrap();
        let again = corpus.compact(|k| k == keep).unwrap();
        assert_eq!((again.duplicates_dropped, again.classes_dropped), (0, 0));
        assert_eq!(std::fs::read(corpus.path()).unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn witness_trace_replays_through_replay_connector() {
        let e = sample_entry();
        let mut replay = e.replay_connector();
        assert_eq!(replay.info().name, "MySQL-like");
        let stmt = tqs_sql::parser::parse_stmt(&e.trace[0].sql).unwrap();
        let out = replay
            .execute_with_hints(&stmt, &tqs_sql::hints::HintSet::new("hash-join"))
            .unwrap();
        assert_eq!(out.result.row_count(), 3);
        assert_eq!(out.fired, vec![FaultKind::HashJoinNullMatchesEmpty]);
        // The recorded error replays as an error.
        assert!(replay.execute_sql("SELECT x.a FROM missing x").is_err());
    }
}
