//! The append-only JSONL journal behind the campaign's three files:
//! `checkpoint.jsonl`, `corpus.jsonl` and `quarantine.jsonl`.
//!
//! One record per line, one contract for all three:
//!
//! * **Append** is atomic-or-absent ([`append_line_durable`]): the whole
//!   line lands, or the file is rolled back to its previous length. With
//!   `sync` the fsync is the commit point.
//! * **Load** reads bytes and decodes line by line. Blank lines are skipped.
//!   A malformed line is corruption and fails the load — unless it is the
//!   unterminated last line (a kill mid-append), which is dropped when it
//!   fails to decode or parse, counted and traced.
//! * **Repair** ([`Journal::repair_torn_tail`]) truncates that torn tail so
//!   a resumed campaign's appends start on a fresh line.
//!
//! [`Checkpoint`](crate::checkpoint::Checkpoint),
//! [`Corpus`](crate::corpus::Corpus) and
//! [`Quarantine`](crate::supervisor::Quarantine) are typed wrappers that
//! only say how a record becomes a line and back.

use crate::supervisor::append_line_durable;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use tqs_pager::envfault::EnvFaultPolicy;
use tqs_telemetry::Json;

/// Handle on one journal file.
#[derive(Debug, Clone)]
pub(crate) struct Journal {
    path: PathBuf,
    /// `corpus`, `checkpoint` or `quarantine`: the file stem, and the prefix
    /// of the journal's `*.torn_line_dropped` trace event.
    name: &'static str,
    /// The counter a dropped torn line increments.
    torn_counter: &'static str,
}

impl Journal {
    /// The journal `<name>.jsonl` in `dir`.
    pub(crate) fn in_dir(dir: &Path, name: &'static str, torn_counter: &'static str) -> Journal {
        Journal {
            path: dir.join(format!("{name}.jsonl")),
            name,
            torn_counter,
        }
    }

    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Start the journal afresh (truncating) with `first` as its only line.
    pub(crate) fn create(&self, first: &Json) -> io::Result<()> {
        let mut f = std::fs::File::create(&self.path)?;
        f.write_all(line(first).as_bytes())?;
        f.flush()
    }

    /// Append one record durably (see the module docs).
    pub(crate) fn append(&self, record: &Json, env: &EnvFaultPolicy) -> io::Result<()> {
        append_line_durable(&self.path, line(record).as_bytes(), env)
    }

    /// Replace the whole journal with `records`, through a temp file and a
    /// rename, so a kill mid-rewrite leaves the original intact.
    pub(crate) fn rewrite(&self, records: impl IntoIterator<Item = Json>) -> io::Result<()> {
        let text: String = records.into_iter().map(|r| line(&r)).collect();
        let tmp = self.path.with_extension("jsonl.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            // Flush the data to disk before the rename commits: rename
            // metadata is not ordered after data blocks on every filesystem,
            // and a power cut in that window would replace the journal with
            // an empty file — far worse than the torn tail appends risk.
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)
    }

    /// Every record, parsed by `parse(ordinal, json)` where `ordinal`
    /// counts the non-blank lines before this one. A missing file is
    /// `NotFound` (see [`Journal::load_or_empty`]); the torn-tail rule is in
    /// the module docs.
    pub(crate) fn load<T>(
        &self,
        mut parse: impl FnMut(usize, &Json) -> Result<T, String>,
    ) -> io::Result<Vec<T>> {
        let bytes = std::fs::read(&self.path)?;
        let mut records = Vec::new();
        let mut lines = bytes.split(|b| *b == b'\n').enumerate().peekable();
        while let Some((i, raw)) = lines.next() {
            // `split` yields the (possibly empty) text after the last
            // newline last: that, when non-empty, is an unterminated line.
            let torn = lines.peek().is_none();
            let parsed = std::str::from_utf8(raw)
                .map_err(|e| e.to_string())
                .and_then(|text| match text.trim() {
                    "" => Ok(None),
                    text => Json::parse(text)
                        .map_err(|e| e.to_string())
                        .and_then(|j| parse(records.len(), &j))
                        .map(Some),
                });
            match parsed {
                Ok(Some(record)) => records.push(record),
                Ok(None) => {}
                Err(_) if torn => self.drop_torn_line(),
                Err(msg) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("{}: line {}: {msg}", self.path.display(), i + 1),
                    ))
                }
            }
        }
        Ok(records)
    }

    /// [`Journal::load`], reading a missing file as an empty journal.
    pub(crate) fn load_or_empty<T>(
        &self,
        parse: impl FnMut(usize, &Json) -> Result<T, String>,
    ) -> io::Result<Vec<T>> {
        match self.load(parse) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            loaded => loaded,
        }
    }

    fn drop_torn_line(&self) {
        tqs_telemetry::metrics::counter(self.torn_counter).incr();
        tqs_telemetry::event_with("campaign", || {
            (
                format!("{}.torn_line_dropped", self.name),
                vec![(
                    "path".to_string(),
                    Json::str(self.path.display().to_string()),
                )],
            )
        });
    }

    /// Truncate a torn final line left by a kill mid-append (the file does
    /// not end in a newline), so the next append starts on a fresh line
    /// instead of merging into the partial record. Every append writes its
    /// record and newline at once, so a missing final newline always means
    /// the last append never completed — dropping it is exactly the resume
    /// semantics. Works on raw bytes: a kill can land mid-way through a
    /// multi-byte UTF-8 character. Returns whether anything was truncated; a
    /// healthy (or absent) file is untouched.
    pub(crate) fn repair_torn_tail(&self) -> io::Result<bool> {
        let bytes = match std::fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        if bytes.is_empty() || bytes.ends_with(b"\n") {
            return Ok(false);
        }
        let keep = bytes
            .iter()
            .rposition(|b| *b == b'\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        let f = OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(keep as u64)?;
        Ok(true)
    }
}

/// A record as one journal line.
fn line(record: &Json) -> String {
    let mut line = record.to_string();
    line.push('\n');
    line
}

#[cfg(test)]
mod tests {
    use crate::campaign::{Campaign, CampaignConfig};
    use crate::checkpoint::{CellRecord, Checkpoint, CheckpointHeader};
    use crate::corpus::{tests::sample_entry, Corpus};
    use crate::supervisor::{Quarantine, QuarantineEntry};
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::path::{Path, PathBuf};
    use std::sync::OnceLock;
    use tqs_core::dsg::{DsgConfig, WideSource};
    use tqs_pager::envfault::EnvFaultPolicy;
    use tqs_storage::widegen::ShoppingConfig;

    const FILES: [&str; 3] = ["checkpoint.jsonl", "corpus.jsonl", "quarantine.jsonl"];

    /// A one-shard campaign over a tiny database, in `dir`.
    fn tiny_campaign(dir: PathBuf) -> CampaignConfig {
        CampaignConfig {
            dir,
            dsg: DsgConfig {
                source: WideSource::Shopping(ShoppingConfig {
                    n_rows: 20,
                    ..Default::default()
                }),
                fd: Default::default(),
                noise: None,
            },
            shards: 1,
            workers: 1,
            ..Default::default()
        }
    }

    /// The three journals of a campaign `Campaign::resume` accepts: its
    /// checkpoint with one drained cell, one corpus entry, one quarantined
    /// cell. Written once per test process.
    fn valid_journals() -> &'static [Vec<u8>; 3] {
        static FILES_BYTES: OnceLock<[Vec<u8>; 3]> = OnceLock::new();
        FILES_BYTES.get_or_init(|| {
            let dir =
                std::env::temp_dir().join(format!("tqs-journal-valid-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Campaign::new(tiny_campaign(dir.clone())).unwrap();
            Checkpoint::in_dir(&dir)
                .append_cell(&CellRecord {
                    cell_id: 0,
                    queries: 10,
                    raw_reports: 1,
                    new_classes: 1,
                    elapsed_ms: 5,
                    timeout: false,
                })
                .unwrap();
            Corpus::in_dir(&dir).append(&sample_entry()).unwrap();
            let poisoned = QuarantineEntry {
                cell_id: 1,
                attempts: 3,
                reason: "chaos: injected panic in cell 1".to_string(),
            };
            Quarantine::in_dir(&dir)
                .append(&poisoned, &EnvFaultPolicy::off())
                .unwrap();
            assert!(Campaign::resume(tiny_campaign(dir.clone())).is_ok());
            let bytes = FILES.map(|f| std::fs::read(dir.join(f)).unwrap());
            std::fs::remove_dir_all(&dir).unwrap();
            bytes
        })
    }

    /// Every loader over `dir`, and a resume from it: each may fail, none
    /// may panic.
    fn load_everything(dir: &Path) {
        let _ = Checkpoint::in_dir(dir).load();
        let _ = Corpus::in_dir(dir).load();
        let _ = Quarantine::in_dir(dir).load();
        let _ = Campaign::resume(tiny_campaign(dir.to_path_buf()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(160))]

        /// Arbitrary bytes in one journal, or one byte of a valid journal
        /// changed: loading and resuming return `Ok` or an `io::Error`.
        #[test]
        fn journal_loads_and_resume_survive_arbitrary_and_mutated_bytes(
            file in 0usize..3,
            arbitrary in proptest::option::of(proptest::collection::vec(
                proptest::prelude::any::<u8>(),
                0..96,
            )),
            at in proptest::prelude::any::<usize>(),
            byte in proptest::prelude::any::<u8>(),
        ) {
            let dir = std::env::temp_dir().join(format!(
                "tqs-journal-fuzz-{}-{file}-{at}-{byte}",
                std::process::id()
            ));
            std::fs::create_dir_all(&dir).unwrap();
            let mut journals = valid_journals().clone();
            match arbitrary {
                Some(bytes) => journals[file] = bytes,
                None => {
                    let target = &mut journals[file];
                    let i = at % target.len();
                    target[i] = byte;
                }
            }
            for (name, bytes) in FILES.iter().zip(&journals) {
                std::fs::write(dir.join(name), bytes).unwrap();
            }
            load_everything(&dir);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn every_journal_loads_past_a_tail_torn_inside_a_multibyte_char() {
        let dir = std::env::temp_dir().join(format!("tqs-journal-utf8-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let checkpoint = Checkpoint::in_dir(&dir);
        checkpoint
            .create(&CheckpointHeader {
                seed: 1,
                dsg_digest: 2,
                shards: 1,
                cells: 1,
                queries_per_cell: 10,
                profiles: vec!["MySQL-like".into()],
                oracles: vec!["ground-truth".into()],
                engines: vec!["row".into()],
                plan_modes: vec!["single".into()],
                workloads: vec!["select".into()],
            })
            .unwrap();
        checkpoint
            .append_cell(&CellRecord {
                cell_id: 0,
                queries: 10,
                raw_reports: 0,
                new_classes: 0,
                elapsed_ms: 5,
                timeout: false,
            })
            .unwrap();
        let corpus = Corpus::in_dir(&dir);
        corpus.append(&sample_entry()).unwrap();
        let quarantine = Quarantine::in_dir(&dir);
        let poisoned = QuarantineEntry {
            cell_id: 0,
            attempts: 3,
            reason: "chaos: injected panic in cell 0".to_string(),
        };
        quarantine
            .append(&poisoned, &EnvFaultPolicy::off())
            .unwrap();

        // A kill can land mid-way through a multi-byte UTF-8 character:
        // 0xCE is the first byte of a two-byte sequence, never valid alone.
        for file in ["checkpoint.jsonl", "corpus.jsonl", "quarantine.jsonl"] {
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join(file))
                .unwrap();
            f.write_all(b"{\"reason\": \"\xCE").unwrap();
        }
        // Loads drop the torn line before any repair has run.
        assert_eq!(checkpoint.load().unwrap().cells.len(), 1);
        assert_eq!(corpus.load().unwrap().len(), 1);
        assert_eq!(quarantine.load().unwrap(), vec![poisoned.clone()]);
        // So does compaction, which reads the corpus first.
        let keep = sample_entry().class_key;
        assert_eq!(corpus.compact(|k| k == keep).unwrap().kept, 1);

        assert!(checkpoint.repair_torn_tail().unwrap());
        assert!(!corpus.repair_torn_tail().unwrap(), "compaction rewrote it");
        assert!(quarantine.repair_torn_tail().unwrap());
        assert_eq!(checkpoint.load().unwrap().cells.len(), 1);
        assert_eq!(quarantine.load().unwrap(), vec![poisoned]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
