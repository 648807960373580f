//! A corpus line of 200 000 `[` — what a damaged disk or a stray write can
//! leave behind — is a parse error, not a stack overflow: in the middle of the
//! corpus it makes `Corpus::load` fail with `InvalidData`, and as the torn
//! tail it is dropped and counted like any other torn line.
//!
//! One test, so nothing else in this process sees the telemetry switch move.

use std::io::ErrorKind;
use std::path::PathBuf;
use tqs_campaign::Corpus;

fn torn_lines_dropped() -> u64 {
    tqs_telemetry::snapshot_metrics()
        .counters
        .get("campaign.corpus.torn_lines_dropped")
        .copied()
        .unwrap_or(0)
}

#[test]
fn a_deeply_nested_corpus_line_fails_the_load_or_is_dropped_as_the_torn_tail() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/reverify_golden/corpus.jsonl");
    let text = std::fs::read_to_string(fixture).unwrap();
    let good: Vec<&str> = text.lines().take(2).collect();
    let deep = "[".repeat(200_000);
    let dir = std::env::temp_dir().join(format!("tqs-corpus-deep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let corpus = Corpus::in_dir(&dir);

    std::fs::write(corpus.path(), format!("{}\n{deep}\n{}\n", good[0], good[1])).unwrap();
    let err = corpus.load().unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("line 2"), "{err}");

    tqs_telemetry::set_enabled(true);
    tqs_telemetry::reset_metrics();
    std::fs::write(corpus.path(), format!("{}\n{}\n{deep}", good[0], good[1])).unwrap();
    let loaded = corpus.load().unwrap();
    assert_eq!(loaded.len(), 2);
    assert_eq!(torn_lines_dropped(), 1);
    tqs_telemetry::set_enabled(false);
    std::fs::remove_dir_all(&dir).unwrap();
}
