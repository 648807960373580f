//! What the fault-seeded builds answer, pinned.
//!
//! A fixed-seed pool of generated statements runs under every hint set of
//! its profile on the 12 faulty cells of the connector matrix: {row,
//! columnar, disk} × the four profiles. Per cell the fixture
//! `tests/fixtures/faulty_answers.txt` pins the statements run, the errors,
//! an FNV-1a of every answer (result rows in order, or the error text) and
//! an FNV-1a of every statement's `fired` list, plus the fault kinds that
//! fired at all (which says what the pool covers). One more line,
//! `cell=ground-truth`, pins what the ground truth answers for the same pool:
//! an FNV-1a of every outcome (columns, rows in order and the subset flag,
//! or the error text) and how many statements it does not support.
//!
//! The executors' fault paths make values — NULL pads, `''` pads, stale and
//! blanked rows, duplicated tuples — so a change to how intermediates are
//! laid out must leave every line here byte-identical. A change that alters
//! the faulty answers on purpose re-records the fixture (paste the lines the
//! failing assertion prints) and says why.

use std::collections::BTreeSet;
use std::path::PathBuf;
use tqs_core::backend::{BuildSpec, DbmsConnector, EngineConnector, EngineKind};
use tqs_core::dsg::{
    DsgConfig, DsgDatabase, QueryGenConfig, QueryGenerator, UniformScorer, WideSource,
};
use tqs_core::hintgen::hint_sets_for;
use tqs_engine::ProfileId;
use tqs_schema::{GroundTruthEvaluator, GtError, NoiseConfig};
use tqs_storage::widegen::ShoppingConfig;

/// Statements in the generated pool.
const POOL: usize = 150;

/// FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn line(&mut self, s: &str) {
        for b in s.bytes().chain([b'\n']) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

fn dsg() -> DsgDatabase {
    DsgDatabase::build(&DsgConfig {
        source: WideSource::Shopping(ShoppingConfig {
            n_rows: 120,
            seed: 11,
            ..Default::default()
        }),
        fd: Default::default(),
        noise: Some(NoiseConfig {
            epsilon: 0.05,
            seed: 13,
            max_injections: 24,
        }),
    })
}

/// One faulty cell, summarized as its fixture line.
fn cell(kind: EngineKind, profile: ProfileId, dsg: &DsgDatabase) -> String {
    let mut conn = EngineConnector::open(kind, BuildSpec::Faulty, profile).loaded(dsg);
    let mut gen = QueryGenerator::new(QueryGenConfig {
        seed: 0xFA17,
        ..Default::default()
    });
    let (mut statements, mut errors) = (0usize, 0usize);
    let (mut answers, mut fired) = (Fnv::new(), Fnv::new());
    let mut kinds = BTreeSet::new();
    for _ in 0..POOL {
        let stmt = gen.generate(dsg, None, &UniformScorer);
        for hs in hint_sets_for(profile, &stmt) {
            statements += 1;
            match conn.execute_with_hints(&stmt, &hs) {
                Ok(out) => {
                    for row in &out.result.rows {
                        answers.line(&format!("{:?}", row.values));
                    }
                    answers.line("--");
                    fired.line(&format!("{:?}", out.fired));
                    kinds.extend(out.fired.iter().map(|f| format!("{f:?}")));
                }
                Err(e) => {
                    errors += 1;
                    answers.line(&format!("error: {}", e.message));
                    fired.line("error");
                }
            }
        }
    }
    format!(
        "cell={}/{profile:?} statements={statements} errors={errors} answers_fnv={:016x} \
         fired_fnv={:016x} fault_kinds={}",
        kind.label(),
        answers.0,
        fired.0,
        kinds.into_iter().collect::<Vec<_>>().join(","),
    )
}

/// The ground truth over the same pool, summarized as its fixture line.
fn ground_truth(dsg: &DsgDatabase) -> String {
    let truth = GroundTruthEvaluator::new(&dsg.db);
    let mut gen = QueryGenerator::new(QueryGenConfig {
        seed: 0xFA17,
        ..Default::default()
    });
    let (mut unsupported, mut outcomes) = (0usize, Fnv::new());
    for _ in 0..POOL {
        let stmt = gen.generate(dsg, None, &UniformScorer);
        match truth.evaluate(&stmt) {
            Ok(gt) => {
                outcomes.line(&format!("{:?}", gt.result.columns));
                for row in &gt.result.rows {
                    outcomes.line(&format!("{:?}", row.values));
                }
                outcomes.line(&format!("subset={}", gt.subset_mode));
            }
            Err(e) => {
                unsupported += usize::from(matches!(e, GtError::Unsupported(_)));
                outcomes.line(&format!("error: {e}"));
            }
        }
    }
    format!(
        "cell=ground-truth statements={POOL} unsupported={unsupported} outcomes_fnv={:016x}",
        outcomes.0
    )
}

fn pinned() -> Vec<String> {
    let fixture =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/faulty_answers.txt");
    std::fs::read_to_string(fixture)
        .unwrap()
        .lines()
        .map(String::from)
        .collect()
}

#[test]
fn every_faulty_cell_answers_what_the_fixture_pins() {
    let dsg = dsg();
    let got: Vec<String> = EngineKind::ALL
        .into_iter()
        .flat_map(|kind| ProfileId::ALL.map(|profile| (kind, profile)))
        .map(|(kind, profile)| cell(kind, profile, &dsg))
        .chain([ground_truth(&dsg)])
        .collect();
    assert_eq!(
        got.join("\n"),
        pinned().join("\n"),
        "the faulty answers moved (left: this build, right: the fixture)"
    );
}
