//! One mutation harness for both readers of the shared on-disk frame
//! (`caqe_types::persist`, DESIGN.md §19): the plan file and the serving
//! snapshot. Whatever a single-byte overwrite, a truncation or a duplicated
//! line does to a sealed file, its reader answers with a typed error or with
//! a value equal to the one that was sealed — never a panic, never another
//! value.

use caqe::contract::Contract;
use caqe::core::{ExecConfig, PlanError, PreparedPlan, QuerySpec, Workload};
use caqe::data::{Distribution, Table, TableGenerator};
use caqe::operators::MappingSet;
use caqe::serve::{CompletedRecord, ContractSpec, SessionRecord, Snapshot, SnapshotError};
use caqe::types::DimMask;
use proptest::prelude::*;
use std::fmt::Debug;
use std::sync::OnceLock;

/// One way a file on disk goes wrong. Positions are reduced modulo the
/// text's length (or line count) when applied, so any draw is in range.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Overwrite { at: usize, byte: u8 },
    Truncate { at: usize },
    DuplicateLine { line: usize },
}

impl Mutation {
    fn apply(self, sealed: &str) -> Vec<u8> {
        let mut bytes = sealed.as_bytes().to_vec();
        match self {
            Mutation::Overwrite { at, byte } => bytes[at % sealed.len()] = byte,
            Mutation::Truncate { at } => bytes.truncate(at % sealed.len()),
            Mutation::DuplicateLine { line } => {
                let lines: Vec<&str> = sealed.split_inclusive('\n').collect();
                let line = line % lines.len();
                let again = lines[..=line].iter().chain(&lines[line..]);
                bytes = again.flat_map(|l| l.bytes()).collect();
            }
        }
        bytes
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(at, byte)| Mutation::Overwrite { at, byte }),
        any::<usize>().prop_map(|at| Mutation::Truncate { at }),
        any::<usize>().prop_map(|line| Mutation::DuplicateLine { line }),
    ]
}

/// The harness: `read` over `sealed` under `mutation` gives back `original`
/// or an error `typed` accepts. A panic in `read` fails the calling test.
fn survives<T: PartialEq + Debug, E: Debug>(
    sealed: &str,
    original: &T,
    read: impl Fn(&[u8]) -> Result<T, E>,
    typed: impl Fn(&E) -> bool,
    mutation: Mutation,
) -> Result<(), String> {
    match read(&mutation.apply(sealed)) {
        Ok(value) if value == *original => Ok(()),
        Ok(value) => Err(format!("{mutation:?} read as another value: {value:?}")),
        Err(e) if typed(&e) => Ok(()),
        Err(e) => Err(format!("{mutation:?} gave an untyped error: {e:?}")),
    }
}

/// Every truncation and every line duplication, not a sample of them: each
/// removes or adds covered bytes, so each is refused outright.
fn refuses_every_cut_and_repeat<T: Debug, E: Debug>(
    sealed: &str,
    read: impl Fn(&[u8]) -> Result<T, E>,
    typed: impl Fn(&E) -> bool,
) {
    let cuts = (0..sealed.len()).map(|at| Mutation::Truncate { at });
    let repeats = (0..sealed.lines().count()).map(|line| Mutation::DuplicateLine { line });
    for mutation in cuts.chain(repeats) {
        match read(&mutation.apply(sealed)) {
            Err(e) if typed(&e) => {}
            other => panic!("{mutation:?}: expected a typed error, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Plan file v2.
// ---------------------------------------------------------------------------

struct PlanFixture {
    r: Table,
    t: Table,
    exec: ExecConfig,
    plan: PreparedPlan,
    sealed: String,
}

fn plan_fixture() -> &'static PlanFixture {
    static FIXTURE: OnceLock<PlanFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let gen = TableGenerator::new(120, 2, Distribution::Independent)
            .with_selectivities(&[0.05, 0.1])
            .with_seed(99);
        let (r, t) = (gen.generate("R"), gen.generate("T"));
        let spec = |join_col: usize, pref: DimMask| QuerySpec {
            join_col,
            mapping: MappingSet::mixed(2, 2, 4),
            pref,
            priority: 0.5,
            contract: Contract::LogDecay,
        };
        let w = Workload::new(vec![
            spec(0, DimMask::from_dims([0, 1])),
            spec(0, DimMask::from_dims([1, 2])),
            spec(1, DimMask::from_dims([2, 3])),
        ]);
        let exec = ExecConfig::default().with_target_cells(120, 4);
        let mut plan = PreparedPlan::build(&r, &t, &exec);
        plan.memoize(&w, &exec, true, true, false);
        plan.memoize(&w, &exec, true, true, true);
        let sealed = plan.to_text();
        PlanFixture {
            r,
            t,
            exec,
            plan,
            sealed,
        }
    })
}

fn read_plan(bytes: &[u8]) -> Result<PreparedPlan, PlanError> {
    let f = plan_fixture();
    PreparedPlan::from_text(bytes, &f.r, &f.t, &f.exec)
}

/// Damage reads as damage or as another version — never as an I/O failure,
/// and never as stale inputs: the checksum is read before the fingerprints.
fn plan_error_is_typed(e: &PlanError) -> bool {
    matches!(e, PlanError::Corrupt(_) | PlanError::Version { .. })
}

// ---------------------------------------------------------------------------
// Serving snapshot v1.
// ---------------------------------------------------------------------------

fn snapshot() -> Snapshot {
    let spec = |id: u64, contract: ContractSpec| SessionRecord {
        id,
        catalog: (id % 3) as usize,
        priority: 0.25 * (id % 4) as f64,
        contract,
    };
    Snapshot {
        version: caqe::serve::SNAPSHOT_VERSION,
        next_session: 9,
        epochs: 2,
        completed: (0..3)
            .map(|id| CompletedRecord {
                id,
                digest: 0xdead_beef ^ id,
                satisfaction: 1.0 / (id + 1) as f64,
                results: 40 + id,
            })
            .collect(),
        queued: vec![
            spec(4, ContractSpec::Deadline { t_hard: 30.0 }),
            spec(5, ContractSpec::LogDecay),
            spec(6, ContractSpec::SoftDeadline { t_soft: 0.3 }),
            spec(
                7,
                ContractSpec::Quota {
                    frac: 0.1,
                    interval: 3.3,
                },
            ),
            spec(
                8,
                ContractSpec::Hybrid {
                    frac: 0.1,
                    interval: 12.5,
                },
            ),
        ],
    }
}

fn read_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    Snapshot::from_text(bytes)
}

fn snapshot_error_is_typed(e: &SnapshotError) -> bool {
    matches!(
        e,
        SnapshotError::Corrupt { .. } | SnapshotError::Version { .. }
    )
}

#[test]
fn both_readers_refuse_every_truncation_and_line_duplication() {
    let f = plan_fixture();
    assert_eq!(read_plan(f.sealed.as_bytes()).as_ref(), Ok(&f.plan));
    refuses_every_cut_and_repeat(&f.sealed, read_plan, plan_error_is_typed);
    let snap = snapshot();
    let sealed = snap.to_text();
    assert_eq!(read_snapshot(sealed.as_bytes()).expect("loads"), snap);
    refuses_every_cut_and_repeat(&sealed, read_snapshot, snapshot_error_is_typed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn plan_reader_survives_any_single_mutation(mutation in arb_mutation()) {
        let f = plan_fixture();
        let verdict = survives(&f.sealed, &f.plan, read_plan, plan_error_is_typed, mutation);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    #[test]
    fn snapshot_reader_survives_any_single_mutation(mutation in arb_mutation()) {
        let snap = snapshot();
        let sealed = snap.to_text();
        let verdict =
            survives(&sealed, &snap, read_snapshot, snapshot_error_is_typed, mutation);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
