//! Versioned, checksummed, crash-safe server snapshots.
//!
//! A snapshot captures everything the serving layer needs to resume after
//! a restart: the session counter, completed-session digests (the
//! equivalence witnesses) and the queued sessions in FIFO order with their
//! negotiated contracts. Plan/region state is deliberately *not*
//! serialized — the deterministic core rebuilds it bit-identically from
//! the workload, which is what makes the restore trace-equivalence proof
//! possible at all.
//!
//! The file is a schema over the frame it shares with the plan file
//! ([`caqe_types::persist`]): a header naming the version, a body of
//! `key value...` lines, and an FNV-1a checksum footer over header and
//! body. Floats are serialized as `to_bits` hex so a round trip is exact.
//! Writes go through temp file + `fsync` + atomic rename (+ parent
//! directory fsync), so a crash at any point leaves either the old
//! snapshot or the new one — never a torn file; and a torn or tampered
//! file never loads, because the header, version and checksum are all
//! verified first.

use caqe_contract::Contract;
use caqe_types::persist::{self, Fields, FrameError};
use std::fmt;
use std::fmt::Write as _;
use std::path::Path;

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

const HEADER: &str = "caqe-serve-snapshot";

/// Serializable mirror of the Table 2 contract classes.
///
/// `Piecewise`/`Product` contracts never reach a snapshot: negotiation
/// downgrades them at admission
/// ([`NegotiationPolicy`](crate::NegotiationPolicy)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContractSpec {
    /// C1 — hard deadline.
    Deadline {
        /// Hard deadline in virtual seconds.
        t_hard: f64,
    },
    /// C2 — logarithmic decay.
    LogDecay,
    /// C3 — soft deadline.
    SoftDeadline {
        /// Decay start in virtual seconds.
        t_soft: f64,
    },
    /// C4 — cardinality quota.
    Quota {
        /// Fraction due per interval.
        frac: f64,
        /// Interval in virtual seconds.
        interval: f64,
    },
    /// C5 — quota × time hybrid.
    Hybrid {
        /// Fraction due per interval.
        frac: f64,
        /// Interval in virtual seconds.
        interval: f64,
    },
}

impl ContractSpec {
    /// Captures a granted contract, or `None` for the classes negotiation
    /// is required to have eliminated.
    pub fn from_contract(c: &Contract) -> Option<ContractSpec> {
        match c {
            Contract::Deadline { t_hard } => Some(ContractSpec::Deadline { t_hard: *t_hard }),
            Contract::LogDecay => Some(ContractSpec::LogDecay),
            Contract::SoftDeadline { t_soft } => {
                Some(ContractSpec::SoftDeadline { t_soft: *t_soft })
            }
            Contract::Quota { frac, interval } => Some(ContractSpec::Quota {
                frac: *frac,
                interval: *interval,
            }),
            Contract::Hybrid { frac, interval } => Some(ContractSpec::Hybrid {
                frac: *frac,
                interval: *interval,
            }),
            Contract::Piecewise { .. } | Contract::Product(..) => None,
        }
    }

    /// Reconstructs the engine contract, exactly.
    pub fn to_contract(&self) -> Contract {
        match self {
            ContractSpec::Deadline { t_hard } => Contract::Deadline { t_hard: *t_hard },
            ContractSpec::LogDecay => Contract::LogDecay,
            ContractSpec::SoftDeadline { t_soft } => Contract::SoftDeadline { t_soft: *t_soft },
            ContractSpec::Quota { frac, interval } => Contract::Quota {
                frac: *frac,
                interval: *interval,
            },
            ContractSpec::Hybrid { frac, interval } => Contract::Hybrid {
                frac: *frac,
                interval: *interval,
            },
        }
    }

    fn write_into(&self, out: &mut String) {
        match self {
            ContractSpec::Deadline { t_hard } => {
                let _ = write!(out, "deadline {:016x}", t_hard.to_bits());
            }
            ContractSpec::LogDecay => out.push_str("log_decay"),
            ContractSpec::SoftDeadline { t_soft } => {
                let _ = write!(out, "soft_deadline {:016x}", t_soft.to_bits());
            }
            ContractSpec::Quota { frac, interval } => {
                let _ = write!(
                    out,
                    "quota {:016x} {:016x}",
                    frac.to_bits(),
                    interval.to_bits()
                );
            }
            ContractSpec::Hybrid { frac, interval } => {
                let _ = write!(
                    out,
                    "hybrid {:016x} {:016x}",
                    frac.to_bits(),
                    interval.to_bits()
                );
            }
        }
    }

    fn parse(f: &mut Fields<'_>) -> Result<ContractSpec, FrameError> {
        Ok(match f.word()? {
            "deadline" => ContractSpec::Deadline {
                t_hard: f.f64_bits()?,
            },
            "log_decay" => ContractSpec::LogDecay,
            "soft_deadline" => ContractSpec::SoftDeadline {
                t_soft: f.f64_bits()?,
            },
            "quota" => ContractSpec::Quota {
                frac: f.f64_bits()?,
                interval: f.f64_bits()?,
            },
            "hybrid" => ContractSpec::Hybrid {
                frac: f.f64_bits()?,
                interval: f.f64_bits()?,
            },
            other => return Err(FrameError::Corrupt(format!("bad contract class {other:?}"))),
        })
    }
}

/// One queued session as captured at shutdown.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRecord {
    /// Server-assigned session id.
    pub id: u64,
    /// Index into the server's prepared-statement catalog.
    pub catalog: usize,
    /// Query priority `pr_i ∈ [0, 1]`.
    pub priority: f64,
    /// The *negotiated* contract (what the server granted, not what the
    /// client asked for).
    pub contract: ContractSpec,
}

/// One completed session's observables, carried across restarts so
/// `attach` keeps answering and equivalence stays checkable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedRecord {
    /// Server-assigned session id.
    pub id: u64,
    /// [`RunOutcome`-style](caqe_core::RunOutcome::digest) per-session
    /// digest of emissions + results.
    pub digest: u64,
    /// Final satisfaction.
    pub satisfaction: f64,
    /// Results emitted.
    pub results: u64,
}

/// Everything a restarted server needs to continue the workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Format version (readers reject anything but [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Next session id to assign.
    pub next_session: u64,
    /// Serving epochs completed before the shutdown.
    pub epochs: u64,
    /// Completed sessions, in completion order.
    pub completed: Vec<CompletedRecord>,
    /// Queued sessions, front of the queue first.
    pub queued: Vec<SessionRecord>,
}

/// Why a snapshot failed to write or load.
#[derive(Debug)]
pub enum SnapshotError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// The file exists but is not a valid snapshot (torn write, bad
    /// checksum, malformed body).
    Corrupt {
        /// What was wrong.
        reason: String,
    },
    /// A valid snapshot of a version this build does not speak.
    Version {
        /// Version found in the header.
        found: u32,
    },
    /// The test-only crash hook fired before the atomic rename — the
    /// snapshot at the target path is untouched.
    SimulatedCrash,
}

fn corrupt(reason: String) -> SnapshotError {
    SnapshotError::Corrupt { reason }
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io error: {e}"),
            SnapshotError::Corrupt { reason } => write!(f, "corrupt snapshot: {reason}"),
            SnapshotError::Version { found } => write!(
                f,
                "unsupported snapshot version {found} (this build speaks {SNAPSHOT_VERSION})"
            ),
            SnapshotError::SimulatedCrash => {
                write!(f, "simulated crash before rename (test hook)")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<FrameError> for SnapshotError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Corrupt(reason) => SnapshotError::Corrupt { reason },
            FrameError::Version { found } => match u32::try_from(found) {
                Ok(found) => SnapshotError::Version { found },
                Err(_) => corrupt(format!("version {found} out of range")),
            },
        }
    }
}

/// Where the test-only crash hook interrupts
/// [`write_snapshot_with_crash`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// No crash: the full temp-write → fsync → rename path runs.
    None,
    /// Crash after the temp file is written (and synced) but before the
    /// atomic rename: simulates power loss at the worst moment. The
    /// target path must be left untouched.
    BeforeRename,
    /// Crash mid-write: the temp file holds a truncated body. The target
    /// path must be left untouched and the torn temp file must never
    /// parse as a snapshot.
    MidWrite,
}

impl Snapshot {
    /// Serializes to the versioned text format (body + checksum footer).
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        let _ = writeln!(body, "next_session {}", self.next_session);
        let _ = writeln!(body, "epochs {}", self.epochs);
        for c in &self.completed {
            let _ = writeln!(
                body,
                "completed {} {:016x} {:016x} {}",
                c.id,
                c.digest,
                c.satisfaction.to_bits(),
                c.results
            );
        }
        for s in &self.queued {
            let _ = write!(
                body,
                "queued {} {} {:016x} ",
                s.id,
                s.catalog,
                s.priority.to_bits()
            );
            s.contract.write_into(&mut body);
            body.push('\n');
        }
        persist::seal(HEADER, u64::from(self.version), &body)
    }

    /// Reads and verifies a snapshot file's bytes: the frame
    /// ([`persist::open`]: UTF-8, header, version, checksum), then the
    /// body — exactly one `next_session` and one `epochs` line, and no
    /// session id at or past the counter, which a restored server would
    /// hand out again. Any deviation is a typed [`SnapshotError`], never a
    /// panic and never a half-loaded snapshot.
    pub fn from_text<B: AsRef<[u8]> + ?Sized>(text: &B) -> Result<Snapshot, SnapshotError> {
        let lines = persist::open(text.as_ref(), HEADER, u64::from(SNAPSHOT_VERSION))?;
        let (mut next_session, mut epochs) = (None, None);
        let (mut completed, mut queued) = (Vec::new(), Vec::new());
        for line in lines {
            let mut f = Fields::new(line);
            match f.word()? {
                "next_session" if next_session.is_none() => next_session = Some(f.uint::<u64>()?),
                "epochs" if epochs.is_none() => epochs = Some(f.uint::<u64>()?),
                "completed" => completed.push(CompletedRecord {
                    id: f.uint()?,
                    digest: f.hex64()?,
                    satisfaction: f.f64_bits()?,
                    results: f.uint()?,
                }),
                "queued" => queued.push(SessionRecord {
                    id: f.uint()?,
                    catalog: f.uint()?,
                    priority: f.f64_bits()?,
                    contract: ContractSpec::parse(&mut f)?,
                }),
                _ => return Err(corrupt(format!("unknown or repeated line {line:?}"))),
            }
            f.end()?;
        }
        let next_session =
            next_session.ok_or_else(|| corrupt("missing next_session line".to_string()))?;
        let epochs = epochs.ok_or_else(|| corrupt("missing epochs line".to_string()))?;
        let ids = completed.iter().map(|c| c.id);
        if let Some(id) = ids
            .chain(queued.iter().map(|s| s.id))
            .find(|&id| id >= next_session)
        {
            return Err(corrupt(format!(
                "session {id} is not below next_session {next_session}"
            )));
        }
        Ok(Snapshot {
            version: SNAPSHOT_VERSION,
            next_session,
            epochs,
            completed,
            queued,
        })
    }
}

/// Crash-safely writes `snap` to `path` through the writer it shares with
/// the plan file ([`persist::write_atomic`]'s two halves).
pub fn write_snapshot(path: &Path, snap: &Snapshot) -> Result<(), SnapshotError> {
    write_snapshot_with_crash(path, snap, CrashPoint::None)
}

/// [`write_snapshot`] with a test hook that aborts at a chosen point, for
/// proving that a crash mid-write never corrupts the snapshot at `path`.
pub fn write_snapshot_with_crash(
    path: &Path,
    snap: &Snapshot,
    crash: CrashPoint,
) -> Result<(), SnapshotError> {
    let text = snap.to_text();
    let mut bytes = text.as_bytes();
    if crash == CrashPoint::MidWrite {
        // Torn write: half the body, no checksum, then "power loss".
        bytes = &bytes[..bytes.len() / 2];
    }
    let tmp = persist::stage_temp(path, bytes)?;
    if crash != CrashPoint::None {
        return Err(SnapshotError::SimulatedCrash);
    }
    persist::publish_temp(&tmp, path)?;
    Ok(())
}

/// Loads and fully verifies a snapshot; a file that fails *any* check
/// (header, version, checksum, body grammar) yields a typed error and is
/// never partially applied.
pub fn load_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    Snapshot::from_text(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_types::fnv1a;

    fn sample() -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            next_session: 7,
            epochs: 2,
            completed: vec![
                CompletedRecord {
                    id: 0,
                    digest: 0xdead_beef,
                    satisfaction: 0.875,
                    results: 41,
                },
                CompletedRecord {
                    id: 1,
                    digest: 0x1234,
                    satisfaction: 1.0,
                    results: 3,
                },
            ],
            queued: vec![
                SessionRecord {
                    id: 5,
                    catalog: 2,
                    priority: 0.7,
                    contract: ContractSpec::Deadline { t_hard: 30.0 },
                },
                SessionRecord {
                    id: 6,
                    catalog: 0,
                    priority: 0.4,
                    contract: ContractSpec::Hybrid {
                        frac: 0.1,
                        interval: 12.5,
                    },
                },
            ],
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let s = sample();
        let parsed = Snapshot::from_text(&s.to_text()).unwrap();
        assert_eq!(parsed, s);
    }

    #[test]
    fn every_contract_class_round_trips() {
        for spec in [
            ContractSpec::Deadline { t_hard: 0.1 + 0.2 },
            ContractSpec::LogDecay,
            ContractSpec::SoftDeadline { t_soft: 1e-300 },
            ContractSpec::Quota {
                frac: 0.1,
                interval: 3.3,
            },
            ContractSpec::Hybrid {
                frac: 0.1,
                interval: 7.7,
            },
        ] {
            let mut s = sample();
            s.queued[0].contract = spec;
            let parsed = Snapshot::from_text(&s.to_text()).unwrap();
            assert_eq!(parsed.queued[0].contract, spec);
            // And through the engine type and back, bit-exactly.
            let c = spec.to_contract();
            assert_eq!(ContractSpec::from_contract(&c), Some(spec));
        }
    }

    #[test]
    fn piecewise_and_product_are_not_serializable() {
        use caqe_contract::Contract;
        assert_eq!(
            ContractSpec::from_contract(&Contract::Piecewise {
                steps: vec![(1.0, 1.0)],
                tail: 0.0,
            }),
            None
        );
        assert_eq!(
            ContractSpec::from_contract(&Contract::Product(
                Box::new(Contract::LogDecay),
                Box::new(Contract::LogDecay),
            )),
            None
        );
    }

    #[test]
    fn corruption_is_always_detected() {
        let text = sample().to_text();
        // Flip one character anywhere in the body → checksum mismatch.
        let mut flipped = text.clone().into_bytes();
        flipped[HEADER.len() + 5] ^= 1;
        let e = Snapshot::from_text(&String::from_utf8(flipped).unwrap()).unwrap_err();
        assert!(matches!(e, SnapshotError::Corrupt { .. }), "{e}");
        // Flip a high bit: the bytes stop being UTF-8, which is damage to
        // the file, not an I/O failure.
        let mut flipped = text.clone().into_bytes();
        flipped[HEADER.len() + 5] ^= 0x80;
        let e = Snapshot::from_text(&flipped).unwrap_err();
        assert!(matches!(e, SnapshotError::Corrupt { .. }), "{e}");
        // Truncation → missing/invalid footer.
        let e = Snapshot::from_text(&text[..text.len() / 2]).unwrap_err();
        assert!(matches!(e, SnapshotError::Corrupt { .. }), "{e}");
        // Empty file.
        let e = Snapshot::from_text("").unwrap_err();
        assert!(matches!(e, SnapshotError::Corrupt { .. }), "{e}");
    }

    #[test]
    fn future_versions_are_rejected_with_a_typed_error() {
        let text = sample().to_text().replace(
            &format!("{HEADER} v{SNAPSHOT_VERSION}"),
            &format!("{HEADER} v99"),
        );
        // Re-seal the tampered body so only the version check can fail.
        let body_end = text.rfind("checksum ").unwrap();
        let body = &text[..body_end];
        let resealed = format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()));
        match Snapshot::from_text(&resealed).unwrap_err() {
            SnapshotError::Version { found } => assert_eq!(found, 99),
            other => panic!("expected Version error, got {other}"),
        }
    }

    #[test]
    fn future_version_wins_even_with_a_stale_checksum() {
        // A snapshot from a newer build may have changed the body grammar
        // or checksum scheme, so its footer will not verify under ours.
        // The version gate must fire first: reporting Corrupt here would
        // send operators chasing disk errors instead of a rollback.
        let text = sample().to_text().replace(
            &format!("{HEADER} v{SNAPSHOT_VERSION}"),
            &format!("{HEADER} v99"),
        );
        // Deliberately NOT resealed — the checksum is stale.
        match Snapshot::from_text(&text).unwrap_err() {
            SnapshotError::Version { found } => assert_eq!(found, 99),
            other => panic!("expected Version error, got {other}"),
        }
    }

    #[test]
    fn counters_are_required_once_and_bound_every_session_id() {
        let text = sample().to_text();
        // Re-seal each edited body so only the body rules can object.
        let reseal = |from: &str, to: &str| {
            assert!(text.contains(from), "{from:?} not in the sample");
            let body_end = text.rfind("checksum ").unwrap();
            let body = text[..body_end].replacen(from, to, 1);
            format!("{body}checksum {:016x}\n", fnv1a(body.as_bytes()))
        };
        assert_eq!(
            Snapshot::from_text(&reseal("epochs 2", "epochs 2")).unwrap(),
            sample()
        );
        for (from, to) in [
            // Absent: used to load as session 0 / epoch 0.
            ("next_session 7\n", ""),
            ("epochs 2\n", ""),
            // Repeated: used to keep the last.
            ("next_session 7\n", "next_session 7\nnext_session 9\n"),
            ("epochs 2\n", "epochs 2\nepochs 2\n"),
            // A completed and a queued id the counter would hand out again.
            ("next_session 7", "next_session 6"),
            ("completed 1 ", "completed 7 "),
            ("queued 5 ", "queued 8 "),
        ] {
            match Snapshot::from_text(&reseal(from, to)) {
                Err(SnapshotError::Corrupt { reason }) => {
                    assert!(!reason.contains("checksum"), "{reason}");
                }
                other => panic!("{from:?} -> {to:?}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_before_the_checksum_line_is_typed_corruption() {
        let text = sample().to_text();
        let footer = text.rfind("checksum ").unwrap();
        // Cut exactly at the footer boundary and at a few points inside
        // the body: every prefix must parse to a typed error, never a
        // panic and never a silently half-loaded snapshot.
        for cut in [footer, footer - 1, footer / 2, HEADER.len() + 4] {
            let e = Snapshot::from_text(&text[..cut]).unwrap_err();
            assert!(matches!(e, SnapshotError::Corrupt { .. }), "cut {cut}: {e}");
        }
    }

    #[test]
    fn write_is_atomic_and_crash_leaves_old_snapshot_intact() {
        let dir = std::env::temp_dir().join(format!("caqe_snap_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("server.snapshot");

        // First write succeeds and loads back.
        let old = sample();
        write_snapshot(&path, &old).unwrap();
        assert_eq!(load_snapshot(&path).unwrap(), old);

        // A crash before rename leaves the old snapshot untouched.
        let mut new = sample();
        new.next_session = 99;
        let e = write_snapshot_with_crash(&path, &new, CrashPoint::BeforeRename).unwrap_err();
        assert!(matches!(e, SnapshotError::SimulatedCrash));
        assert_eq!(load_snapshot(&path).unwrap(), old, "old snapshot survives");

        // A torn mid-write crash also leaves the old snapshot untouched,
        // and the torn temp file never parses as a snapshot.
        let e = write_snapshot_with_crash(&path, &new, CrashPoint::MidWrite).unwrap_err();
        assert!(matches!(e, SnapshotError::SimulatedCrash));
        assert_eq!(load_snapshot(&path).unwrap(), old);
        let tmp = dir.join("server.snapshot.tmp");
        assert!(load_snapshot(&tmp).is_err(), "torn temp file must not load");

        // A clean retry completes the update.
        write_snapshot(&path, &new).unwrap();
        assert_eq!(load_snapshot(&path).unwrap().next_session, 99);
        std::fs::remove_dir_all(&dir).ok();
    }
}
