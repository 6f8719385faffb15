//! The benchmark's own trace sink and the phase splitter that turns its
//! wall-stamped event stream into per-layer time.
//!
//! The engine already reports every scheduler decision, region span and
//! emission to a `TraceSink`. [`WallStampSink`] stamps each event with the
//! wall clock as it arrives and keeps only what the splitter needs — the
//! engine is measured from outside, no tracing is added inside it.

use crate::spans::SpanLog;
use caqe_trace::{SpanKind, TraceEvent, TraceSink};
use std::time::Instant;

/// What kind of event closed a gap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkKind {
    Meta,
    Partition,
    GroupBuild,
    Decision,
    Region,
    Audit,
    Emission,
    Admit,
    Depart,
    Other,
}

/// One wall-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Nanoseconds since the sink was created.
    pub at_ns: u64,
    pub kind: MarkKind,
    /// The virtual clock when the event was recorded (a span's end tick).
    pub tick: u64,
    /// Ticks the event's own span covers (region and build spans).
    pub span_ticks: u64,
}

/// Stamps `Instant` per event; never alters or reorders events.
pub struct WallStampSink {
    start: Instant,
    marks: Vec<Mark>,
}

impl WallStampSink {
    pub fn new() -> Self {
        WallStampSink {
            start: Instant::now(),
            marks: Vec::new(),
        }
    }

    pub fn start(&self) -> Instant {
        self.start
    }

    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }
}

impl TraceSink for WallStampSink {
    const ENABLED: bool = true;

    fn record(&mut self, ev: TraceEvent) {
        let at_ns = self.start.elapsed().as_nanos() as u64;
        let (kind, tick, span_ticks) = match &ev {
            TraceEvent::Meta { start_tick, .. } => (MarkKind::Meta, *start_tick, 0),
            TraceEvent::Span {
                kind,
                start_tick,
                end_tick,
                ..
            } => {
                let mark = match kind {
                    SpanKind::PartitionBuild => MarkKind::Partition,
                    SpanKind::GroupBuild | SpanKind::LookAhead => MarkKind::GroupBuild,
                    SpanKind::Region => MarkKind::Region,
                };
                (mark, *end_tick, end_tick.saturating_sub(*start_tick))
            }
            TraceEvent::Decision { tick, .. } => (MarkKind::Decision, *tick, 0),
            TraceEvent::EstimateAudit { completed_tick, .. } => {
                (MarkKind::Audit, *completed_tick, 0)
            }
            TraceEvent::Emission { tick, .. } => (MarkKind::Emission, *tick, 0),
            TraceEvent::Admit { tick, .. } => (MarkKind::Admit, *tick, 0),
            TraceEvent::Depart { tick, .. } => (MarkKind::Depart, *tick, 0),
            other => (MarkKind::Other, other.tick(), 0),
        };
        self.marks.push(Mark {
            at_ns,
            kind,
            tick,
            span_ticks,
        });
    }
}

/// The layer a stretch of wall time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Validate/ingest plus the two quad-tree builds (the engine reports
    /// one event for both).
    IngestPartition,
    /// Coarse join, coarse skyline, dependency graph, shared-plan set-up.
    GroupBuild,
    /// Everything between a region's last emission and the next decision:
    /// discard tail, graph maintenance, Eq. 11 feedback, `select_region`.
    Decide,
    /// Tuple-level join → project → shared-plan insert of one region.
    Tuple,
    /// Discard and safe-emission scan up to the iteration's last emission.
    Emit,
    Admit,
    Depart,
}

impl Phase {
    pub const ALL: [Phase; 7] = [
        Phase::IngestPartition,
        Phase::GroupBuild,
        Phase::Decide,
        Phase::Tuple,
        Phase::Emit,
        Phase::Admit,
        Phase::Depart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Phase::IngestPartition => "ingest_partition",
            Phase::GroupBuild => "group.build",
            Phase::Decide => "engine.decide",
            Phase::Tuple => "engine.tuple",
            Phase::Emit => "engine.emit",
            Phase::Admit => "engine.admit",
            Phase::Depart => "engine.depart",
        }
    }
}

/// A maximal run of consecutive gaps charged to one phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Virtual ticks charged inside the segment.
    pub ticks: u64,
    /// Scheduler iteration the segment belongs to; `None` before the first
    /// decision.
    pub iteration: Option<usize>,
}

/// The split of one traced run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Split {
    pub segments: Vec<Segment>,
    pub end_ns: u64,
    /// When the first `Decision` arrived (`end_ns` if none did).
    pub first_decision_ns: u64,
    pub decisions: usize,
    /// Arrival time of every emission, in order.
    pub emissions_ns: Vec<u64>,
    /// Per processed region: `(ticks its span charged, wall ns of its tuple
    /// phase)` — the pairs the tick calibration regresses.
    pub regions: Vec<(u64, u64)>,
    /// Wall ns in gaps during which the virtual clock did not move.
    pub uncharged_ns: u64,
}

/// Splits a wall-stamped event stream into phases: **a gap belongs to the
/// phase named by the event that closes it**. The gap after the last event
/// (the final, empty `select_region`) is `Decide`.
pub fn split(marks: &[Mark], end_ns: u64) -> Split {
    let mut out = Split {
        end_ns,
        first_decision_ns: end_ns,
        ..Split::default()
    };
    fn push(out: &mut Split, phase: Phase, start: u64, end: u64, ticks: u64) {
        if end == start && ticks == 0 {
            return;
        }
        let iteration = out.decisions.checked_sub(1);
        match out.segments.last_mut() {
            Some(last) if last.phase == phase && last.iteration == iteration => {
                last.end_ns = end;
                last.ticks += ticks;
            }
            _ => out.segments.push(Segment {
                phase,
                start_ns: start,
                end_ns: end,
                ticks,
                iteration,
            }),
        }
        if ticks == 0 {
            out.uncharged_ns += end - start;
        }
    }
    let (mut prev_ns, mut prev_tick) = (0u64, marks.first().map_or(0, |m| m.tick));
    for m in marks {
        let at = m.at_ns.max(prev_ns);
        let phase = match m.kind {
            MarkKind::Meta | MarkKind::Partition => Phase::IngestPartition,
            MarkKind::GroupBuild if out.decisions == 0 => Phase::GroupBuild,
            MarkKind::GroupBuild | MarkKind::Admit => Phase::Admit,
            MarkKind::Decision | MarkKind::Other => Phase::Decide,
            MarkKind::Region | MarkKind::Audit => Phase::Tuple,
            MarkKind::Emission => Phase::Emit,
            MarkKind::Depart => Phase::Depart,
        };
        let ticks = m.tick.saturating_sub(prev_tick);
        push(&mut out, phase, prev_ns, at, ticks);
        match m.kind {
            MarkKind::Decision => {
                if out.decisions == 0 {
                    out.first_decision_ns = at;
                }
                out.decisions += 1;
            }
            MarkKind::Region => out.regions.push((m.span_ticks, at - prev_ns)),
            MarkKind::Emission => out.emissions_ns.push(at),
            _ => {}
        }
        prev_ns = at;
        prev_tick = prev_tick.max(m.tick);
    }
    if end_ns > prev_ns {
        push(&mut out, Phase::Decide, prev_ns, end_ns, 0);
    }
    out
}

impl Split {
    /// Wall ns charged to `phase`. `Decide` before the first decision is
    /// part of the build, so `after_build` leaves it out.
    pub fn phase_ns(&self, phase: Phase, after_build: bool) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.phase == phase && !(after_build && s.iteration.is_none()))
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Virtual ticks charged inside `phase`.
    pub fn phase_ticks(&self, phase: Phase) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| s.ticks)
            .sum()
    }

    /// Appends the run's span tree to `log`, offset by `base_ns`:
    /// `run → {engine.build → …, engine.loop → region → {tuple, emit, decide}}`.
    pub fn record(&self, log: &mut SpanLog, name: &str, base_ns: u64, id: u64) {
        let run = log.push(name, base_ns, base_ns + self.end_ns, None, id);
        let build = log.push(
            "engine.build",
            base_ns,
            base_ns + self.first_decision_ns,
            Some(run),
            id,
        );
        let run_loop = log.push(
            "engine.loop",
            base_ns + self.first_decision_ns,
            base_ns + self.end_ns,
            Some(run),
            id,
        );
        let mut region: Option<(usize, usize)> = None;
        for (i, seg) in self.segments.iter().enumerate() {
            let parent = match seg.iteration {
                None => build,
                Some(it) => match region {
                    Some((cur, span)) if cur == it => span,
                    _ => {
                        let end = self.segments[i..]
                            .iter()
                            .take_while(|s| s.iteration == Some(it))
                            .last()
                            .map_or(seg.end_ns, |s| s.end_ns);
                        let span = log.push(
                            "region",
                            base_ns + seg.start_ns,
                            base_ns + end,
                            Some(run_loop),
                            id,
                        );
                        region = Some((it, span));
                        span
                    }
                },
            };
            log.push(
                seg.phase.name(),
                base_ns + seg.start_ns,
                base_ns + seg.end_ns,
                Some(parent),
                id,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(at_ns: u64, kind: MarkKind, tick: u64) -> Mark {
        Mark {
            at_ns,
            kind,
            tick,
            span_ticks: 0,
        }
    }

    fn synthetic() -> Vec<Mark> {
        use MarkKind::*;
        vec![
            mark(0, Meta, 0),
            mark(10, Partition, 0),
            mark(40, GroupBuild, 500),
            mark(41, GroupBuild, 500),
            mark(50, Decision, 500),
            Mark {
                span_ticks: 116,
                ..mark(150, Region, 616)
            },
            mark(151, Audit, 616),
            mark(160, Emission, 620),
            mark(170, Emission, 621),
            mark(200, Decision, 640),
            Mark {
                span_ticks: 60,
                ..mark(260, Region, 700)
            },
            mark(300, Admit, 730),
            mark(310, Emission, 731),
            mark(320, Depart, 731),
            mark(330, Decision, 731),
            Mark {
                span_ticks: 80,
                ..mark(400, Region, 811)
            },
        ]
    }

    #[test]
    fn splitter_charges_each_gap_to_the_event_that_closes_it() {
        let s = split(&synthetic(), 450);
        assert_eq!(s.decisions, 3);
        assert_eq!(s.first_decision_ns, 50);
        assert_eq!(s.phase_ns(Phase::IngestPartition, false), 10);
        assert_eq!(s.phase_ns(Phase::GroupBuild, false), 31);
        assert_eq!(s.phase_ns(Phase::Tuple, true), 101 + 60 + 70);
        assert_eq!(s.phase_ns(Phase::Emit, true), 19 + 10);
        assert_eq!(s.phase_ns(Phase::Admit, true), 40);
        assert_eq!(s.phase_ns(Phase::Depart, true), 10);
        // 170→200, 320→330 and the tail 400→450; the 9 ns before the first
        // decision count only when the build is included.
        assert_eq!(s.phase_ns(Phase::Decide, true), 30 + 10 + 50);
        assert_eq!(s.phase_ns(Phase::Decide, false), 9 + 90);
        // Every nanosecond lands in exactly one phase.
        let total: u64 = Phase::ALL.iter().map(|&p| s.phase_ns(p, false)).sum();
        assert_eq!(total, 450);
        assert_eq!(s.emissions_ns, vec![160, 170, 310]);
        assert_eq!(s.regions, vec![(116, 100), (60, 60), (80, 70)]);
        assert_eq!(s.phase_ticks(Phase::Tuple), 116 + 60 + 80);
        assert_eq!(s.phase_ticks(Phase::GroupBuild), 500);
        // Gaps with no tick movement: 0→10, 40→41, 41→50, 150→151,
        // 310→320, 320→330 and the tail.
        assert_eq!(s.uncharged_ns, 10 + 1 + 9 + 1 + 10 + 10 + 50);
    }

    #[test]
    fn split_without_decisions_is_all_build() {
        let s = split(
            &[mark(0, MarkKind::Meta, 0), mark(7, MarkKind::Partition, 0)],
            20,
        );
        assert_eq!(s.decisions, 0);
        assert_eq!(s.first_decision_ns, 20);
        assert_eq!(s.phase_ns(Phase::Decide, true), 0);
        assert_eq!(s.phase_ns(Phase::Decide, false), 13);
    }

    #[test]
    fn recorded_tree_nests_and_self_times_add_up() {
        let s = split(&synthetic(), 450);
        let mut log = SpanLog::new();
        s.record(&mut log, "run", 1000, 9);
        let spans = log.spans();
        assert_eq!(spans[0].name, "run");
        assert_eq!((spans[0].start_ns, spans[0].end_ns), (1000, 1450));
        assert_eq!(spans[1].name, "engine.build");
        assert_eq!(spans[2].name, "engine.loop");
        let regions: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].name == "region")
            .collect();
        assert_eq!(regions.len(), 3);
        let own = log.self_times_ns();
        for &r in &regions {
            assert_eq!(spans[r].parent, Some(2));
            // Children tile the region span exactly.
            assert_eq!(own[r], 0);
        }
        assert_eq!(
            (spans[regions[0]].start_ns, spans[regions[0]].end_ns),
            (1050, 1200)
        );
        assert_eq!(own[..3], [0, 0, 0]);
        // So the self times by name are the phase totals.
        let by_name = log.self_seconds_by_name();
        assert!((by_name["engine.tuple"] - 231e-9).abs() < 1e-15);
        assert!((by_name["engine.decide"] - 99e-9).abs() < 1e-15);
        assert!(spans.iter().all(|s| s.id == 9));
    }

    #[test]
    fn sink_stamps_in_arrival_order_and_classifies() {
        let mut sink = WallStampSink::new();
        sink.record(TraceEvent::Span {
            kind: SpanKind::Region,
            group: Some(0),
            region: Some(3),
            start_tick: 10,
            end_tick: 25,
        });
        sink.record(TraceEvent::Depart {
            tick: 30,
            query: 1,
            regions_retired: 0,
        });
        let m = sink.marks();
        assert_eq!(m.len(), 2);
        assert_eq!(
            (m[0].kind, m[0].tick, m[0].span_ticks),
            (MarkKind::Region, 25, 15)
        );
        assert_eq!((m[1].kind, m[1].tick), (MarkKind::Depart, 30));
        assert!(m[0].at_ns <= m[1].at_ns);
    }
}
