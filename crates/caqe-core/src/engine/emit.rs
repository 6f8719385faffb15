//! Safe progressive emission (§6, Example 19) and the blocking S-JFSL tail.
//!
//! A skyline tuple may be reported the moment no alive region can still
//! produce a tuple dominating it. Each pending tuple caches one *witness* —
//! an alive region known to threaten it — so the common re-check costs
//! nothing; only when the witness dies is the region's threat list re-scanned.

use super::churn::QueryTable;
use super::{GroupState, Run};
use crate::group::ArenaTuple;
use caqe_trace::{TraceEvent, TraceSink};
use caqe_types::{QueryId, RegionId, SimClock, Stats};

/// A tuple waiting for its safety guarantee before progressive emission.
#[derive(Debug, Clone)]
pub(super) struct PendingTuple {
    pub(super) tag: u64,
    /// Per query the tuple is still pending for: an optional cached
    /// *witness* — an alive region known to threaten the tuple. While the
    /// witness stays alive (and serving the query), re-checking safety costs
    /// nothing; only when it dies is the threat list re-scanned.
    pub(super) entries: Vec<(QueryId, Option<RegionId>)>,
}

/// The origins whose pending tuples the next [`Run::emit_safe`] must
/// re-examine: a set over one group's region ids. Every step that can make a
/// tuple safe marks the origins it touched — a shrunk peer marks its whole
/// out-list, so the same origin is marked hundreds of times per region — and
/// the walk is ascending, which fixes the emission order.
pub(super) struct RecheckSet {
    /// Bit `r % 64` of word `r / 64` — region `r` is marked.
    words: Vec<u64>,
}

impl RecheckSet {
    /// An empty set over `regions` region ids.
    pub(super) fn new(regions: usize) -> Self {
        RecheckSet {
            words: vec![0; regions.div_ceil(64)],
        }
    }

    /// Marks one origin.
    pub(super) fn insert(&mut self, origin: RegionId) {
        self.words[origin.index() / 64] |= 1 << (origin.index() % 64);
    }

    /// Marks every origin of `origins`.
    pub(super) fn extend(&mut self, origins: impl IntoIterator<Item = RegionId>) {
        origins.into_iter().for_each(|origin| self.insert(origin));
    }

    /// Unmarks everything.
    fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Empties the set word by word, yielding the marked region indices in
    /// ascending order.
    pub(super) fn drain(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter_mut().enumerate().flat_map(|(w, word)| {
            let mut bits = std::mem::take(word);
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    w * 64 + bit
                })
            })
        })
    }
}

impl QueryTable {
    /// Reports one result of `q` — the arena `tuple` tagged `tag`: charges
    /// the emission, scores it against the contract at the resulting
    /// virtual time, records its provenance and traces it. Every emitted
    /// result, progressive or blocking, goes through here.
    pub(super) fn report<S: TraceSink>(
        &mut self,
        q: QueryId,
        tuple: &ArenaTuple,
        tag: u64,
        clock: &mut SimClock,
        stats: &mut Stats,
        sink: &mut S,
    ) {
        clock.charge_emits(1);
        let score = &mut self.scores[q.index()];
        let utility = score.record(clock.now());
        stats.record_emission(q.index(), utility);
        let results = &mut self.results[q.index()];
        results.push((tuple.rid, tuple.tid));
        if S::ENABLED {
            sink.record(TraceEvent::Emission {
                tick: clock.ticks(),
                query: q.0,
                seq: results.len() as u64,
                rid: tuple.origin.0,
                tid: tag,
                utility,
                satisfaction: score.runtime_satisfaction(),
            });
        }
    }
}

impl<S: TraceSink> Run<'_, S> {
    /// Emits every pending tuple of group `gi` originating in one of the
    /// group's marked [`RecheckSet`] origins that can no longer be dominated
    /// by any alive region, and unmarks them all. Emits nothing for blocking
    /// profiles, which never register pending tuples.
    pub(super) fn emit_safe(&mut self, gi: usize) {
        if !self.engine.progressive_emission {
            self.groups[gi].recheck.clear();
            return;
        }
        let Run {
            groups,
            queries,
            clock,
            stats,
            sink,
            ..
        } = self;
        let GroupState {
            g,
            pending,
            recheck,
            ..
        } = &mut groups[gi];
        let emit_t0 = clock.ticks();
        let emit_d0 = stats.region_comparisons;
        for origin in recheck.drain() {
            let mut list = std::mem::take(&mut pending[origin]);
            if list.is_empty() {
                continue;
            }
            let threats = g.dg.threats_in(RegionId(origin as u32));
            let regions = &g.regions;
            list.retain_mut(|p| {
                let tuple = &g.arena[p.tag as usize];
                let vals = g.points.at(p.tag as usize);
                // A tuple's entries are in group-local query order, so one
                // cursor over the group's queries finds every preference.
                let mut local = 0;
                p.entries.retain_mut(|(q, witness)| {
                    // Fast path: the cached witness still blocks this tuple —
                    // region bounds are immutable, so alive + serving is
                    // enough.
                    if let Some(w) = witness {
                        let reg = regions.region(*w);
                        if !reg.processed && reg.serving.contains(*q) {
                            return true;
                        }
                    }
                    // Re-scan the threats (one charged box test per alive
                    // serving threat, up to the first that blocks).
                    let mut ahead = regions.queries()[local..].iter();
                    let mask = match ahead.position(|(id, _)| id == q) {
                        Some(step) => {
                            local += step;
                            regions.queries()[local].1
                        }
                        None => regions.pref(*q),
                    };
                    let blocker = threats.iter().find(|e| {
                        if !e.queries.contains(*q) {
                            return false;
                        }
                        let reg = regions.region(e.peer);
                        if reg.processed || !reg.serving.contains(*q) {
                            return false;
                        }
                        clock.charge_dom_cmps(1);
                        stats.region_comparisons += 1;
                        reg.bounds.may_dominate_point(vals, mask)
                    });
                    match blocker {
                        Some(e) => *witness = Some(e.peer),
                        None => queries.report(*q, tuple, p.tag, clock, stats, *sink),
                    }
                    blocker.is_some()
                });
                !p.entries.is_empty()
            });
            if !list.is_empty() {
                pending[origin] = list;
            }
        }
        stats.emit_ticks += clock.ticks() - emit_t0;
        stats.emit_region_cmps += stats.region_comparisons - emit_d0;
    }

    /// The blocking profile (S-JFSL): reports every query's final skyline
    /// only once all processing has finished, in tag order per query.
    pub(super) fn emit_blocking_tail(&mut self) {
        let Run {
            groups,
            queries,
            clock,
            stats,
            sink,
            ..
        } = self;
        let emit_t0 = clock.ticks();
        for GroupState { g, .. } in groups.iter() {
            for (local, &global) in g.members.iter().enumerate() {
                let mut tags = g.plan.query_skyline_tags(QueryId(local as u16));
                tags.sort_unstable();
                for tag in tags {
                    queries.report(global, &g.arena[tag as usize], tag, clock, stats, *sink);
                }
            }
        }
        stats.emit_ticks += clock.ticks() - emit_t0;
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::{group_of, World};
    use super::super::GroupState;
    use crate::config::EngineConfig;
    use caqe_trace::TraceEvent;
    use caqe_types::{DimMask, QueryId, RegionId};

    /// Regions 0 and 1 both threaten region 2, for both queries.
    const BOXES: [([f64; 2], [f64; 2]); 3] = [
        ([0.0, 0.0], [1.0, 1.0]),
        ([0.0, 0.0], [1.5, 1.5]),
        ([2.0, 2.0], [3.0, 3.0]),
    ];
    const PREFS: [DimMask; 2] = [DimMask(0b11), DimMask(0b01)];

    #[test]
    fn an_alive_threat_keeps_the_tuple_pending_and_caches_its_witness() {
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.over(vec![group_of(&BOXES, &PREFS)]);
        run.plant(2, &[2.5, 2.5], &[0]);
        run.groups[0].recheck.insert(RegionId(2));
        run.emit_safe(0);
        let waiting = vec![(QueryId(0), Some(RegionId(0)))];
        assert_eq!(run.groups[0].pending[2][0].entries, waiting);
        assert!(run.queries.results[0].is_empty());
        assert_eq!(run.stats.region_comparisons, 1);
        run.groups[0].recheck.extend([RegionId(2), RegionId(2)]);
        run.emit_safe(0);
        assert_eq!(run.groups[0].pending[2][0].entries, waiting);
        assert_eq!(run.stats.region_comparisons, 1, "a live witness is free");
    }

    #[test]
    fn emitted_exactly_when_the_last_serving_threat_goes() {
        type Kill = fn(&mut GroupState, RegionId);
        let kills: [(&str, Kill); 3] = [
            ("processed", |gs, r| {
                gs.g.regions.region_mut(r).processed = true
            }),
            ("retired", GroupState::retire_region),
            ("lost the query", |gs, r| {
                gs.g.regions.region_mut(r).kill_query(QueryId(0))
            }),
        ];
        for (how, kill) in kills {
            let mut world = World::new(EngineConfig::caqe());
            let mut run = world.over(vec![group_of(&BOXES, &PREFS)]);
            let tag = run.plant(2, &[2.5, 2.5], &[0]);
            run.groups[0].recheck.insert(RegionId(2));
            run.emit_safe(0);

            kill(&mut run.groups[0], RegionId(0));
            run.groups[0].recheck_seed(RegionId(0));
            run.emit_safe(0);
            let waiting = vec![(QueryId(0), Some(RegionId(1)))];
            assert_eq!(run.groups[0].pending[2][0].entries, waiting, "{how}");
            assert!(run.queries.results[0].is_empty(), "{how}");

            kill(&mut run.groups[0], RegionId(1));
            run.groups[0].recheck_seed(RegionId(1));
            run.emit_safe(0);
            assert_eq!(run.queries.results[0], vec![(tag, tag)], "{how}");
            assert!(run.groups[0].pending[2].is_empty(), "{how}");
        }
    }

    #[test]
    fn emitted_seq_is_dense_per_query() {
        let mut world = World::new(EngineConfig::caqe());
        let mut run = world.over(vec![group_of(&BOXES, &PREFS)]);
        for threat in [0, 1] {
            run.groups[0]
                .g
                .regions
                .region_mut(RegionId(threat))
                .processed = true;
        }
        run.plant(2, &[2.5, 2.5], &[0, 1]);
        run.plant(2, &[2.6, 2.4], &[0]);
        run.plant(2, &[2.1, 2.9], &[1]);
        run.groups[0].recheck.insert(RegionId(2));
        run.emit_safe(0);
        let seqs: Vec<(u16, u64)> = run
            .sink
            .events()
            .iter()
            .filter_map(|ev| match ev {
                TraceEvent::Emission { query, seq, .. } => Some((*query, *seq)),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, vec![(0, 1), (1, 1), (0, 2), (1, 2)]);
        assert_eq!(run.queries.scores[1].count(), 2);
    }
}
