//! Trace sinks: where events go, and what tracing costs when it is off.

use crate::event::TraceEvent;
use caqe_types::Ticks;

/// Destination for trace events.
///
/// The associated `ENABLED` const is the whole cost story: engine code
/// wraps every recording site — including the *construction* of the event
/// and any recomputation feeding it — in `if S::ENABLED { … }`. With
/// [`NoopSink`] that condition is a compile-time `false`, so the tracing
/// layer monomorphizes to nothing and the untraced hot path is untouched.
///
/// Sinks must never consult the wall clock or any other nondeterministic
/// source; the determinism tests compare serialized traces byte-for-byte.
pub trait TraceSink {
    /// Whether this sink observes anything at all.
    const ENABLED: bool;

    /// Accepts one event. Called only under `if Self::ENABLED` guards.
    fn record(&mut self, ev: TraceEvent);
}

/// The default sink: compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// In-memory sink that keeps every event in arrival order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
}

impl RecordingSink {
    pub fn new() -> Self {
        Self::default()
    }

    /// Events recorded so far, in arrival order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consumes the sink, yielding the event stream.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for RecordingSink {
    const ENABLED: bool = true;

    fn record(&mut self, ev: TraceEvent) {
        self.events.push(ev);
    }
}

/// Per-worker event buffer for parallel engine phases.
///
/// Workers run against a virtual clock rebased to zero, so they record
/// events with *relative* ticks into a private buffer. The caller then
/// merges buffers in the same fixed (worker-index) order as the workers'
/// tick and stat deltas, passing each worker's absolute base tick to
/// [`merge_into`](TraceBuffer::merge_into) — the merged stream is identical
/// to what a serial run would have recorded, at any worker count.
///
/// Mirrors the sink cost model dynamically: a buffer built with
/// `enabled = false` drops events at the push site, so untraced parallel
/// phases pay one predictable branch per event *site* (which the `if
/// S::ENABLED` guard at the call site removes anyway when the sink is
/// [`NoopSink`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    enabled: bool,
    events: Vec<TraceEvent>,
}

impl TraceBuffer {
    pub fn new(enabled: bool) -> Self {
        TraceBuffer {
            enabled,
            events: Vec::new(),
        }
    }

    /// Whether this buffer keeps events.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one relative-tick event (dropped when disabled).
    pub fn record(&mut self, ev: TraceEvent) {
        if self.enabled {
            self.events.push(ev);
        }
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Rebases buffered events by `base_tick` and appends them to `sink`.
    pub fn merge_into<S: TraceSink>(self, sink: &mut S, base_tick: Ticks) {
        if !S::ENABLED {
            return;
        }
        for mut ev in self.events {
            ev.offset_ticks(base_tick);
            sink.record(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;

    fn span(start: Ticks, end: Ticks) -> TraceEvent {
        TraceEvent::Span {
            kind: SpanKind::LookAhead,
            group: Some(0),
            region: None,
            start_tick: start,
            end_tick: end,
        }
    }

    #[test]
    fn recording_sink_keeps_arrival_order() {
        let mut sink = RecordingSink::new();
        sink.record(span(5, 9));
        sink.record(span(1, 2));
        let evs = sink.into_events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].tick(), 5);
        assert_eq!(evs[1].tick(), 1);
    }

    #[test]
    fn buffer_merge_rebases_ticks() {
        let mut buf = TraceBuffer::new(true);
        buf.record(span(0, 4));
        buf.record(span(4, 6));
        let mut sink = RecordingSink::new();
        buf.merge_into(&mut sink, 100);
        let evs = sink.events();
        assert_eq!(evs[0], span(100, 104));
        assert_eq!(evs[1], span(104, 106));
    }

    #[test]
    fn disabled_buffer_drops_events() {
        let mut buf = TraceBuffer::new(false);
        buf.record(span(0, 4));
        assert!(buf.is_empty());
        let mut sink = RecordingSink::new();
        buf.merge_into(&mut sink, 10);
        assert!(sink.events().is_empty());
    }

    #[test]
    fn merge_into_noop_sink_is_inert() {
        let mut buf = TraceBuffer::new(true);
        buf.record(span(0, 1));
        assert_eq!(buf.len(), 1);
        buf.merge_into(&mut NoopSink, 50);
    }
}
