//! Trace sinks: where events go, and what tracing costs when it is off.

use crate::event::TraceEvent;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanKind;
    use caqe_types::Ticks;

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
}
