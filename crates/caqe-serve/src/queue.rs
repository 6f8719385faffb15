//! Bounded admission queue and typed backpressure.
//!
//! The serving layer never grows its queue past the configured bound and
//! never drops a submission silently: overflow produces an explicit
//! [`RejectReason`] the client can act on (and the trace records as an
//! `AdmissionReject` event).

use std::collections::VecDeque;
use std::fmt;

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum RejectReason {
    /// The admission queue is at its bound — back off and resubmit.
    QueueFull {
        /// Depth observed at rejection time.
        depth: u32,
        /// The configured bound.
        bound: u32,
    },
    /// The submission itself is unservable (bad catalog index, invalid
    /// priority, server shutting down).
    Invalid {
        /// What was wrong.
        reason: String,
    },
}

impl RejectReason {
    /// Stable short name used in trace events and metric labels.
    pub fn as_str(&self) -> &'static str {
        match self {
            RejectReason::QueueFull { .. } => "full",
            RejectReason::Invalid { .. } => "invalid",
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RejectReason::QueueFull { depth, bound } => {
                write!(f, "admission queue full ({depth}/{bound})")
            }
            RejectReason::Invalid { reason } => write!(f, "invalid submission: {reason}"),
        }
    }
}

/// A FIFO queue that refuses to grow past its bound and tracks its
/// high-water mark.
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    bound: usize,
    peak: usize,
}

impl<T> BoundedQueue<T> {
    /// An empty queue admitting at most `bound` items (`bound >= 1`).
    pub fn new(bound: usize) -> Self {
        BoundedQueue {
            items: VecDeque::new(),
            bound: bound.max(1),
            peak: 0,
        }
    }

    /// The configured bound.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// High-water depth since construction.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Enqueues `item`, or returns it to the caller when at the bound.
    pub fn try_push(&mut self, item: T) -> Result<(), T> {
        if self.items.len() >= self.bound {
            return Err(item);
        }
        self.items.push_back(item);
        self.peak = self.peak.max(self.items.len());
        Ok(())
    }

    /// Dequeues the oldest item.
    pub fn pop_front(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Keeps only the items satisfying `keep`, preserving order.
    pub fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.items.retain(keep);
    }

    /// Iterates the queued items front to back.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_is_enforced_and_peak_tracked() {
        let mut q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        assert_eq!(q.peak(), 2);
        assert_eq!(q.pop_front(), Some(1));
        assert!(q.try_push(4).is_ok());
        assert_eq!(q.peak(), 2);
        assert_eq!(q.pop_front(), Some(2));
        assert_eq!(q.pop_front(), Some(4));
        assert!(q.is_empty());
    }

    #[test]
    fn zero_bound_is_clamped_to_one() {
        let mut q = BoundedQueue::new(0);
        assert_eq!(q.bound(), 1);
        assert!(q.try_push(1).is_ok());
        assert_eq!(q.try_push(2), Err(2));
    }

    #[test]
    fn retain_preserves_fifo_order() {
        let mut q = BoundedQueue::new(8);
        for i in 0..6 {
            assert!(q.try_push(i).is_ok());
        }
        q.retain(|i| i % 2 == 0);
        let left: Vec<i32> = q.iter().copied().collect();
        assert_eq!(left, vec![0, 2, 4]);
    }

    #[test]
    fn reject_reasons_render_and_label() {
        let r = RejectReason::QueueFull { depth: 8, bound: 8 };
        assert_eq!(r.as_str(), "full");
        assert!(r.to_string().contains("8/8"));
        let r = RejectReason::Invalid {
            reason: "catalog index 9 out of range".into(),
        };
        assert_eq!(r.as_str(), "invalid");
        assert!(r.to_string().contains("catalog index 9"));
    }
}
