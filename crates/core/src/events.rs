//! A deterministic discrete-event queue keyed by `f64` simulation
//! time: the departure schedule of [`crate::membership`].

use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Scheduled<T> {}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; ties broken by insertion order so
        // the queue is deterministic.
        other
            .time
            .partial_cmp(&self.time)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic min-heap of timed events.
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    next_seq: u64,
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.heap.len())
            .finish()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN.
    pub fn schedule(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, payload });
    }

    /// Time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time)
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|s| (s.time, s.payload))
    }

    /// Pops every event scheduled at or before `time`.
    pub fn pop_until(&mut self, time: f64) -> Vec<(f64, T)> {
        let mut out = Vec::new();
        while self.peek_time().is_some_and(|t| t <= time) {
            out.push(self.pop().expect("peeked"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(1.0, "first");
        q.schedule(1.0, "second");
        assert_eq!(q.pop(), Some((1.0, "first")));
        assert_eq!(q.pop(), Some((1.0, "second")));
    }

    #[test]
    fn pop_until_takes_prefix() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(i as f64, i);
        }
        let batch = q.pop_until(4.5);
        assert_eq!(batch.len(), 5);
        assert_eq!(q.heap.len(), 5);
        assert_eq!(q.peek_time(), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.schedule(f64::NAN, ());
    }
}
