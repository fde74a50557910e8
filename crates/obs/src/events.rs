//! Per-table lifecycle event tracing: a bounded ring buffer with globally
//! monotonic sequence numbers.
//!
//! Sequence numbers start at 1 and never reset, so `since(seq)` pagination
//! stays correct across ring wraparound: a reader that falls behind sees
//! `truncated = true` and resumes from whatever is still buffered. The
//! ring is a `Mutex<VecDeque>` — events are rare (per batch / per refit /
//! per transition), never per-row, so a short critical section is cheaper
//! than a lock-free ring and keeps ordering trivially correct.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One structured lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Monotonic sequence number, 1-based, never reused.
    pub seq: u64,
    /// Milliseconds of monotonic time since the owning registry started.
    pub at_ms: u64,
    /// Machine-readable kind, e.g. `"refit_published"` or `"health"`.
    pub kind: &'static str,
    /// Human-readable detail, e.g. `"healthy -> degraded"`.
    pub detail: String,
    /// Correlation id of the HTTP request that caused the event, if any.
    pub request_id: Option<String>,
}

/// A page of events returned by [`EventRing::since`].
#[derive(Debug, Clone)]
pub struct EventPage {
    /// Events with `seq > since`, oldest first.
    pub events: Vec<Event>,
    /// True when events between `since` and the oldest buffered event were
    /// dropped by ring wraparound.
    pub truncated: bool,
    /// Cursor for the next page: the seq of the last event returned here
    /// (the caller's `since` when the page is empty). Pass back as `since`
    /// to continue — correct even when `max` cut the page short.
    pub next_since: u64,
}

/// Default ring capacity used by the service layer.
pub const DEFAULT_EVENT_CAPACITY: usize = 512;

#[derive(Debug)]
struct Inner {
    buf: VecDeque<Event>,
    next_seq: u64,
}

/// A bounded ring of [`Event`]s. Recording is gated on the shared
/// `enabled` flag; reading is not.
#[derive(Debug)]
pub struct EventRing {
    enabled: Arc<AtomicBool>,
    start: Instant,
    cap: usize,
    inner: Mutex<Inner>,
}

impl EventRing {
    /// A ring holding at most `cap` events, timestamped relative to
    /// `start`, gated by `enabled`.
    pub fn new(cap: usize, start: Instant, enabled: Arc<AtomicBool>) -> Self {
        assert!(cap > 0, "event ring capacity must be positive");
        EventRing {
            enabled,
            start,
            cap,
            inner: Mutex::new(Inner { buf: VecDeque::with_capacity(cap), next_seq: 1 }),
        }
    }

    /// A standalone always-enabled ring (tests, direct table construction).
    pub fn standalone(cap: usize) -> Self {
        Self::new(cap, Instant::now(), Arc::new(AtomicBool::new(true)))
    }

    /// Record an event; returns its sequence number (0 when disabled).
    pub fn record(&self, kind: &'static str, detail: String, request_id: Option<String>) -> u64 {
        if !self.enabled.load(Ordering::Relaxed) {
            return 0;
        }
        let at_ms = self.start.elapsed().as_millis().min(u64::MAX as u128) as u64;
        let mut inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.buf.len() == self.cap {
            inner.buf.pop_front();
        }
        inner.buf.push_back(Event { seq, at_ms, kind, detail, request_id });
        seq
    }

    /// Events with `seq > since`, oldest first, at most `max`.
    pub fn since(&self, since: u64, max: usize) -> EventPage {
        let inner = self.inner.lock().unwrap_or_else(|p| p.into_inner());
        let oldest = inner.next_seq - inner.buf.len() as u64; // seq of oldest buffered
        let truncated = !inner.buf.is_empty() && since + 1 < oldest;
        let events: Vec<Event> =
            inner.buf.iter().filter(|e| e.seq > since).take(max).cloned().collect();
        let next_since = events.last().map_or(since, |e| e.seq);
        EventPage { events, truncated, next_since }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(cap: usize) -> EventRing {
        EventRing::standalone(cap)
    }

    #[test]
    fn records_in_order_with_monotonic_seq() {
        let r = ring(8);
        let s1 = r.record("a", "one".into(), None);
        let s2 = r.record("b", "two".into(), Some("req-1".into()));
        assert_eq!((s1, s2), (1, 2));
        let page = r.since(0, 100);
        assert!(!page.truncated);
        assert_eq!(page.next_since, 2);
        assert_eq!(page.events.len(), 2);
        assert_eq!(page.events[0].kind, "a");
        assert_eq!(page.events[1].request_id.as_deref(), Some("req-1"));
        assert!(page.events[0].at_ms <= page.events[1].at_ms);
    }

    #[test]
    fn wraparound_drops_oldest_and_reports_truncation() {
        let r = ring(4);
        for i in 0..10 {
            r.record("e", format!("{i}"), None);
        }
        // Buffer holds seqs 7..=10.
        let page = r.since(0, 100);
        assert!(page.truncated, "reader from 0 must see truncation after wrap");
        assert_eq!(page.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![7, 8, 9, 10]);
        assert_eq!(page.next_since, 10);

        // A reader that kept up (since = 6) sees no truncation.
        let page = r.since(6, 100);
        assert!(!page.truncated);
        assert_eq!(page.events.first().unwrap().seq, 7);

        // since = 5 means seq 6 was dropped → truncated.
        assert!(r.since(5, 100).truncated);
    }

    #[test]
    fn pagination_across_wrap() {
        let r = ring(4);
        for i in 0..6 {
            r.record("e", format!("{i}"), None);
        }
        // Page through with max = 2 starting from the oldest buffered.
        let p1 = r.since(2, 2);
        assert_eq!(p1.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3, 4]);
        let p2 = r.since(4, 2);
        assert!(!p2.truncated);
        assert_eq!(p2.events.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5, 6]);
        let p3 = r.since(6, 2);
        assert!(p3.events.is_empty());
        assert_eq!(p3.next_since, 6);

        // More events wrap the ring between pages; the reader detects the gap.
        for i in 6..12 {
            r.record("e", format!("{i}"), None);
        }
        let p4 = r.since(6, 100);
        assert!(p4.truncated, "seqs 7,8 dropped while paging");
        assert_eq!(p4.events.first().unwrap().seq, 9);
    }

    #[test]
    fn caught_up_reader_is_not_truncated() {
        let r = ring(2);
        for _ in 0..8 {
            r.record("e", String::new(), None);
        }
        let page = r.since(8, 10);
        assert!(page.events.is_empty());
        assert!(!page.truncated, "a fully caught-up reader missed nothing");
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let enabled = Arc::new(AtomicBool::new(false));
        let r = EventRing::new(4, Instant::now(), Arc::clone(&enabled));
        assert_eq!(r.record("e", String::new(), None), 0);
        assert!(r.since(0, 10).events.is_empty());
        enabled.store(true, Ordering::Relaxed);
        assert_eq!(r.record("e", String::new(), None), 1);
    }

    #[test]
    fn empty_ring_since_zero() {
        let r = ring(4);
        let page = r.since(0, 10);
        assert!(page.events.is_empty());
        assert!(!page.truncated);
        assert_eq!(page.next_since, 0);
    }
}
