//! A bucketed *calendar queue* — the classic alternative to a binary heap
//! for discrete-event simulation (Brown, CACM 1988).
//!
//! Events land in a circular array of "day" buckets by timestamp.  The
//! bucket under the cursor is kept sorted descending by `(time, seq)`, so
//! the next event to fire is always at its *back* and popping is a plain
//! `Vec::pop`; other buckets stay unsorted and are sorted once, lazily,
//! when the cursor reaches them.  For workloads whose pending events
//! cluster tightly in time — like this simulator's retry/timeout traffic —
//! most pushes land outside the current window (O(1) append) and pops are
//! O(1), versus O(log n) sift costs for a heap.  The `netsim.queue_*`
//! layers of `benchmark/` time it under the simulator's actual
//! scheduling pattern.
//!
//! Semantics match [`crate::event::EventQueue`] exactly: FIFO order among
//! equal timestamps, monotone pops.  A property test in
//! `tests/proptests.rs` asserts the two yield identical
//! `(time, payload)` sequences on arbitrary schedules.

use crate::queue::PendingQueue;
use crate::time::SimTime;

/// One stored event.
///
/// `seq` is signed: pushes count up from zero, [`CalendarQueue::unpop`]
/// counts down from −1 (see [`crate::queue::PendingQueue::unpop`]).
struct Entry<E> {
    time: SimTime,
    seq: i64,
    payload: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, i64) {
        (self.time, self.seq)
    }
}

/// A calendar queue with fixed bucket width.
pub struct CalendarQueue<E> {
    /// Circular buckets; each holds entries for times in
    /// `[k·width, (k+1)·width)` for some epoch `k` congruent to the bucket
    /// index.  The bucket at `current_bucket` is sorted descending by
    /// `(time, seq)` (minimum at the back); the rest are unsorted.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bucket width in ms.
    width: u64,
    /// Lower bound of the earliest possibly-non-empty bucket's window.
    current_window: u64,
    /// Index of the bucket for `current_window`.
    current_bucket: usize,
    len: usize,
    next_seq: i64,
    front_seq: i64,
}

impl<E> CalendarQueue<E> {
    /// Creates a queue with `buckets` buckets of `width_ms` each.  The
    /// calendar spans `buckets × width_ms`; events beyond that wrap and
    /// cost extra scans, so pick a span covering the typical scheduling
    /// horizon (e.g. one day of 1-minute buckets).
    pub fn new(buckets: usize, width_ms: u64) -> Self {
        assert!(buckets > 0 && width_ms > 0, "degenerate calendar");
        CalendarQueue {
            buckets: (0..buckets).map(|_| Vec::new()).collect(),
            width: width_ms,
            current_window: 0,
            current_bucket: 0,
            len: 0,
            next_seq: 0,
            front_seq: 0,
        }
    }

    /// A calendar sized for the simulator's scheduling pattern: one day of
    /// one-minute buckets.  Session retries, keepalives and collection
    /// ticks almost always land within this span, so wrap-around laps are
    /// rare.
    pub fn for_simulation() -> Self {
        CalendarQueue::new(24 * 60, 60_000)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever pushed (diagnostics).
    pub fn pushed_total(&self) -> u64 {
        self.next_seq as u64
    }

    /// Schedules `payload` at `time`.
    ///
    /// # Panics
    /// If `time` precedes the last popped window start (causality).
    pub fn push(&mut self, time: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Entry { time, seq, payload });
    }

    /// Reinserts a just-popped minimum at the front of its FIFO class
    /// (see [`crate::queue::PendingQueue::unpop`]).
    pub fn unpop(&mut self, time: SimTime, payload: E) {
        self.front_seq -= 1;
        let seq = self.front_seq;
        self.insert(Entry { time, seq, payload });
    }

    fn insert(&mut self, entry: Entry<E>) {
        assert!(
            entry.time.as_millis() >= self.current_window,
            "event scheduled before the calendar's current window"
        );
        let slot = (entry.time.as_millis() / self.width) as usize % self.buckets.len();
        let bucket = &mut self.buckets[slot];
        if slot == self.current_bucket {
            // The cursor bucket is sorted descending; binary-insert to keep
            // the minimum at the back.  `partition_point` finds the first
            // index whose key is <= ours in descending order.
            let key = entry.key();
            let pos = bucket.partition_point(|e| e.key() > key);
            bucket.insert(pos, entry);
        } else {
            bucket.push(entry);
        }
        self.len += 1;
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            let window_end = self.current_window + self.width;
            let bucket = &mut self.buckets[self.current_bucket];
            // Sorted descending: the back entry is the bucket minimum.  If
            // it belongs to a future calendar lap, so does everything else
            // in the bucket.
            if let Some(e) = bucket.last() {
                if e.time.as_millis() < window_end {
                    let e = bucket.pop().expect("non-empty bucket");
                    self.len -= 1;
                    return Some((e.time, e.payload));
                }
            }
            // Advance the calendar and sort the next cursor bucket so its
            // minimum sits at the back.
            self.current_window = window_end;
            self.current_bucket = (self.current_bucket + 1) % self.buckets.len();
            let next = &mut self.buckets[self.current_bucket];
            if next.len() > 1 {
                next.sort_unstable_by_key(|e| std::cmp::Reverse(e.key()));
            }
        }
    }

    /// Timestamp of the earliest pending event (O(n) worst case — provided
    /// for parity with `EventQueue`, not used on hot paths).
    pub fn peek_time(&self) -> Option<SimTime> {
        // Fast path: the cursor bucket's back entry, when it belongs to the
        // current window, is the global minimum.
        if let Some(e) = self.buckets[self.current_bucket].last() {
            if e.time.as_millis() < self.current_window + self.width {
                return Some(e.time);
            }
        }
        self.buckets.iter().flat_map(|b| b.iter()).min_by_key(|e| e.key()).map(|e| e.time)
    }
}

impl<E> PendingQueue<E> for CalendarQueue<E> {
    fn push(&mut self, time: SimTime, payload: E) {
        CalendarQueue::push(self, time, payload);
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        CalendarQueue::pop(self)
    }

    fn unpop(&mut self, time: SimTime, payload: E) {
        CalendarQueue::unpop(self, time, payload);
    }

    fn len(&self) -> usize {
        CalendarQueue::len(self)
    }

    fn pushed_total(&self) -> u64 {
        CalendarQueue::pushed_total(self)
    }
}

impl<E> std::fmt::Debug for CalendarQueue<E> {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("CalendarQueue")
            .field("len", &self.len)
            .field("buckets", &self.buckets.len())
            .field("width_ms", &self.width)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn pops_in_time_order_across_buckets() {
        let mut q = CalendarQueue::new(16, 100);
        q.push(SimTime(1_550), "c");
        q.push(SimTime(20), "a");
        q.push(SimTime(170), "b");
        assert_eq!(q.pop(), Some((SimTime(20), "a")));
        assert_eq!(q.pop(), Some((SimTime(170), "b")));
        assert_eq!(q.pop(), Some((SimTime(1_550), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut q = CalendarQueue::new(4, 50);
        for i in 0..10 {
            q.push(SimTime(25), i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((SimTime(25), i)));
        }
    }

    #[test]
    fn wrap_around_laps_are_ordered() {
        // Calendar spans 4 × 10 = 40 ms; schedule far beyond one lap.
        let mut q = CalendarQueue::new(4, 10);
        q.push(SimTime(5), 0);
        q.push(SimTime(45), 1); // same bucket as 5, next lap
        q.push(SimTime(85), 2); // same bucket, lap after
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        assert_eq!(q.pop(), Some((SimTime(45), 1)));
        assert_eq!(q.pop(), Some((SimTime(85), 2)));
    }

    #[test]
    fn interleaved_push_pop() {
        let mut q = CalendarQueue::new(8, 100);
        q.push(SimTime(500), 'b');
        q.push(SimTime(100), 'a');
        assert_eq!(q.pop().unwrap().1, 'a');
        // Pushing after popping is fine as long as causality holds.
        q.push(SimTime(300), 'c');
        assert_eq!(q.pop().unwrap().1, 'c');
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    #[test]
    fn unpop_keeps_fifo_front_position() {
        let mut q = CalendarQueue::new(8, 100);
        q.push(SimTime(50), "first");
        q.push(SimTime(50), "second");
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, "first");
        q.unpop(t, e);
        assert_eq!(q.pop(), Some((SimTime(50), "first")));
        assert_eq!(q.pop(), Some((SimTime(50), "second")));
    }

    #[test]
    #[should_panic(expected = "before the calendar")]
    fn past_events_rejected() {
        let mut q = CalendarQueue::new(4, 10);
        q.push(SimTime(100), ());
        let _ = q.pop();
        q.push(SimTime(5), ());
    }

    #[test]
    fn agrees_with_binary_heap_queue_on_random_workload() {
        let mut rng = Rng::seed_from(5);
        let mut cal = CalendarQueue::new(64, 25);
        let mut heap = crate::event::EventQueue::new();
        let mut clock = 0u64;
        for step in 0..5_000 {
            if rng.chance(0.6) || cal.is_empty() {
                let t = clock + rng.below(3_000);
                cal.push(SimTime(t), step);
                heap.push(SimTime(t), step);
            } else {
                let a = cal.pop().unwrap();
                let b = heap.pop().unwrap();
                assert_eq!(a, b, "queues diverged at step {step}");
                clock = a.0.as_millis();
            }
        }
        while let Some(b) = heap.pop() {
            assert_eq!(cal.pop().unwrap(), b);
        }
        assert!(cal.is_empty());
        assert_eq!(cal.peek_time(), None);
    }

    #[test]
    fn peek_finds_minimum() {
        let mut q = CalendarQueue::new(4, 10);
        q.push(SimTime(31), 1);
        q.push(SimTime(7), 2);
        assert_eq!(q.peek_time(), Some(SimTime(7)));
    }

    #[test]
    fn push_into_cursor_bucket_mid_scan_stays_sorted() {
        // Pop advances the cursor into a bucket, then new events land in
        // that same (sorted) bucket: the binary insertion must keep the
        // back-is-minimum invariant.
        let mut q = CalendarQueue::new(4, 100);
        q.push(SimTime(150), 'b');
        assert_eq!(q.pop(), Some((SimTime(150), 'b'))); // cursor now in bucket 1
        q.push(SimTime(180), 'd');
        q.push(SimTime(160), 'c');
        q.push(SimTime(199), 'e');
        assert_eq!(q.pop(), Some((SimTime(160), 'c')));
        assert_eq!(q.pop(), Some((SimTime(180), 'd')));
        assert_eq!(q.pop(), Some((SimTime(199), 'e')));
    }
}
