//! In-memory tracing around the harness's own calls into each layer.
//!
//! Two recorders, both written out only when a run ends:
//!
//! * [`Tracer`] — named spans (start, end, causing span) for the coarse
//!   phases of a repetition, plus accumulating busy-time counters for call
//!   sites that fire per chunk or per session;
//! * [`TracedQueue`] — a [`PendingQueue`] wrapper that splits a scenario's
//!   run loop into queue time and handler time per event kind, from
//!   outside the engine.
//!
//! With tracing off a `Tracer` takes no timestamps at all, and the sims
//! run on the bare queue through `run_scenario`; end-to-end metrics always
//! come from that path.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use edonkey_sim::Event;
use netsim::{PendingQueue, SimTime};
use serde_json::{json, Value};

/// One recorded span; times are seconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

/// Span and busy-time recorder for one repetition.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    busy: BTreeMap<&'static str, (Duration, u64)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            busy: BTreeMap::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; nested spans become children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span { name, parent: self.open.last().copied(), start_s, end_s: start_s });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Runs `f` and adds its duration to the busy-time counter `name`
    /// (for boundaries crossed thousands of times per repetition).
    pub fn busy<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let slot = self.busy.entry(name).or_default();
        slot.0 += t.elapsed();
        slot.1 += 1;
        out
    }

    /// Folds in the busy-time counters of a tracer another thread filled.
    pub fn absorb_busy(&mut self, other: &Tracer) {
        for (name, (time, count)) in &other.busy {
            let slot = self.busy.entry(name).or_default();
            slot.0 += *time;
            slot.1 += *count;
        }
    }

    /// Total seconds under `name`: its spans' durations plus busy time.
    pub fn total_s(&self, name: &str) -> f64 {
        let spans: f64 =
            self.spans.iter().filter(|s| s.name == name).map(|s| s.end_s - s.start_s).sum();
        spans + self.busy.get(name).map_or(0.0, |(t, _)| t.as_secs_f64())
    }

    /// Self time of the spans named `name`: duration minus the part their
    /// direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut total = 0.0;
        for (id, s) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            let children: f64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(id))
                .map(|c| c.end_s - c.start_s)
                .sum();
            total += (s.end_s - s.start_s) - children;
        }
        total
    }

    /// The recorded spans and counters, for the trace file.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| json!({ "name": s.name, "parent": s.parent, "start_s": s.start_s, "end_s": s.end_s }))
            .collect();
        let busy: serde_json::Map = self
            .busy
            .iter()
            .map(|(name, (t, n))| {
                (name.to_string(), json!({ "busy_s": t.as_secs_f64(), "calls": *n }))
            })
            .collect();
        json!({ "spans": spans, "busy": busy })
    }
}

/// The event kinds a scenario's time is split over; `other` pools the
/// rare ones (manager check, crash, robot off, status sample).
pub const EVENT_KINDS: [&str; 7] = [
    "arrival_tick",
    "session_step",
    "round_start",
    "collect_logs",
    "keepalive",
    "robot_step",
    "other",
];

fn kind_of(event: &Event) -> usize {
    match event {
        Event::ArrivalTick => 0,
        Event::SessionStep { .. } => 1,
        Event::RoundStart { .. } => 2,
        Event::CollectLogs => 3,
        Event::Keepalive => 4,
        Event::RobotStep { .. } => 5,
        _ => 6,
    }
}

/// What a [`TracedQueue`] saw over one run.
#[derive(Default)]
pub struct QueueTrace {
    pub pushes: u64,
    pub pops: u64,
    pub peak_len: usize,
    /// Time inside the wrapped queue's push, pop and unpop.
    pub queue: Duration,
    /// Events handled, by kind (exact).
    pub events: [u64; 7],
    /// Time between an event's pop returning and the next pop being
    /// entered, minus the queue time spent inside that interval.
    pub handler: [Duration; 7],
    /// The event being handled: kind, when its pop returned, and the
    /// queue time its handler has spent so far.
    in_flight: Option<(usize, Instant, Duration)>,
}

impl QueueTrace {
    /// Closes the interval of the last handled event once the engine has
    /// returned (nothing pops after it to do so).
    pub fn close(&mut self) {
        self.settle(Instant::now());
    }

    fn settle(&mut self, now: Instant) {
        if let Some((kind, since, inside)) = self.in_flight.take() {
            self.handler[kind] += now.duration_since(since).saturating_sub(inside);
        }
    }
}

/// Wraps any pending queue and records into a [`QueueTrace`]; ordering is
/// the wrapped queue's own.
pub struct TracedQueue<'a, Q> {
    inner: Q,
    trace: &'a mut QueueTrace,
}

impl<'a, Q: PendingQueue<Event>> TracedQueue<'a, Q> {
    pub fn new(inner: Q, trace: &'a mut QueueTrace) -> Self {
        TracedQueue { inner, trace }
    }
}

impl<Q: PendingQueue<Event>> PendingQueue<Event> for TracedQueue<'_, Q> {
    fn push(&mut self, time: SimTime, payload: Event) {
        let t = Instant::now();
        self.inner.push(time, payload);
        let spent = t.elapsed();
        self.trace.queue += spent;
        if let Some(in_flight) = &mut self.trace.in_flight {
            in_flight.2 += spent;
        }
        self.trace.pushes += 1;
        self.trace.peak_len = self.trace.peak_len.max(self.inner.len());
    }

    fn pop(&mut self) -> Option<(SimTime, Event)> {
        let entered = Instant::now();
        self.trace.settle(entered);
        let popped = self.inner.pop();
        let returned = Instant::now();
        self.trace.queue += returned.duration_since(entered);
        if let Some((_, event)) = &popped {
            let kind = kind_of(event);
            self.trace.pops += 1;
            self.trace.events[kind] += 1;
            self.trace.in_flight = Some((kind, returned, Duration::ZERO));
        }
        popped
    }

    /// The engine parks the first at-or-past-horizon event back: it was
    /// popped but never handled, so its count and interval are withdrawn.
    fn unpop(&mut self, time: SimTime, payload: Event) {
        if let Some((kind, _, _)) = self.trace.in_flight.take() {
            self.trace.pops -= 1;
            self.trace.events[kind] -= 1;
        }
        let t = Instant::now();
        self.inner.unpop(time, payload);
        self.trace.queue += t.elapsed();
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn pushed_total(&self) -> u64 {
        self.inner.pushed_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::CalendarQueue;

    /// A deterministic push/pop script with many equal timestamps, run
    /// against a bare calendar queue and a traced one.
    fn drive<Q: PendingQueue<Event>>(q: &mut Q) -> Vec<(SimTime, u32)> {
        let mut rng = netsim::Rng::seed_from(7);
        let mut out = Vec::new();
        let mut now = 0u64;
        let mut next_peer = 0u32;
        for round in 0..2_000 {
            for _ in 0..rng.below(4) {
                // Few distinct delays, so FIFO ties are frequent.
                let at = now + 10 * rng.below(5);
                q.push(SimTime::from_millis(at), Event::SessionStep { peer: next_peer });
                next_peer += 1;
            }
            if round % 3 != 0 {
                if let Some((t, Event::SessionStep { peer })) = q.pop() {
                    now = t.as_millis();
                    if round % 50 == 1 {
                        // Park it back, as the engine does at a horizon.
                        q.unpop(t, Event::SessionStep { peer });
                    } else {
                        out.push((t, peer));
                    }
                }
            }
        }
        while let Some((t, Event::SessionStep { peer })) = q.pop() {
            out.push((t, peer));
        }
        out
    }

    #[test]
    fn traced_queue_preserves_pop_order_and_fifo_ties() {
        let mut bare = CalendarQueue::for_simulation();
        let expected = drive(&mut bare);

        let mut trace = QueueTrace::default();
        let mut traced = TracedQueue::new(CalendarQueue::for_simulation(), &mut trace);
        let got = drive(&mut traced);
        trace.close();

        assert_eq!(got, expected);
        assert!(expected.windows(2).any(|w| w[0].0 == w[1].0), "script must produce ties");
        assert_eq!(trace.pops as usize, expected.len());
        assert_eq!(trace.events[kind_of(&Event::SessionStep { peer: 0 })], trace.pops);
        assert_eq!(trace.pushes, bare.pushed_total());
        assert!(trace.peak_len > 0);
    }

    #[test]
    fn tracer_self_time_excludes_children_and_off_records_nothing() {
        let mut tr = Tracer::new(true);
        tr.span("outer", |tr| {
            std::thread::sleep(Duration::from_millis(4));
            tr.span("inner", |_| std::thread::sleep(Duration::from_millis(8)));
        });
        let (outer, inner) = (tr.total_s("outer"), tr.total_s("inner"));
        assert!(inner >= 0.008 && outer >= inner + 0.004);
        assert!((tr.self_s("outer") - (outer - inner)).abs() < 1e-9);

        let mut off = Tracer::new(false);
        off.span("outer", |tr| tr.busy("leaf", || ()));
        assert_eq!(off.total_s("outer"), 0.0);
        assert_eq!(off.to_json()["spans"].as_array().map(Vec::len), Some(0));
    }
}
