//! Seeded property tests of the simulation engine's invariants: every
//! case is generated from its seed alone, and a failure names the seed.

use netsim::dist::{poisson, Zipf};
use netsim::engine::{Engine, Scheduler, World};
use netsim::metrics::{BucketSeries, FirstSeen};
use netsim::{CalendarQueue, EventQueue, Json, Rng, SimTime, TimingWheel};

/// Cases per property.
const CASES: u64 = 256;

/// A vector of up to `max_len - 1` generated items.
fn vec_of<T>(rng: &mut Rng, max_len: u64, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    (0..rng.below(max_len)).map(|_| item(rng)).collect()
}

/// Drives an arbitrary push/pop schedule through both queue
/// implementations and asserts they yield the same `(time, payload)`
/// sequence.  `ops` pairs a push/pop choice with a delay; delays range far
/// beyond the calendar's span (4 × 50 = 200 ms) so wrap-around laps are
/// exercised.  Pops feed the clock forward, keeping pushes causal.
fn assert_queues_agree(ops: &[(bool, u64)]) {
    let mut cal = CalendarQueue::new(4, 50);
    let mut heap = EventQueue::new();
    let mut clock = 0u64;
    for (step, &(push, delay)) in ops.iter().enumerate() {
        if push || cal.is_empty() {
            let t = SimTime(clock + delay);
            cal.push(t, step);
            heap.push(t, step);
        } else {
            let a = cal.pop();
            let b = heap.pop();
            assert_eq!(a, b, "queues diverged at op {step}");
            clock = a.expect("queue was non-empty").0.as_millis();
        }
    }
    loop {
        let a = cal.pop();
        let b = heap.pop();
        assert_eq!(a, b, "queues diverged while draining");
        if a.is_none() {
            break;
        }
    }
}

/// One level-4 rotation of the hierarchical timing wheel: events beyond
/// `now + WHEEL_SPAN` land in its unsorted overflow pool, so delays past
/// this bound exercise the overflow → wheel refill path.
const WHEEL_SPAN: u64 = 1 << 30;

/// Drives an arbitrary schedule through all three queue implementations —
/// binary heap (the ordering reference), calendar, timing wheel — and
/// asserts identical `(time, payload)` sequences.  Ops mix near pushes
/// (with deliberate ties), far-future pushes beyond the wheel's top
/// rotation (overflow + calendar wraparound), plain pops, and
/// pop→`unpop`→pop probes which must return the same front event twice.
/// The calendar span here is 16 × 4096 ≈ 65 s so far-future drains stay
/// a bounded number of laps.
fn assert_three_queues_agree(ops: &[(u8, u64)]) {
    let mut heap = EventQueue::new();
    let mut cal = CalendarQueue::new(16, 4_096);
    let mut wheel = TimingWheel::new();
    let mut clock = 0u64;
    for (step, &(choice, raw)) in ops.iter().enumerate() {
        let do_push = matches!(choice % 8, 0..=4) || heap.is_empty();
        if do_push {
            let delay = match choice % 8 {
                4 => WHEEL_SPAN + raw % (3 * WHEEL_SPAN),
                _ if raw % 5 == 0 => 0,
                _ => raw % 50_000,
            };
            let t = SimTime(clock + delay);
            heap.push(t, step);
            cal.push(t, step);
            wheel.push(t, step);
        } else if choice % 8 == 7 {
            // Pop the front, park it back with unpop, and pop again: the
            // parked event must stay at the front of its timestamp's FIFO
            // class in every implementation.
            let a = heap.pop();
            assert_eq!(a, cal.pop(), "heap vs calendar diverged at op {step}");
            assert_eq!(a, wheel.pop(), "heap vs wheel diverged at op {step}");
            let (t, v) = a.expect("queue was non-empty");
            clock = t.as_millis();
            heap.unpop(t, v);
            cal.unpop(t, v);
            wheel.unpop(t, v);
            let again = Some((t, v));
            assert_eq!(heap.pop(), again, "heap unpop lost front position at op {step}");
            assert_eq!(cal.pop(), again, "calendar unpop lost front position at op {step}");
            assert_eq!(wheel.pop(), again, "wheel unpop lost front position at op {step}");
        } else {
            let a = heap.pop();
            assert_eq!(a, cal.pop(), "heap vs calendar diverged at op {step}");
            assert_eq!(a, wheel.pop(), "heap vs wheel diverged at op {step}");
            clock = a.expect("queue was non-empty").0.as_millis();
        }
    }
    loop {
        let a = heap.pop();
        assert_eq!(a, cal.pop(), "heap vs calendar diverged while draining");
        assert_eq!(a, wheel.pop(), "heap vs wheel diverged while draining");
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn calendar_queue_matches_heap_on_any_schedule() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        // Against a 200 ms calendar span: mostly the simulator's tight
        // clusters, deliberate ties (delay 0), and jumps of several laps.
        let ops = vec_of(&mut rng, 800, |r| {
            let delay = match r.below(10) {
                0 => 0,
                1..=5 => r.below(120),
                6..=8 => r.below(1_500),
                _ => r.below(5_000),
            };
            (r.chance(0.55), delay)
        });
        std::panic::catch_unwind(|| assert_queues_agree(&ops))
            .unwrap_or_else(|_| panic!("calendar vs heap diverged at seed {seed}"));
    }
}

#[test]
fn all_three_queues_agree_on_any_schedule() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        // Choice 4 maps to a far-future push past the wheel's top rotation;
        // the rest mix near pushes (ties included), pops, and unpop probes.
        let ops = vec_of(&mut rng, 600, |r| (r.next_u32() as u8, r.next_u64()));
        std::panic::catch_unwind(|| assert_three_queues_agree(&ops))
            .unwrap_or_else(|_| panic!("queues diverged at seed {seed}"));
    }
}

#[test]
fn event_queue_pops_sorted_and_stable() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let times: Vec<u64> = (0..rng.range(1, 200)).map(|_| rng.below(1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        while let Some((t, idx)) = q.pop() {
            popped += 1;
            if let Some((pt, pidx)) = prev {
                assert!(t >= pt, "seed {seed}: times must be non-decreasing");
                if t == pt {
                    assert!(idx > pidx, "seed {seed}: ties must preserve insertion order");
                }
            }
            assert_eq!(SimTime(times[idx]), t, "seed {seed}: payload must carry its own time");
            prev = Some((t, idx));
        }
        assert_eq!(popped, times.len(), "seed {seed}");
    }
}

#[test]
fn rng_below_in_bounds() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n = rng.range(1, 1_000_000);
        for _ in 0..50 {
            assert!(rng.below(n) < n, "seed {seed}");
        }
    }
}

#[test]
fn rng_sample_indices_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n = rng.range(1, 500) as usize;
        let k = ((n as f64) * rng.f64()) as usize;
        let s = rng.sample_indices(n, k);
        assert_eq!(s.len(), k, "seed {seed}");
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), k, "seed {seed}");
        assert!(s.iter().all(|&i| i < n), "seed {seed}");
    }
}

#[test]
fn zipf_probabilities_form_a_distribution() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n = rng.range(1, 2_000) as usize;
        let z = Zipf::new(n, 2.5 * rng.f64());
        let total: f64 = (0..n).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-6, "seed {seed}: sum {total}");
        // Monotone non-increasing in rank.
        for k in 1..n.min(50) {
            assert!(z.probability(k) <= z.probability(k - 1) + 1e-12, "seed {seed}: rank {k}");
        }
    }
}

#[test]
fn zipf_samples_in_range() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n = rng.range(1, 500) as usize;
        let z = Zipf::new(n, 1.0);
        for _ in 0..50 {
            assert!(z.sample(&mut rng) < n, "seed {seed}");
        }
    }
}

#[test]
fn poisson_is_finite_and_plausible() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let lambda = 2_000.0 * rng.f64();
        let x = poisson(&mut rng, lambda);
        // A draw 60σ above the mean indicates a broken sampler, not luck.
        assert!(
            (x as f64) < lambda + 60.0 * lambda.sqrt() + 60.0,
            "seed {seed}: {x} at λ {lambda}"
        );
    }
}

#[test]
fn bucket_series_total_is_preserved() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let events = vec_of(&mut rng, 200, |r| (r.below(100_000_000), r.range(1, 5)));
        let mut s = BucketSeries::hourly();
        let mut expect = 0;
        for &(t, n) in &events {
            s.add(SimTime(t), n);
            expect += n;
        }
        assert_eq!(s.total(), expect, "seed {seed}");
        let cum = s.cumulative(s.len());
        if let Some(&last) = cum.last() {
            assert_eq!(last, expect, "seed {seed}");
        }
    }
}

#[test]
fn first_seen_distinct_matches_set() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let keys = vec_of(&mut rng, 300, |r| r.below(50) as u32);
        let mut fs = FirstSeen::new();
        for (i, &k) in keys.iter().enumerate() {
            fs.observe(k, SimTime(i as u64));
        }
        let expect: std::collections::HashSet<_> = keys.iter().collect();
        assert_eq!(fs.distinct(), expect.len(), "seed {seed}");
        // New-per-bucket sums to distinct.
        let per: u64 = fs.new_per_bucket(1_000, 0).iter().sum();
        assert_eq!(per as usize, expect.len(), "seed {seed}");
    }
}

#[test]
fn engine_handles_every_scheduled_event_before_horizon() {
    struct Count(u64);
    impl World for Count {
        type Event = ();
        fn handle(&mut self, _: SimTime, _: (), _: &mut Scheduler<'_, ()>) {
            self.0 += 1;
        }
    }
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let times: Vec<u64> = (0..rng.range(1, 100)).map(|_| rng.below(10_000)).collect();
        let horizon = rng.range(1, 12_000);
        let mut engine: Engine<Count> = Engine::new();
        for &t in &times {
            engine.schedule(SimTime(t), ());
        }
        let mut world = Count(0);
        engine.run_until(&mut world, SimTime(horizon));
        let expect = times.iter().filter(|&&t| t < horizon).count() as u64;
        assert_eq!(world.0, expect, "seed {seed}");
    }
}

/// A random JSON value, nested at most `depth` levels below this one.  The
/// awkward scalars — `u64::MAX`, `i64::MIN`, `-0.0`, subnormals, NaN and
/// the infinities, strings of quotes, backslashes, control characters and
/// non-ASCII — are drawn as often as the ordinary ones.
fn arb_json(rng: &mut Rng, depth: u32) -> Json {
    const CHARS: [char; 16] = [
        '"', '\\', '/', '\n', '\r', '\t', '\0', '\u{8}', '\u{c}', '\u{1f}', '\u{7f}', 'a', ' ',
        'é', '€', '😀',
    ];
    let string = |r: &mut Rng| (0..r.below(12)).map(|_| *r.choose(&CHARS)).collect::<String>();
    match rng.below(if depth == 0 { 12 } else { 14 }) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::from(rng.next_u64() >> rng.below(64)),
        3 => Json::from(u64::MAX),
        4 => Json::from(-((rng.next_u64() >> rng.range(1, 64)) as i64) - 1),
        5 => Json::from(i64::MIN),
        6 => Json::F64(f64::from_bits(rng.next_u64())),
        7 => Json::F64(-0.0),
        8 => Json::F64(f64::from_bits(rng.range(1, 1 << 52))), // subnormal
        9 => Json::F64(*rng.choose(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY])),
        10 => Json::F64((rng.f64() - 0.5) * 1e6),
        11 => Json::Str(string(rng)),
        12 => Json::Array(vec_of(rng, 5, |r| arb_json(r, depth - 1))),
        _ => Json::object(vec_of(rng, 5, |r| (string(r), arb_json(r, depth - 1)))),
    }
}

#[test]
fn json_survives_writer_reader_writer() {
    for seed in 0..4 * CASES {
        let value = arb_json(&mut Rng::seed_from(seed), 3);
        for text in [value.to_string(), value.pretty()] {
            let back: Json =
                text.parse().unwrap_or_else(|e| panic!("seed {seed}: {e} in own output {text}"));
            assert_eq!(back.to_string(), value.to_string(), "seed {seed}");
            assert_eq!(back.pretty(), value.pretty(), "seed {seed}");
        }
        // Only a non-finite float (printed as null) may read back different.
        let lossy = value.to_string().contains("null");
        assert!(lossy || value.to_string().parse::<Json>().unwrap() == value, "seed {seed}");
    }
}

#[test]
fn json_reader_never_panics_on_damaged_text() {
    for seed in 0..4 * CASES {
        let mut rng = Rng::seed_from(seed);
        let mut text = arb_json(&mut rng, 3).pretty().into_bytes();
        for _ in 0..rng.range(1, 4) {
            let at = rng.below(text.len() as u64) as usize;
            match rng.below(3) {
                0 => text[at] = *rng.choose(b"{}[]\",:\\u-e.0 "),
                1 => text.truncate(at),
                _ => text.insert(at, *rng.choose(b"{}[]\",:\\u-e.0 ")),
            }
            if text.is_empty() {
                break;
            }
        }
        // Errors are fine; panics are not.
        let _ = String::from_utf8_lossy(&text).parse::<Json>();
    }
}
