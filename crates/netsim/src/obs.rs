//! Structured observability facade: levelled zero-alloc events and a
//! per-thread flight recorder.
//!
//! This is the *core* of the workspace observability layer — it lives in
//! `netsim` (the bottom crate of the workspace) so the simulation engine,
//! the analysis index builder and the live control plane can all emit
//! events through one facade.  `edonkey_platform::obs` re-exports it and
//! adds the metrics registry, histograms and the snapshot scraper.
//!
//! Design constraints, in order:
//!
//! 1. **Purity.**  Observation must never change what the system under
//!    observation does.  Events carry only `Copy` scalars and
//!    fixed-capacity inline strings; recording is a write into a
//!    pre-allocated per-thread ring.  Nothing here allocates on the emit
//!    path, takes a lock shared with the data path, or does I/O.
//! 2. **Always-on affordability.**  With the global level at
//!    [`Level::Off`] (the default) an event site is one relaxed atomic
//!    load and a branch.
//! 3. **Post-mortem value.**  Each thread keeps the last
//!    [`RING_CAPACITY`] events in a fixed ring (overwrite-oldest).  On a
//!    chaos-test failure the harness calls [`dump_all`] to ship every
//!    live ring to a JSONL file — the crash comes with its own trace.
//!
//! The emit API is the [`obs_event!`](crate::obs_event!) macro:
//!
//! ```
//! use netsim::obs::{self, Level};
//! obs::set_level(Level::Info);
//! netsim::obs_event!(Level::Info, "doctest", "hello", peer = 42u64, kind = "hello");
//! ```

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::json::push_str_literal;

/// Event verbosity, ordered: a global level of `Info` records `Error`,
/// `Warn` and `Info` events and skips `Debug`/`Trace`.  `Off` disables
/// recording entirely (the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Recording disabled; event sites cost one atomic load.
    Off = 0,
    /// Unrecoverable or data-affecting faults (WAL append failure, …).
    Error = 1,
    /// Degraded-but-running conditions (spool fallback, reaping, …).
    Warn = 2,
    /// Normal operational milestones — the default *enabled* verbosity.
    Info = 3,
    /// Per-message detail (chunk acks, retries).
    Debug = 4,
    /// Maximum verbosity: per-event-loop-pass detail, sim phase spans.
    Trace = 5,
}

impl Level {
    /// Short lowercase name used in JSONL dumps.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            3 => Level::Info,
            4 => Level::Debug,
            5 => Level::Trace,
            _ => Level::Off,
        }
    }
}

/// Global verbosity; `Off` by default so an un-configured process pays
/// only the guard load per event site.
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(Level::Off as u8);

/// Monotone event sequence shared by all threads — gives dumps a total
/// order even across per-thread rings.
static GLOBAL_SEQ: AtomicU64 = AtomicU64::new(0);

/// Set the global verbosity.  Takes effect immediately on all threads.
pub fn set_level(level: Level) {
    GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// Current global verbosity.
pub fn level() -> Level {
    Level::from_u8(GLOBAL_LEVEL.load(Ordering::Relaxed))
}

/// True when events at `level` are currently recorded.  This is the
/// whole hot-path guard: one relaxed load and a compare.
#[inline]
pub fn enabled(level: Level) -> bool {
    level as u8 <= GLOBAL_LEVEL.load(Ordering::Relaxed) && level != Level::Off
}

/// Capacity of an inline string field, chosen so a whole
/// [`EventRecord`] stays comfortably cache-resident.
pub const INLINE_STR_CAP: usize = 48;

/// A fixed-capacity, truncating, `Copy` string — how dynamic text
/// (error messages) rides in an event without allocating.
#[derive(Clone, Copy)]
pub struct InlineStr {
    len: u8,
    buf: [u8; INLINE_STR_CAP],
}

impl InlineStr {
    /// Copies at most [`INLINE_STR_CAP`] bytes of `s`, truncating on a
    /// UTF-8 boundary.
    pub fn new(s: &str) -> InlineStr {
        let mut end = s.len().min(INLINE_STR_CAP);
        while end > 0 && !s.is_char_boundary(end) {
            end -= 1;
        }
        let mut buf = [0u8; INLINE_STR_CAP];
        buf[..end].copy_from_slice(&s.as_bytes()[..end]);
        InlineStr { len: end as u8, buf }
    }

    /// The stored (possibly truncated) text.
    pub fn as_str(&self) -> &str {
        // Truncation lands on a char boundary, so this never fails.
        std::str::from_utf8(&self.buf[..self.len as usize]).unwrap_or("")
    }
}

impl fmt::Debug for InlineStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.as_str())
    }
}

/// A field value: `Copy` scalars plus inline text.  No heap.
#[derive(Clone, Copy, Debug)]
pub enum Value {
    /// Unsigned counter / identifier.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Measurement.
    F64(f64),
    /// Flag.
    Bool(bool),
    /// Static string (callsite literal).
    Str(&'static str),
    /// Dynamic text, truncated into the record.
    Text(InlineStr),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<&'static str> for Value {
    fn from(v: &'static str) -> Value {
        Value::Str(v)
    }
}
impl From<InlineStr> for Value {
    fn from(v: InlineStr) -> Value {
        Value::Text(v)
    }
}

/// Maximum key/value fields per event.
pub const MAX_FIELDS: usize = 6;

/// One recorded event: entirely `Copy`, sized for the ring.
#[derive(Clone, Copy, Debug)]
pub struct EventRecord {
    /// Global total-order sequence number.
    pub seq: u64,
    /// Wall-clock microseconds since the Unix epoch at record time.
    /// Diagnostic only — never fed back into the system under test.
    pub wall_micros: u64,
    /// Severity.
    pub level: Level,
    /// Subsystem, e.g. `"daemon"`, `"agent"`, `"sim"`.
    pub target: &'static str,
    /// Event name, e.g. `"wal_append_failed"`.
    pub name: &'static str,
    /// Key/value payload; `nfields` of these are live.
    pub fields: [(&'static str, Value); MAX_FIELDS],
    /// Number of live entries in `fields`.
    pub nfields: u8,
}

impl EventRecord {
    fn empty() -> EventRecord {
        EventRecord {
            seq: 0,
            wall_micros: 0,
            level: Level::Off,
            target: "",
            name: "",
            fields: [("", Value::U64(0)); MAX_FIELDS],
            nfields: 0,
        }
    }

    /// Serialises the record as one JSON object (one JSONL line, no
    /// trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        s.push_str(&format!(
            "{{\"seq\":{},\"wall_micros\":{},\"level\":\"{}\",\"target\":\"{}\",\"event\":\"{}\"",
            self.seq,
            self.wall_micros,
            self.level.as_str(),
            self.target,
            self.name
        ));
        for (key, value) in self.fields.iter().take(self.nfields as usize) {
            s.push_str(",\"");
            s.push_str(key);
            s.push_str("\":");
            match value {
                Value::U64(v) => s.push_str(&v.to_string()),
                Value::I64(v) => s.push_str(&v.to_string()),
                Value::F64(v) => {
                    if v.is_finite() {
                        s.push_str(&format!("{v:.6}"));
                    } else {
                        s.push_str("null");
                    }
                }
                Value::Bool(v) => s.push_str(if *v { "true" } else { "false" }),
                Value::Str(v) => push_str_literal(&mut s, v),
                Value::Text(v) => push_str_literal(&mut s, v.as_str()),
            }
        }
        s.push('}');
        s
    }
}

/// Events retained per thread before overwrite-oldest kicks in.
pub const RING_CAPACITY: usize = 4_096;

/// Fixed-capacity overwrite-oldest event ring.  One per thread; writes
/// are plain stores guarded by the thread-locality of the writer, reads
/// (dump paths) take the registry snapshot under the ring mutex.
struct Ring {
    slots: Box<[EventRecord]>,
    /// Total events ever written; `head % RING_CAPACITY` is the next slot.
    head: usize,
}

impl Ring {
    fn new() -> Ring {
        Ring { slots: vec![EventRecord::empty(); RING_CAPACITY].into_boxed_slice(), head: 0 }
    }

    fn push(&mut self, rec: EventRecord) {
        let idx = self.head % RING_CAPACITY;
        self.slots[idx] = rec;
        self.head += 1;
    }

    /// Live records, oldest first.
    fn drain_ordered(&self) -> Vec<EventRecord> {
        let live = self.head.min(RING_CAPACITY);
        let mut out = Vec::with_capacity(live);
        let start = self.head - live;
        for i in start..self.head {
            out.push(self.slots[i % RING_CAPACITY]);
        }
        out
    }
}

/// All rings ever created, so a dump can reach rings owned by other
/// (possibly parked) threads.  Rings are leaked intentionally: a dying
/// thread's last events are exactly what a post-mortem wants.
static RING_REGISTRY: Mutex<Vec<&'static Mutex<Ring>>> = Mutex::new(Vec::new());

/// Count of events dropped because a ring lock was contended at emit
/// time (writer never blocks; it drops and counts instead).
static CONTENDED_DROPS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_RING: &'static Mutex<Ring> = {
        let ring: &'static Mutex<Ring> = Box::leak(Box::new(Mutex::new(Ring::new())));
        RING_REGISTRY.lock().expect("obs ring registry").push(ring);
        ring
    };
}

/// Events dropped due to emit-time ring contention (dump in progress on
/// this thread's ring).  Diagnostic only.
pub fn contended_drops() -> usize {
    CONTENDED_DROPS.load(Ordering::Relaxed)
}

/// Records one event if `level` is enabled.  Prefer the [`obs_event!`](crate::obs_event!)
/// macro, which builds the field array inline at the callsite.
#[inline]
pub fn record(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: &[(&'static str, Value)],
) {
    if !enabled(level) {
        return;
    }
    record_always(level, target, name, fields);
}

/// Records unconditionally (no level check) — used by the macro after
/// its own guard, and by tests.
pub fn record_always(
    level: Level,
    target: &'static str,
    name: &'static str,
    fields: &[(&'static str, Value)],
) {
    let mut rec = EventRecord::empty();
    rec.seq = GLOBAL_SEQ.fetch_add(1, Ordering::Relaxed);
    rec.wall_micros = wall_micros();
    rec.level = level;
    rec.target = target;
    rec.name = name;
    let n = fields.len().min(MAX_FIELDS);
    rec.fields[..n].copy_from_slice(&fields[..n]);
    rec.nfields = n as u8;
    THREAD_RING.with(|ring| {
        // The owner thread is the only writer, so this lock is free
        // unless a dump is snapshotting the ring right now; never block
        // the data path on observability — drop the event instead.
        match ring.try_lock() {
            Ok(mut r) => r.push(rec),
            Err(_) => {
                CONTENDED_DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
    });
}

fn wall_micros() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Emit a structured event: `obs_event!(Level::Warn, "agent", "spool_degraded",
/// agent = 3u64, seq = seq, error = obs::InlineStr::new(&msg))`.
///
/// Field values are anything `Into<Value>` — unsigned/signed integers,
/// floats, bools, `&'static str`, or [`InlineStr`] for dynamic text.
/// Expands to a level check plus, when enabled, one ring write; no
/// allocation either way.
#[macro_export]
macro_rules! obs_event {
    ($level:expr, $target:expr, $name:expr $(, $key:ident = $val:expr)* $(,)?) => {{
        let lvl = $level;
        if $crate::obs::enabled(lvl) {
            $crate::obs::record_always(
                lvl,
                $target,
                $name,
                &[$((stringify!($key), $crate::obs::Value::from($val))),*],
            );
        }
    }};
}

/// Snapshot of every registered ring, merged oldest-first by global
/// sequence number.
pub fn snapshot_all() -> Vec<EventRecord> {
    let registry = RING_REGISTRY.lock().expect("obs ring registry");
    let mut all: Vec<EventRecord> = Vec::new();
    for ring in registry.iter() {
        if let Ok(r) = ring.lock() {
            all.extend(r.drain_ordered());
        }
    }
    drop(registry);
    all.sort_by_key(|r| r.seq);
    all
}

/// Snapshot of the *calling thread's* ring only, oldest first.
pub fn snapshot_thread() -> Vec<EventRecord> {
    THREAD_RING.with(|ring| ring.lock().map(|r| r.drain_ordered()).unwrap_or_default())
}

/// Dumps every live ring to `path` as JSONL (one event per line,
/// oldest first).  Creates parent directories.  Returns the number of
/// events written.
pub fn dump_all(path: &std::path::Path) -> std::io::Result<usize> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let events = snapshot_all();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for ev in &events {
        out.write_all(ev.to_json().as_bytes())?;
        out.write_all(b"\n")?;
    }
    out.flush()?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tests in this module share the process-global level; they only
    // ever *raise* it and use distinct targets so parallel test threads
    // cannot confuse each other's records.

    #[test]
    fn level_gating() {
        assert!(!enabled(Level::Off));
        set_level(Level::Warn);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        // Info may be enabled if another test raised the level; only
        // assert the ordering property.
        assert!(Level::Info > Level::Warn);
    }

    #[test]
    fn inline_str_truncates_on_char_boundary() {
        let long = "é".repeat(INLINE_STR_CAP); // 2 bytes each
        let s = InlineStr::new(&long);
        assert!(s.as_str().len() <= INLINE_STR_CAP);
        assert!(s.as_str().chars().all(|c| c == 'é'));
        let short = InlineStr::new("abc");
        assert_eq!(short.as_str(), "abc");
    }

    #[test]
    fn ring_wraps_overwriting_oldest() {
        let mut ring = Ring::new();
        let total = RING_CAPACITY + 257;
        for i in 0..total {
            let mut rec = EventRecord::empty();
            rec.seq = i as u64;
            ring.push(rec);
        }
        let live = ring.drain_ordered();
        assert_eq!(live.len(), RING_CAPACITY);
        // Oldest surviving record is exactly `total - capacity`.
        assert_eq!(live.first().unwrap().seq, (total - RING_CAPACITY) as u64);
        assert_eq!(live.last().unwrap().seq, (total - 1) as u64);
        // Strictly ordered.
        assert!(live.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn macro_records_fields_and_json_escapes() {
        set_level(Level::Trace);
        crate::obs_event!(
            Level::Debug,
            "obs-test",
            "macro_smoke",
            count = 7u64,
            ratio = 0.5f64,
            ok = true,
            kind = "static",
            msg = InlineStr::new("line1\nline\"2\"")
        );
        let mine = snapshot_thread();
        let rec = mine
            .iter()
            .rev()
            .find(|r| r.target == "obs-test" && r.name == "macro_smoke")
            .expect("recorded event");
        assert_eq!(rec.nfields, 5);
        let json = rec.to_json();
        assert!(json.contains("\"count\":7"));
        assert!(json.contains("\"ok\":true"));
        assert!(json.contains("\"kind\":\"static\""));
        assert!(json.contains("\\n"), "newline escaped: {json}");
        assert!(json.contains("\\\""), "quote escaped: {json}");
    }

    #[test]
    fn dump_all_writes_jsonl() {
        set_level(Level::Trace);
        crate::obs_event!(Level::Info, "obs-test", "dump_probe", id = 99u64);
        let dir = std::env::temp_dir().join(format!("obs-dump-{}", std::process::id()));
        let path = dir.join("events.jsonl");
        let n = dump_all(&path).expect("dump");
        assert!(n >= 1);
        let text = std::fs::read_to_string(&path).expect("read dump");
        assert!(text.lines().any(|l| l.contains("\"event\":\"dump_probe\"")));
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "jsonl line: {line}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
