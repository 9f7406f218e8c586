//! In-memory span recorder around the benchmark's calls into each layer.
//!
//! Spans are recorded only while tracing is on; each carries its name,
//! start and end (nanoseconds since the recorder's epoch), the span that
//! was open on the same thread when it started, and the request it
//! belongs to. Everything stays in memory until [`write_jsonl`] dumps it
//! at exit, so recording costs one clock read per boundary and one
//! uncontended lock on close.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span on the same thread; 0 for a root span.
    pub parent: u64,
    /// Request the span belongs to; 0 outside the request loop.
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

// Relaxed throughout: the flag and the id counter publish no other data
// (spans themselves are handed over under the mutex).
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turn recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Tag spans opened on this thread from now on with `request`.
pub fn set_request(request: u64) {
    REQUEST.with(|r| r.set(request));
}

/// Open span `name`; it closes when the guard drops.
#[must_use]
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Guard(Some(Span {
        id,
        parent,
        request: REQUEST.with(Cell::get),
        name,
        start_ns: now_ns(),
        end_ns: 0,
    }))
}

/// Closes its span on drop.
pub struct Guard(Option<Span>);

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.0.take() {
            span.end_ns = now_ns();
            STACK.with(|s| {
                s.borrow_mut().pop();
            });
            // A poisoned lock only means another thread panicked while
            // pushing; the vector itself is always valid.
            SPANS
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(span);
        }
    }
}

/// Every span closed so far, in closing order.
pub fn spans() -> Vec<Span> {
    SPANS
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Per-name totals: (count, total ns, self ns). A span's self time is its
/// duration minus the time its direct children cover.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_default();
        let d = s.duration_ns();
        e.0 += 1;
        e.1 += d;
        e.2 += d.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Write `spans` as one JSON object per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
