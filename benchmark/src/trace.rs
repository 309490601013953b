//! Tracing for the traced run, recorded from the harness's own files.
//!
//! - [`Tracer`] keeps spans (name, start, end, parent, epoch) in memory
//!   and writes them at exit as Chrome `trace_event` JSON. A tracer
//!   that is off makes every call a no-op, so the untraced run uses
//!   the same code path minus the recording.
//! - [`TracedManager`] and [`TracedStorage`] delegate to the real
//!   manager / storage backend and put a span around each call into
//!   the layer.
//! - [`Probes`] is a `rekey_obs::Recorder` installed for the traced run
//!   only, to *read* the probes the program already exports.

use rand::RngCore;
use rekey_core::{GroupKeyManager, IntervalOutcome, Join, PersistError};
use rekey_crypto::Key;
use rekey_keytree::{KeyTreeError, MemberId, NodeId};
use rekey_obs::Recorder;
use rekey_storage::{Storage, StorageError, WalReplay};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `storage.sync_wal`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Rekey epoch the span belongs to: the id spans of one interval share.
    pub epoch: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct TraceBuf {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    epoch: u64,
}

/// Handle to the span buffer; cheap to clone, no-op when off.
#[derive(Debug, Clone)]
pub struct Tracer(Option<Arc<Mutex<TraceBuf>>>);

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer(Some(Arc::new(Mutex::new(TraceBuf {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            epoch: 0,
        }))))
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer(None)
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    fn lock(buf: &Mutex<TraceBuf>) -> MutexGuard<'_, TraceBuf> {
        // Every update leaves the buffer valid, so a panic elsewhere
        // must not hide the spans recorded so far.
        buf.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Sets the epoch stamped on spans opened from now on.
    pub fn set_epoch(&self, epoch: u64) {
        if let Some(buf) = &self.0 {
            Self::lock(buf).epoch = epoch;
        }
    }

    /// Opens a span that closes when the guard drops. Spans nest by
    /// the order they are opened in: the driver is one thread.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(buf) = &self.0 else {
            return SpanGuard(None);
        };
        let mut b = Self::lock(buf);
        let now = b.origin.elapsed().as_nanos() as u64;
        let index = b.spans.len();
        let span = Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: b.open.last().copied(),
            epoch: b.epoch,
        };
        b.spans.push(span);
        b.open.push(index);
        SpanGuard(Some((buf.clone(), index)))
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        match &self.0 {
            Some(buf) => Self::lock(buf).spans.clone(),
            None => Vec::new(),
        }
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard(Option<(Arc<Mutex<TraceBuf>>, usize)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((buf, index)) = self.0.take() {
            let mut b = Tracer::lock(&buf);
            b.spans[index].end_ns = b.origin.elapsed().as_nanos() as u64;
            // Guards drop in reverse order of creation, so the span
            // being closed is the innermost open one.
            let innermost = b.open.pop();
            debug_assert_eq!(innermost, Some(index));
        }
    }
}

/// Self time per span: its duration minus the part its direct children
/// cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.dur_ns());
        }
    }
    own
}

/// Renders spans as Chrome `trace_event` JSON: balanced, properly
/// nested `B`/`E` pairs on one thread, epoch and parent in `args`.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut event = |out: &mut String, span: &Span, begin: bool| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let ts_ns = if begin { span.start_ns } else { span.end_ns };
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{}.{:03},\"pid\":1,\"tid\":1",
            span.name,
            if begin { "B" } else { "E" },
            ts_ns / 1000,
            ts_ns % 1000
        );
        if begin {
            let parent = span.parent.map_or("", |p| spans[p].name);
            let _ = write!(
                out,
                ",\"args\":{{\"epoch\":{},\"parent\":\"{}\"}}",
                span.epoch, parent
            );
        }
        out.push('}');
    };
    // Spans are stored in the order they were opened, so closing every
    // open span that is not the next span's parent restores nesting.
    let mut open: Vec<usize> = Vec::new();
    for (index, span) in spans.iter().enumerate() {
        while open.last().is_some_and(|&top| Some(top) != span.parent) {
            let top = open.pop().expect("checked non-empty");
            event(&mut out, &spans[top], false);
        }
        event(&mut out, span, true);
        open.push(index);
    }
    while let Some(top) = open.pop() {
        event(&mut out, &spans[top], false);
    }
    out.push_str("\n]}\n");
    out
}

/// Delegating manager: a span around `process_interval`.
pub struct TracedManager {
    inner: Box<dyn GroupKeyManager>,
    tracer: Tracer,
}

impl TracedManager {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn GroupKeyManager>, tracer: Tracer) -> Self {
        TracedManager { inner, tracer }
    }
}

impl GroupKeyManager for TracedManager {
    fn process_interval(
        &mut self,
        joins: &[Join],
        leaves: &[MemberId],
        rng: &mut dyn RngCore,
    ) -> Result<IntervalOutcome, KeyTreeError> {
        let _span = self.tracer.span("core.engine.process_interval");
        self.inner.process_interval(joins, leaves, rng)
    }

    fn set_parallelism(&mut self, workers: usize) {
        self.inner.set_parallelism(workers);
    }

    fn dek_node(&self) -> NodeId {
        self.inner.dek_node()
    }

    fn dek(&self) -> &Key {
        self.inner.dek()
    }

    fn member_count(&self) -> usize {
        self.inner.member_count()
    }

    fn contains(&self, member: MemberId) -> bool {
        self.inner.contains(member)
    }

    fn members_under(&self, node: NodeId) -> Vec<MemberId> {
        self.inner.members_under(node)
    }

    fn scheme_name(&self) -> &'static str {
        self.inner.scheme_name()
    }

    fn save_state(&self, buf: &mut Vec<u8>) -> Result<(), PersistError> {
        self.inner.save_state(buf)
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        self.inner.restore_state(bytes)
    }
}

/// Delegating storage backend: a span around every call.
pub struct TracedStorage<S> {
    inner: S,
    tracer: Tracer,
}

impl<S: Storage> TracedStorage<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, tracer: Tracer) -> Self {
        TracedStorage { inner, tracer }
    }
}

impl<S: Storage> Storage for TracedStorage<S> {
    fn append_wal(&mut self, record: &[u8]) -> Result<(), StorageError> {
        let _span = self.tracer.span("storage.append_wal");
        self.inner.append_wal(record)
    }

    fn sync_wal(&mut self) -> Result<(), StorageError> {
        let _span = self.tracer.span("storage.sync_wal");
        self.inner.sync_wal()
    }

    fn read_wal(&mut self) -> Result<WalReplay, StorageError> {
        let _span = self.tracer.span("storage.read_wal");
        self.inner.read_wal()
    }

    fn reset_wal(&mut self) -> Result<(), StorageError> {
        let _span = self.tracer.span("storage.reset_wal");
        self.inner.reset_wal()
    }

    fn write_snapshot(&mut self, blob: &[u8]) -> Result<(), StorageError> {
        let _span = self.tracer.span("storage.write_snapshot");
        self.inner.write_snapshot(blob)
    }

    fn load_snapshot(&mut self) -> Result<Option<Vec<u8>>, StorageError> {
        let _span = self.tracer.span("storage.load_snapshot");
        self.inner.load_snapshot()
    }
}

/// Reads the program's own probes: counter totals and every duration
/// sample (spans and timers alike), exact, by probe name.
///
/// The crypto counters fire tens of thousands of times per interval,
/// so counting must be cheap: a probe passes the same `&'static str`
/// every time, which a short scan finds by address under a read lock.
/// Two call sites may spell one name; `take_counter` adds them up.
#[derive(Debug, Default)]
pub struct Probes {
    counters: RwLock<Vec<(&'static str, AtomicU64)>>,
    times: Mutex<BTreeMap<&'static str, Vec<u64>>>,
}

impl Probes {
    /// Returns counter `name` and resets it to zero.
    pub fn take_counter(&self, name: &str) -> u64 {
        let counters = self.counters.read().unwrap_or_else(|e| e.into_inner());
        counters
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, c)| c.swap(0, Ordering::Relaxed))
            .sum()
    }

    /// Returns the duration samples of `name` and clears them.
    pub fn take_times_ns(&self, name: &str) -> Vec<u64> {
        let mut times = self.times.lock().unwrap_or_else(|e| e.into_inner());
        times.get_mut(name).map_or_else(Vec::new, std::mem::take)
    }

    /// Forgets everything recorded so far.
    pub fn clear(&self) {
        self.counters
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.times.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

impl Recorder for Probes {
    fn span(&self, name: &'static str, _start_ns: u64, dur_ns: u64, _tid: u64) {
        self.time(name, dur_ns);
    }

    fn count(&self, name: &'static str, delta: u64) {
        {
            let counters = self.counters.read().unwrap_or_else(|e| e.into_inner());
            if let Some((_, counter)) = counters.iter().find(|(n, _)| std::ptr::eq(*n, name)) {
                // A statistic: publishes no other data.
                counter.fetch_add(delta, Ordering::Relaxed);
                return;
            }
        }
        self.counters
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .push((name, AtomicU64::new(delta)));
    }

    fn time(&self, name: &'static str, dur_ns: u64) {
        let mut times = self.times.lock().unwrap_or_else(|e| e.into_inner());
        times.entry(name).or_default().push(dur_ns);
    }

    fn sample(&self, _name: &'static str, _ts_ns: u64, _value: f64) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let tracer = Tracer::on();
        tracer.set_epoch(7);
        {
            let _root = tracer.span("interval");
            {
                let _a = tracer.span("a");
                let _b = tracer.span("a.b");
            }
            let _c = tracer.span("c");
        }
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["interval", "a", "a.b", "c"]);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert!(spans.iter().all(|s| s.epoch == 7));

        let own = self_times_ns(&spans);
        assert_eq!(
            own[0],
            spans[0].dur_ns() - spans[1].dur_ns() - spans[3].dur_ns()
        );
        assert_eq!(own[1], spans[1].dur_ns() - spans[2].dur_ns());

        let summary =
            rekey_obs::chrome::validate_trace(&chrome_json(&spans)).expect("trace validates");
        assert_eq!(summary.begin_events, 4);
        assert_eq!(summary.end_events, 4);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let tracer = Tracer::off();
        let _span = tracer.span("x");
        assert!(tracer.spans().is_empty());
        assert!(!tracer.is_on());
    }

    #[test]
    fn probes_take_resets() {
        let probes = Probes::default();
        probes.count("c", 2);
        probes.count("c", 3);
        probes.time("t", 10);
        probes.span("t", 0, 20, 0);
        assert_eq!(probes.take_counter("c"), 5);
        assert_eq!(probes.take_counter("c"), 0);
        assert_eq!(probes.take_times_ns("t"), vec![10, 20]);
        assert!(probes.take_times_ns("t").is_empty());
    }
}
