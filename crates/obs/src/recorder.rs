//! The [`Recorder`] sink trait, the process-global recorder slot, and
//! the RAII [`SpanGuard`].

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// A sink for observability events.
///
/// All methods take `&self`: implementations must be internally
/// synchronized, because spans and counters arrive concurrently from
/// the rekey engine's worker threads.
pub trait Recorder: Send + Sync {
    /// Records a completed wall-clock span on thread `tid`.
    fn span(&self, name: &'static str, start_ns: u64, dur_ns: u64, tid: u64);

    /// Adds `delta` to the monotonic counter `name`.
    fn count(&self, name: &'static str, delta: u64);

    /// Records one duration sample (nanoseconds) into the histogram
    /// `name` without emitting a trace span.
    fn time(&self, name: &'static str, dur_ns: u64);

    /// Records a timestamped gauge sample (a per-interval series point;
    /// exported as a Chrome counter track).
    fn sample(&self, name: &'static str, ts_ns: u64, value: f64);

    /// Total nanoseconds accumulated under span/timer `name`, if this
    /// recorder aggregates them (the default reports nothing).
    fn total_time_ns(&self, name: &str) -> u64 {
        let _ = name;
        0
    }
}

/// Fast-path switch: `true` iff a recorder is installed. Probes check
/// this before touching the `RwLock`, so disabled instrumentation costs
/// one relaxed load and a predictable branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process-global recorder. `RwLock` (not `OnceLock`) so tests and
/// back-to-back simulation runs can swap recorders.
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

/// Whether a global recorder is currently installed.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs `recorder` as the process-global sink, replacing any
/// previous one.
pub fn install(recorder: Arc<dyn Recorder>) {
    *GLOBAL.write().expect("recorder lock poisoned") = Some(recorder);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Removes and returns the process-global recorder, if any.
pub fn uninstall() -> Option<Arc<dyn Recorder>> {
    let mut slot = GLOBAL.write().expect("recorder lock poisoned");
    ENABLED.store(false, Ordering::Relaxed);
    slot.take()
}

/// Runs `f` against the installed recorder, if any.
#[inline]
fn with<F: FnOnce(&dyn Recorder)>(f: F) {
    if !enabled() {
        return;
    }
    if let Some(recorder) = GLOBAL.read().expect("recorder lock poisoned").as_deref() {
        f(recorder);
    }
}

/// Monotonic nanoseconds since the first observability event of the
/// process — the timestamp base of every exported trace.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small dense id for the current thread (1, 2, 3, … in first-use
/// order). `std::thread::ThreadId` has no stable integer form, and
/// trace viewers want small integers per track.
pub fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

/// Adds `delta` to counter `name` on the global recorder (no-op when
/// none is installed).
#[inline]
pub fn count(name: &'static str, delta: u64) {
    with(|r| r.count(name, delta));
}

/// Records a duration sample into histogram `name` on the global
/// recorder.
#[inline]
pub fn time_ns(name: &'static str, dur_ns: u64) {
    with(|r| r.time(name, dur_ns));
}

/// Records a gauge sample (timestamped now) on the global recorder.
#[inline]
pub fn sample(name: &'static str, value: f64) {
    with(|r| r.sample(name, now_ns(), value));
}

/// Total nanoseconds accumulated under `name` by the global recorder
/// (0 when none is installed or it does not aggregate).
pub fn total_time_ns(name: &str) -> u64 {
    let mut total = 0;
    with(|r| total = r.total_time_ns(name));
    total
}

/// A `'static` copy of `name` for a probe name built at run time (per
/// tree, per shard). Each distinct name is leaked once per process;
/// every later call with an equal name returns that same copy.
pub fn intern(name: String) -> &'static str {
    static NAMES: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    let mut names = NAMES.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&interned) = names.get(name.as_str()) {
        return interned;
    }
    let interned: &'static str = Box::leak(name.into_boxed_str());
    names.insert(interned);
    interned
}

/// RAII scoped timer created by [`crate::span!`]. Records a span (and
/// feeds the recorder's duration histogram) when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    /// `None` when no recorder was installed at construction — the
    /// guard is then fully inert.
    start: Option<Instant>,
    start_ns: u64,
}

impl SpanGuard {
    /// Starts a span named `name` if a global recorder is installed.
    #[inline]
    pub fn new(name: &'static str) -> Self {
        if enabled() {
            SpanGuard {
                name,
                start_ns: now_ns(),
                start: Some(Instant::now()),
            }
        } else {
            SpanGuard {
                name,
                start_ns: 0,
                start: None,
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur_ns = start.elapsed().as_nanos() as u64;
            with(|r| r.span(self.name, self.start_ns, dur_ns, thread_id()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    /// Global-recorder tests share one process slot; serialize them.
    pub(crate) fn global_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn intern_leaks_each_distinct_name_once() {
        let first = intern(format!("intern.test.{}", 1));
        let again = intern("intern.test.1".to_string());
        let other = intern("intern.test.2".to_string());
        assert_eq!(first, "intern.test.1");
        assert!(std::ptr::eq(first, again));
        assert!(!std::ptr::eq(first, other));
    }

    #[test]
    fn disabled_probes_are_inert() {
        let _g = global_lock();
        uninstall();
        assert!(!enabled());
        count("x", 1);
        time_ns("x", 1);
        sample("x", 1.0);
        let _s = crate::span!("x");
        assert_eq!(total_time_ns("x"), 0);
    }

    #[test]
    fn install_uninstall_roundtrip() {
        let _g = global_lock();
        let c = Arc::new(Collector::new());
        install(c.clone());
        assert!(enabled());
        count("roundtrip.counter", 2);
        count("roundtrip.counter", 3);
        {
            let _s = crate::span!("roundtrip.span");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        uninstall();
        assert!(!enabled());
        // Events after uninstall go nowhere.
        count("roundtrip.counter", 100);

        let snap = c.snapshot();
        assert_eq!(snap.counter("roundtrip.counter"), 5);
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].name, "roundtrip.span");
        assert!(snap.spans[0].dur_ns > 0);
        assert!(c.total_time_ns("roundtrip.span") >= snap.spans[0].dur_ns);
    }

    #[test]
    fn thread_ids_are_small_and_distinct() {
        let mine = thread_id();
        assert!(mine >= 1);
        assert_eq!(mine, thread_id(), "stable within a thread");
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(mine, other);
    }

    #[test]
    fn now_ns_is_monotonic() {
        let a = now_ns();
        let b = now_ns();
        assert!(b >= a);
    }
}
