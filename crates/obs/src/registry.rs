//! Process-wide metrics registry: named atomic counters, gauges and
//! histograms, registered lazily and snapshotted into a stable sorted
//! exposition (text and JSON).
//!
//! Hot paths never touch the registry lock: [`Registry::counter`] /
//! [`Registry::gauge`] / [`Registry::histogram`] hand out `Arc`s once
//! (typically at construction) and all recording is relaxed atomics on
//! the shared instance. Existing per-subsystem counter structs plug in
//! as [`MetricSource`]s registered by [`Weak`] reference — a snapshot
//! upgrades the live sources, prunes the dead ones, and merges
//! same-name entries (counters and gauges sum, histograms merge), so
//! one [`Registry::snapshot`] shows the whole system.
//!
//! **Privacy rule:** metric names are `&'static str` and values are
//! durations and counts only. No pseudonym, card id, license id or
//! coin serial may enter the registry: a name cannot be formatted from
//! an id, and the linkable ids have no `Display` or hex rendering and a
//! redacting `Debug` (crate docs). A count derived from an id still
//! records, since a value slot is a plain number.

use crate::hist::{AtomicHistogram, Histogram, Summary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, Weak};

/// Recovers a poisoned mutex: registry state is monotonic counters, so
/// observing a value written before a panic elsewhere is harmless.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Monotonic counter (relaxed atomic increments).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Signed gauge (set / add / subtract / high-water-mark).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Zeroed gauge.
    pub fn new() -> Self {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A subsystem that contributes metrics to a snapshot. Implementations
/// must only read their own state — calling back into the [`Registry`]
/// from `collect` is not supported.
pub trait MetricSource {
    /// Emit this source's metrics into the snapshot under construction.
    fn collect(&self, out: &mut SnapshotBuilder);
}

enum Accum {
    Counter(u64),
    Gauge(i64),
    Hist(Histogram),
}

/// Accumulates metrics for one snapshot, merging same-name entries:
/// counters and gauges sum, histograms merge. Name/kind collisions
/// across kinds keep the first kind seen and ignore the rest (a wiring
/// bug, but never worth panicking a serving path over). Names are
/// `&'static str`, as the [`Registry`]'s are: nothing computed at run
/// time, an id least of all, becomes a metric name.
#[derive(Default)]
pub struct SnapshotBuilder {
    entries: BTreeMap<&'static str, Accum>,
}

impl SnapshotBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to the counter `name`.
    pub fn counter(&mut self, name: &'static str, v: u64) {
        match self.entries.entry(name).or_insert(Accum::Counter(0)) {
            Accum::Counter(c) => *c += v,
            Accum::Gauge(_) | Accum::Hist(_) => {}
        }
    }

    /// Adds `v` to the gauge `name`.
    pub fn gauge(&mut self, name: &'static str, v: i64) {
        match self.entries.entry(name).or_insert(Accum::Gauge(0)) {
            Accum::Gauge(g) => *g += v,
            Accum::Counter(_) | Accum::Hist(_) => {}
        }
    }

    /// Merges `h` into the histogram `name`.
    pub fn histogram(&mut self, name: &'static str, h: &Histogram) {
        match self
            .entries
            .entry(name)
            .or_insert_with(|| Accum::Hist(Histogram::new()))
        {
            Accum::Hist(acc) => acc.merge(h),
            Accum::Counter(_) | Accum::Gauge(_) => {}
        }
    }

    /// Finalises into a sorted [`Snapshot`].
    pub fn finish(self) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .into_iter()
                .map(|(name, acc)| {
                    let value = match acc {
                        Accum::Counter(c) => MetricValue::Counter(c),
                        Accum::Gauge(g) => MetricValue::Gauge(g),
                        Accum::Hist(h) => MetricValue::Histogram(h.summary()),
                    };
                    (name.to_string(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value in a [`Snapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time signed level.
    Gauge(i64),
    /// Latency distribution summary.
    Histogram(Summary),
}

/// Point-in-time view of every metric, sorted by name. The exposition
/// formats ([`to_text`](Snapshot::to_text), [`to_json`](Snapshot::to_json))
/// are stable: same metrics in, byte-identical text out.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs, sorted ascending by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Looks up one metric by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Counter value by name (`None` if absent or a different kind).
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Gauge value by name (`None` if absent or a different kind).
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.get(name) {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Histogram summary by name (`None` if absent or a different kind).
    pub fn histogram(&self, name: &str) -> Option<&Summary> {
        match self.get(name) {
            Some(MetricValue::Histogram(s)) => Some(s),
            _ => None,
        }
    }

    /// Stable line-per-metric text exposition:
    ///
    /// ```text
    /// net_accepted counter 4
    /// net_dispatch_ns histogram count=4 mean_ns=812 p50_ns=768 p90_ns=1536 p99_ns=1536 min_ns=700 max_ns=1600
    /// store_shards gauge 8
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.entries {
            match value {
                MetricValue::Counter(c) => {
                    out.push_str(&format!("{name} counter {c}\n"));
                }
                MetricValue::Gauge(g) => {
                    out.push_str(&format!("{name} gauge {g}\n"));
                }
                MetricValue::Histogram(s) => {
                    out.push_str(&format!(
                        "{name} histogram count={} mean_ns={} p50_ns={} p90_ns={} p99_ns={} min_ns={} max_ns={}\n",
                        s.count,
                        s.mean_ns.round() as u64,
                        s.p50_ns,
                        s.p90_ns,
                        s.p99_ns,
                        s.min_ns,
                        s.max_ns,
                    ));
                }
            }
        }
        out
    }

    /// Stable JSON exposition: one object, keys sorted; counters and
    /// gauges are numbers, histograms are objects:
    ///
    /// ```text
    /// {"net_accepted":4,"net_dispatch_ns":{"count":4,"mean_ns":812,...},"store_shards":8}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(name));
            out.push(':');
            match value {
                MetricValue::Counter(c) => out.push_str(&c.to_string()),
                MetricValue::Gauge(g) => out.push_str(&g.to_string()),
                MetricValue::Histogram(s) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
                        s.count,
                        s.mean_ns.round() as u64,
                        s.p50_ns,
                        s.p90_ns,
                        s.p99_ns,
                        s.min_ns,
                        s.max_ns,
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

/// JSON string literal with the mandatory escapes.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    gauges: BTreeMap<&'static str, Arc<Gauge>>,
    histograms: BTreeMap<&'static str, Arc<AtomicHistogram>>,
    sources: Vec<Weak<dyn MetricSource + Send + Sync>>,
}

/// The registry: named metric handles plus weakly-registered
/// [`MetricSource`]s. The `enabled` flag gates *timing* (callers skip
/// `Instant::now` when disabled); counter bumps are always live (they
/// are one relaxed add).
pub struct Registry {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

/// Debug elides the metric tables (they can be large and sit behind the
/// registry lock); configs holding an `Arc<Registry>` can still derive
/// `Debug`.
impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish_non_exhaustive()
    }
}

impl Registry {
    /// Enabled registry.
    pub fn new() -> Self {
        Registry {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Registry with timing disabled (see [`Registry::is_enabled`]).
    pub fn disabled() -> Self {
        let r = Self::new();
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// Whether timing instrumentation should run. One relaxed load —
    /// callers check this before taking an `Instant::now` pair.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns timing instrumentation on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Named counter handle, created on first use. Same name, same
    /// counter: all callers share one atomic.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            lock(&self.inner)
                .counters
                .entry(name)
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Named gauge handle, created on first use.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        Arc::clone(
            lock(&self.inner)
                .gauges
                .entry(name)
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// Named histogram handle, created on first use.
    pub fn histogram(&self, name: &'static str) -> Arc<AtomicHistogram> {
        Arc::clone(
            lock(&self.inner)
                .histograms
                .entry(name)
                .or_insert_with(|| Arc::new(AtomicHistogram::new())),
        )
    }

    /// Registers a metric source by weak reference: snapshots upgrade
    /// it while it lives and prune it after it drops, so sources never
    /// outlive their subsystem and the registry never keeps one alive.
    /// Re-registering the same object is a no-op — two services sharing
    /// one provider must not double-count its metrics.
    pub fn register_source(&self, src: Weak<dyn MetricSource + Send + Sync>) {
        let mut inner = lock(&self.inner);
        if inner.sources.iter().any(|w| w.ptr_eq(&src)) {
            return;
        }
        inner.sources.push(src);
    }

    /// Point-in-time snapshot of every named metric and every live
    /// source, merged by name and sorted. Sources are collected
    /// outside the registry lock.
    pub fn snapshot(&self) -> Snapshot {
        let mut b = SnapshotBuilder::new();
        let sources: Vec<Arc<dyn MetricSource + Send + Sync>> = {
            let mut inner = lock(&self.inner);
            for (name, c) in &inner.counters {
                b.counter(name, c.get());
            }
            for (name, g) in &inner.gauges {
                b.gauge(name, g.get());
            }
            for (name, h) in &inner.histograms {
                b.histogram(name, &h.snapshot());
            }
            inner.sources.retain(|w| w.strong_count() > 0);
            inner.sources.iter().filter_map(Weak::upgrade).collect()
        };
        for src in sources {
            src.collect(&mut b);
        }
        b.finish()
    }
}

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide default registry (enabled). Production binaries
/// use this; tests that assert exact totals construct a private
/// [`Registry`] instead, so parallel tests never share counters.
pub fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_handle() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("zeta").add(1);
        r.counter("alpha").add(2);
        r.gauge("mid").set(-3);
        let s = r.snapshot();
        let names: Vec<&str> = s.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(
            s.to_text(),
            "alpha counter 2\nmid gauge -3\nzeta counter 1\n"
        );
        assert_eq!(s.to_json(), "{\"alpha\":2,\"mid\":-3,\"zeta\":1}");
        assert_eq!(r.snapshot(), s, "snapshot is deterministic");
    }

    #[test]
    fn sources_merge_and_prune() {
        struct Src;
        impl MetricSource for Src {
            fn collect(&self, out: &mut SnapshotBuilder) {
                out.counter("shared", 5);
            }
        }
        let r = Registry::new();
        r.counter("shared").add(2);
        let src: Arc<Src> = Arc::new(Src);
        let dyn_src: Arc<dyn MetricSource + Send + Sync> = src.clone();
        r.register_source(Arc::downgrade(&dyn_src));
        r.register_source(Arc::downgrade(&dyn_src));
        assert_eq!(
            r.snapshot().counter("shared"),
            Some(7),
            "entries merge; re-registering the same source is a no-op"
        );
        drop(src);
        drop(dyn_src);
        assert_eq!(
            r.snapshot().counter("shared"),
            Some(2),
            "dead source pruned"
        );
    }

    #[test]
    fn histogram_exposition() {
        let r = Registry::new();
        let h = r.histogram("lat_ns");
        h.record(1000);
        let s = r.snapshot();
        let summary = s.histogram("lat_ns").copied().unwrap();
        assert_eq!(summary.count, 1);
        assert!(s.to_text().starts_with("lat_ns histogram count=1 "));
        assert!(s.to_json().starts_with("{\"lat_ns\":{\"count\":1,"));
    }

    #[test]
    fn json_names_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn disabled_registry_still_counts() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        r.counter("c").inc();
        assert_eq!(r.snapshot().counter("c"), Some(1));
        r.set_enabled(true);
        assert!(r.is_enabled());
    }
}
