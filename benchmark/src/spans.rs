//! In-memory spans recorded by the benchmark's own wrappers around each
//! layer boundary, and the tree arithmetic that turns them into per-layer
//! times.
//!
//! Span tree of one request (id = wire correlation id):
//!
//! ```text
//! client.request            generator / transport wrapper, send → reply
//! └─ core.handle            SpanService, on a server worker
//!    ├─ codec.decode        RequestEnvelope::from_bytes
//!    ├─ core.dispatch       ProviderService::dispatch
//!    │  └─ store.*          BenchKv around WalShardedKv
//!    └─ codec.encode        ResponseEnvelope::to_bytes
//! ```
//!
//! `net.transit` is not a span: it is `client.request − core.handle`,
//! everything between the generator's send and the worker's first
//! instruction plus the way back (frame I/O, event thread, queue wait).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which boundary a span was recorded at.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    ClientRequest,
    CoreHandle,
    CodecDecode,
    CoreDispatch,
    CodecEncode,
    StoreRead,
    StoreWrite,
}

impl SpanKind {
    /// Dotted `layer.name` as written out.
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::ClientRequest => "client.request",
            SpanKind::CoreHandle => "core.handle",
            SpanKind::CodecDecode => "codec.decode",
            SpanKind::CoreDispatch => "core.dispatch",
            SpanKind::CodecEncode => "codec.encode",
            SpanKind::StoreRead => "store.read",
            SpanKind::StoreWrite => "store.write",
        }
    }

    /// The span that caused this one.
    pub fn parent(self) -> Option<SpanKind> {
        match self {
            SpanKind::ClientRequest => None,
            SpanKind::CoreHandle => Some(SpanKind::ClientRequest),
            SpanKind::CodecDecode | SpanKind::CoreDispatch | SpanKind::CodecEncode => {
                Some(SpanKind::CoreHandle)
            }
            SpanKind::StoreRead | SpanKind::StoreWrite => Some(SpanKind::CoreDispatch),
        }
    }
}

/// One recorded interval. Times are [`crate::sysinfo::now_ns`] readings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Wire correlation id shared by every span of one request.
    pub id: u64,
    pub kind: SpanKind,
    /// Wire op-code byte of the request.
    pub op: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

const SHARDS: usize = 16;

/// Span sink shared by the generator, the service wrapper and the store
/// wrapper. Each thread appends to its own shard, so recording never
/// makes two serving threads wait for each other.
pub struct Recorder {
    enabled: AtomicBool,
    shards: [Mutex<Vec<Span>>; SHARDS],
}

fn thread_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

impl Recorder {
    /// A recorder that starts switched off.
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            shards: std::array::from_fn(|_| Mutex::new(Vec::new())),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Appends one span (dropped while the recorder is off).
    pub fn record(&self, span: Span) {
        if self.is_enabled() {
            self.shards[thread_shard()]
                .lock()
                .expect("span shard lock poisoned by a panicking recorder thread")
                .push(span);
        }
    }

    /// Takes every span recorded so far, ordered by request id and then
    /// by nesting depth.
    pub fn drain(&self) -> Vec<Span> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.append(
                &mut shard
                    .lock()
                    .expect("span shard lock poisoned by a panicking recorder thread"),
            );
        }
        all.sort_unstable_by_key(|s| (s.id, s.kind, s.start_ns));
        all
    }
}

thread_local! {
    /// Request a server worker is dispatching right now, so store spans
    /// recorded further down know their parent.
    static CURRENT: Cell<Option<(u64, u8)>> = const { Cell::new(None) };
}

/// Runs `f` with `(id, op)` as this thread's current request.
pub fn with_request<T>(id: u64, op: u8, f: impl FnOnce() -> T) -> T {
    let previous = CURRENT.with(|c| c.replace(Some((id, op))));
    let out = f();
    CURRENT.with(|c| c.set(previous));
    out
}

/// The request this thread is dispatching, if any.
pub fn current_request() -> Option<(u64, u8)> {
    CURRENT.with(Cell::get)
}

/// The spans of one request folded into per-layer durations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestTree {
    pub id: u64,
    pub op: u8,
    /// Start of `client.request`.
    pub start_ns: u64,
    pub request_ns: u64,
    pub handle_ns: u64,
    pub decode_ns: u64,
    pub dispatch_ns: u64,
    pub encode_ns: u64,
    /// Σ `store.*` children of `core.dispatch`.
    pub store_ns: u64,
}

impl RequestTree {
    /// `client.request − core.handle`.
    pub fn transit_ns(&self) -> u64 {
        self.request_ns - self.handle_ns
    }

    /// `core.dispatch` minus its store children.
    pub fn dispatch_self_ns(&self) -> u64 {
        self.dispatch_ns - self.store_ns
    }
}

/// Part of `child` that lies inside `parent`.
fn covered_ns(parent: (u64, u64), child: &Span) -> u64 {
    child
        .end_ns
        .min(parent.1)
        .saturating_sub(child.start_ns.max(parent.0))
}

/// Folds spans (as [`Recorder::drain`] orders them) into one tree per
/// request that has a `client.request` root. A child is counted only for
/// the part of its interval its parent covers, so a child never exceeds
/// its parent and every self time is non-negative.
pub fn assemble(spans: &[Span]) -> Vec<RequestTree> {
    let mut trees = Vec::new();
    for group in spans.chunk_by(|a, b| a.id == b.id) {
        let find = |kind| group.iter().find(|s| s.kind == kind);
        let Some(root) = find(SpanKind::ClientRequest) else {
            continue;
        };
        let root_iv = (root.start_ns, root.end_ns);
        let mut tree = RequestTree {
            id: root.id,
            op: root.op,
            start_ns: root.start_ns,
            request_ns: root.duration_ns(),
            ..RequestTree::default()
        };
        if let Some(handle) = find(SpanKind::CoreHandle) {
            // Clip each level to the level above it.
            let start = handle.start_ns.clamp(root_iv.0, root_iv.1);
            let handle_iv = (start, handle.end_ns.clamp(start, root_iv.1));
            tree.handle_ns = handle_iv.1 - handle_iv.0;
            let mut dispatch_iv = (handle_iv.0, handle_iv.0);
            for child in group {
                match child.kind {
                    SpanKind::CodecDecode => tree.decode_ns += covered_ns(handle_iv, child),
                    SpanKind::CodecEncode => tree.encode_ns += covered_ns(handle_iv, child),
                    SpanKind::CoreDispatch => {
                        tree.dispatch_ns = covered_ns(handle_iv, child);
                        let start = child.start_ns.clamp(handle_iv.0, handle_iv.1);
                        dispatch_iv = (start, start + tree.dispatch_ns);
                    }
                    _ => {}
                }
            }
            for child in group {
                if matches!(child.kind, SpanKind::StoreRead | SpanKind::StoreWrite) {
                    tree.store_ns += covered_ns(dispatch_iv, child);
                }
            }
        }
        trees.push(tree);
    }
    trees
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            kind,
            op: 1,
            start_ns,
            end_ns,
        }
    }

    fn recorded(spans: &[Span]) -> Vec<Span> {
        let rec = Recorder::new();
        rec.set_enabled(true);
        for s in spans {
            rec.record(*s);
        }
        rec.drain()
    }

    #[test]
    fn self_times_subtract_children() {
        let spans = recorded(&[
            span(7, SpanKind::StoreWrite, 140, 170),
            span(7, SpanKind::CodecEncode, 180, 190),
            span(7, SpanKind::ClientRequest, 0, 300),
            span(7, SpanKind::CoreHandle, 100, 200),
            span(7, SpanKind::CodecDecode, 100, 110),
            span(7, SpanKind::CoreDispatch, 110, 180),
            span(7, SpanKind::StoreRead, 115, 125),
        ]);
        let trees = assemble(&spans);
        assert_eq!(trees.len(), 1);
        let t = trees[0];
        assert_eq!((t.request_ns, t.handle_ns, t.dispatch_ns), (300, 100, 70));
        assert_eq!((t.decode_ns, t.encode_ns, t.store_ns), (10, 10, 40));
        assert_eq!(t.transit_ns(), 200);
        assert_eq!(t.dispatch_self_ns(), 30);
    }

    #[test]
    fn children_never_exceed_their_parent() {
        // A handle span that (through clock skew) pokes out of its root,
        // and a store span that pokes out of dispatch, are clipped.
        let spans = recorded(&[
            span(1, SpanKind::ClientRequest, 100, 200),
            span(1, SpanKind::CoreHandle, 90, 210),
            span(1, SpanKind::CoreDispatch, 95, 205),
            span(1, SpanKind::StoreWrite, 50, 400),
        ]);
        let t = assemble(&spans)[0];
        assert_eq!(t.request_ns, 100);
        assert_eq!(t.handle_ns, 100);
        assert_eq!(t.dispatch_ns, 100);
        assert_eq!(t.store_ns, 100);
        assert_eq!(t.transit_ns(), 0);
        assert_eq!(t.dispatch_self_ns(), 0);
    }

    #[test]
    fn requests_are_kept_apart_and_rootless_ones_dropped() {
        let spans = recorded(&[
            span(2, SpanKind::ClientRequest, 0, 50),
            span(2, SpanKind::CoreHandle, 10, 30),
            span(3, SpanKind::CoreHandle, 10, 30),
            span(4, SpanKind::ClientRequest, 5, 25),
        ]);
        let trees = assemble(&spans);
        assert_eq!(trees.iter().map(|t| t.id).collect::<Vec<_>>(), vec![2, 4]);
        assert_eq!(trees[0].transit_ns(), 30);
        // No server-side span: the whole request counts as transit.
        assert_eq!(trees[1].transit_ns(), 20);
    }

    #[test]
    fn recorder_drops_spans_while_off() {
        let rec = Recorder::new();
        rec.record(span(1, SpanKind::ClientRequest, 0, 1));
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn current_request_is_scoped() {
        assert_eq!(current_request(), None);
        let inner = with_request(9, 3, current_request);
        assert_eq!(inner, Some((9, 3)));
        assert_eq!(current_request(), None);
    }

    #[test]
    fn every_span_names_its_cause() {
        for kind in [
            SpanKind::CoreHandle,
            SpanKind::CodecDecode,
            SpanKind::CoreDispatch,
            SpanKind::CodecEncode,
            SpanKind::StoreRead,
            SpanKind::StoreWrite,
        ] {
            assert!(kind.parent().is_some(), "{} has no parent", kind.name());
        }
        assert_eq!(SpanKind::ClientRequest.parent(), None);
    }
}
