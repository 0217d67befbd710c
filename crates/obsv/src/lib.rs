//! Unified observability layer for the HiNFS reproduction suite.
//!
//! Three pieces, all dependency-free and cheap enough to thread through
//! every crate in the workspace:
//!
//! - [`Histo`]: lock-free log-bucketed latency histograms, recorded per
//!   [`OpKind`] through [`FsObs`];
//! - [`MetricsRegistry`] / [`MetricSource`]: one collection trait that
//!   unifies the per-subsystem counter structs (HiNFS, device, journal)
//!   behind Prometheus-style text exposition and JSON snapshots;
//! - [`TraceRing`]: a fixed-capacity lock-free ring of structured
//!   [`TraceEvent`]s (writeback reclaim, watermark crossings, foreground
//!   stalls, Buffer Benefit Model flips, journal commits).
//!
//! Everything is **off by default**: with timing and tracing disabled the
//! instrumentation in the file systems costs one relaxed atomic load per
//! hook.

mod contention;
mod coverage;
mod flight;
mod histo;
mod lineage;
mod registry;
mod snapshot;
mod span;
mod trace;

pub use contention::{
    ContentionSnapshot, ContentionTable, Level, Site, SiteSnapshot, TrackedCondvar, TrackedMutex,
    TrackedMutexGuard, TrackedReadGuard, TrackedRwLock, TrackedWriteGuard, WaitTimeoutResult,
    ALL_SITES, NSITES,
};
pub use coverage::{mag_bucket, CoverageDomain, CoverageMap, COVERAGE_DOMAINS};
pub use flight::{
    note_batch, note_fence, note_persisted, FlightRecord, FlightRecorder, FlightSnapshot,
    TailAnatomy, FLIGHT_MERGED_TOPK, FLIGHT_TOPK,
};
pub use histo::{
    bucket_lower, bucket_of, bucket_upper, Histo, HistoSnapshot, N_BUCKETS, SUB_BUCKETS,
};
pub use lineage::{
    current_row as lineage_current_row, note_buffered, note_journaled, note_logical, DrainKind,
    Layer, LineageScope, LineageSnap, LineageTable, Stamp, ALL_LAYERS, LINEAGE_ROWS, NLAYERS,
};
pub use registry::{Counter, MetricSource, MetricsRegistry, RegistrySnapshot, Visitor};
pub use snapshot::{
    dirty_line_bucket, invariant_label, lrw_age_bucket, AuditReport, AuditViolation, BufferSnap,
    CacheSnap, DeviceSnap, FsSnapshot, Introspect, JournalSnap, AUDIT_INVARIANTS,
    DIRTY_LINE_BUCKETS, LRW_AGE_BOUNDS_NS, LRW_AGE_BUCKETS, SNAPSHOT_SCHEMA_VERSION,
};
pub use span::{row_label, Phase, SpanSnapshot, SpanTable, ALL_PHASES, BG_ROW, NPHASES, SPAN_ROWS};
pub use trace::{TraceEvent, TraceRecord, TraceRing};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Shards used by the per-thread collection structures (the slow-op log
/// here, the trace ring's segments). A power of two so `ordinal %
/// SHARDS` is a mask.
pub const COLLECTION_SHARDS: usize = 8;

static THREAD_COUNTER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD_ORDINAL: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A small dense id for the calling thread: 0 for the first thread that
/// asks, 1 for the next, and so on for the life of the process. Cached
/// in a thread-local, so the steady-state cost is one TLS read. Shard
/// selectors take this modulo their shard count — single-threaded runs
/// therefore always land in shard 0, which keeps them bit-identical to
/// the unsharded layout.
#[inline]
pub fn thread_ordinal() -> usize {
    THREAD_ORDINAL.with(|o| {
        let v = o.get();
        if v != usize::MAX {
            return v;
        }
        let v = THREAD_COUNTER.fetch_add(1, Ordering::Relaxed);
        o.set(v);
        v
    })
}

/// Syscall categories tracked per file system (the Fig 12 breakdown uses
/// `Read`, `Write`, `Unlink` and `Fsync`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpKind {
    Open = 0,
    Close = 1,
    Read = 2,
    Write = 3,
    Fsync = 4,
    Unlink = 5,
    Mkdir = 6,
    Readdir = 7,
    Stat = 8,
    Rename = 9,
    Truncate = 10,
}

/// Number of [`OpKind`] variants.
pub const NOPS: usize = 11;

/// All op kinds in discriminant order.
pub const ALL_OPS: [OpKind; NOPS] = [
    OpKind::Open,
    OpKind::Close,
    OpKind::Read,
    OpKind::Write,
    OpKind::Fsync,
    OpKind::Unlink,
    OpKind::Mkdir,
    OpKind::Readdir,
    OpKind::Stat,
    OpKind::Rename,
    OpKind::Truncate,
];

impl OpKind {
    /// Stable label for reports and metric names.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Fsync => "fsync",
            OpKind::Unlink => "unlink",
            OpKind::Mkdir => "mkdir",
            OpKind::Readdir => "readdir",
            OpKind::Stat => "stat",
            OpKind::Rename => "rename",
            OpKind::Truncate => "truncate",
        }
    }
}

/// One of the k slowest operations seen so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowOp {
    /// Operation latency in simulated ns.
    pub ns: u64,
    /// The op kind.
    pub op: OpKind,
    /// When the op started, simulated ns.
    pub at_ns: u64,
}

/// Slots kept by the slow-op log.
const SLOW_CAP: usize = 16;

/// Per-file-system observability bundle: one latency histogram per op
/// kind, a top-k slowest-op log, and the trace ring. Timing and tracing
/// are independent switches, both off by default.
#[derive(Debug)]
pub struct FsObs {
    timing: AtomicBool,
    ops: [Histo; NOPS],
    /// Top-k slowest ops, sharded per thread ordinal so concurrent
    /// recorders never serialize on one mutex; [`FsObs::slowest`] merges
    /// the shards (the global top-k survives per-shard top-k pruning).
    slow: [Mutex<Vec<SlowOp>>; COLLECTION_SHARDS],
    /// The structured event ring, shared with subsystems (journal) that
    /// emit into the same timeline.
    pub trace: Arc<TraceRing>,
    /// The per-device span matrix, installed at mount so this bundle's
    /// exposition includes the OpKind × Phase breakdown.
    spans: OnceLock<Arc<SpanTable>>,
    /// Invariant relations checked by the online auditor.
    audit_checks: AtomicU64,
    /// Invariants found broken. Non-zero means structural corruption.
    audit_violations: AtomicU64,
    /// The per-op flight recorder (tail-latency anatomies), off by
    /// default like everything else.
    flight: FlightRecorder,
    /// The data-lifecycle provenance ledger (durability lag, per-layer
    /// write amplification), off by default like everything else.
    lineage: LineageTable,
}

impl Default for FsObs {
    fn default() -> Self {
        FsObs::new(1024)
    }
}

impl FsObs {
    /// A disabled bundle whose trace ring holds `trace_capacity` events.
    pub fn new(trace_capacity: usize) -> FsObs {
        FsObs {
            timing: AtomicBool::new(false),
            ops: std::array::from_fn(|_| Histo::new()),
            slow: std::array::from_fn(|_| Mutex::new(Vec::with_capacity(SLOW_CAP))),
            trace: Arc::new(TraceRing::new(trace_capacity)),
            spans: OnceLock::new(),
            audit_checks: AtomicU64::new(0),
            audit_violations: AtomicU64::new(0),
            flight: FlightRecorder::new(),
            lineage: LineageTable::new(),
        }
    }

    /// The per-op flight recorder bundled with this file system.
    #[inline]
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// The data-lifecycle provenance ledger bundled with this file
    /// system.
    #[inline]
    pub fn lineage(&self) -> &LineageTable {
        &self.lineage
    }

    /// Folds an auditor pass into this bundle: counts the checks, counts
    /// and traces every violation. Violations bypass the tracing switch —
    /// a broken invariant must never go unrecorded just because the ring
    /// is off.
    pub fn record_audit(&self, report: &AuditReport) {
        self.audit_checks
            .fetch_add(report.checks, Ordering::Relaxed);
        self.audit_violations
            .fetch_add(report.violations.len() as u64, Ordering::Relaxed);
        for v in &report.violations {
            self.trace.push(report.at_ns, v.event());
        }
    }

    /// Total invariant relations checked by recorded audit passes.
    pub fn audit_checks(&self) -> u64 {
        self.audit_checks.load(Ordering::Relaxed)
    }

    /// Total invariant violations recorded.
    pub fn audit_violations(&self) -> u64 {
        self.audit_violations.load(Ordering::Relaxed)
    }

    /// Installs the span matrix this file system charges into (the
    /// device's table). First caller wins, like `Journal::set_trace`.
    pub fn set_spans(&self, spans: Arc<SpanTable>) {
        let _ = self.spans.set(spans);
    }

    /// The installed span matrix, if any.
    pub fn spans(&self) -> Option<&Arc<SpanTable>> {
        self.spans.get()
    }

    /// Whether per-op latency recording is on.
    #[inline]
    pub fn timing_enabled(&self) -> bool {
        self.timing.load(Ordering::Relaxed)
    }

    /// Switches per-op latency recording.
    pub fn set_timing(&self, on: bool) {
        self.timing.store(on, Ordering::Relaxed);
    }

    /// Switches trace-event capture.
    pub fn set_tracing(&self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Records one completed operation (called by the file systems when
    /// timing is enabled).
    pub fn record_op(&self, op: OpKind, ns: u64, at_ns: u64) {
        self.ops[op as usize].record(ns);
        let mut slow = self.slow[thread_ordinal() % COLLECTION_SHARDS]
            .lock()
            .unwrap();
        if slow.len() < SLOW_CAP {
            slow.push(SlowOp { ns, op, at_ns });
        } else if let Some(min) = slow.iter_mut().min_by_key(|s| s.ns) {
            if ns > min.ns {
                *min = SlowOp { ns, op, at_ns };
            }
        }
    }

    /// The latency histogram of one op kind.
    pub fn op_histo(&self, op: OpKind) -> &Histo {
        &self.ops[op as usize]
    }

    /// The slowest recorded ops, slowest first. Merges the per-thread
    /// shards: any globally-top-k op necessarily survives its own
    /// shard's top-k pruning, so the merge is exact.
    pub fn slowest(&self) -> Vec<SlowOp> {
        let mut v: Vec<SlowOp> = self
            .slow
            .iter()
            .flat_map(|shard| shard.lock().unwrap().clone())
            .collect();
        v.sort_by_key(|s| std::cmp::Reverse(s.ns));
        v.truncate(SLOW_CAP);
        v
    }
}

impl MetricSource for FsObs {
    fn collect(&self, out: &mut dyn Visitor) {
        for op in ALL_OPS {
            let snap = self.ops[op as usize].snapshot();
            if snap.count() > 0 {
                out.histo(&format!("obsv_op_{}_ns", op.label()), snap);
            }
        }
        out.counter("obsv_trace_events", self.trace.emitted());
        out.counter("obsv_trace_dropped", self.trace.dropped());
        out.counter("obsv_audit_checks", self.audit_checks());
        out.counter("obsv_audit_violations", self.audit_violations());
        if self.flight.recorded() > 0 {
            out.counter("obsv_flight_records", self.flight.recorded());
        }
        let lin = self.lineage.snap();
        if self.lineage.enabled() || !lin.is_empty() {
            for layer in ALL_LAYERS {
                out.counter(
                    &format!("obsv_lineage_{}_bytes", layer.label()),
                    lin.layer(layer),
                );
            }
            out.counter("obsv_lineage_fences", lin.fences);
            out.counter("obsv_lineage_stamps", lin.stamps);
            out.counter("obsv_lineage_drains_sync", lin.drains_sync);
            out.counter("obsv_lineage_drains_lazy", lin.drains_lazy);
            out.gauge("obsv_lineage_max_lag_ns", lin.max_lag_ns);
            if lin.lag.count() > 0 {
                out.histo("obsv_lineage_lag_ns", lin.lag);
            }
        }
        if let Some(spans) = self.spans.get() {
            spans.collect(out);
        }
    }
}

/// Defines a struct of relaxed `AtomicU64` counters together with its
/// plain-`u64` snapshot type, `new`/`snapshot`/`since`, and a
/// [`MetricSource`] impl that reports every field as
/// `<prefix><field>` (or `<prefix><override>` with `field as "override"`).
///
/// ```
/// obsv::counter_set! {
///     /// Example counters.
///     pub struct DemoStats, snapshot DemoSnapshot, prefix "demo_" {
///         /// Cache hits.
///         pub hits,
///         pub misses as "lookup_misses",
///     }
/// }
/// let s = DemoStats::new();
/// s.hits.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
/// assert_eq!(s.snapshot().hits, 2);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$smeta:meta])*
        $vis:vis struct $name:ident, snapshot $snap:ident, prefix $prefix:literal {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident $(as $mname:literal)?
            ),+ $(,)?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: ::std::sync::atomic::AtomicU64, )+
        }

        impl $name {
            /// Zeroed counters.
            $vis fn new() -> Self {
                Self::default()
            }

            /// Copies the current counter values.
            $vis fn snapshot(&self) -> $snap {
                $snap {
                    $( $field: self.$field.load(::std::sync::atomic::Ordering::Relaxed), )+
                }
            }
        }

        #[doc = concat!("Point-in-time copy of [`", stringify!($name), "`].")]
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $snap {
            $( $(#[$fmeta])* pub $field: u64, )+
        }

        impl $snap {
            /// Per-counter difference `self - earlier`, saturating at zero.
            $vis fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $field: self.$field.saturating_sub(earlier.$field), )+
                }
            }
        }

        impl $crate::MetricSource for $name {
            fn collect(&self, out: &mut dyn $crate::Visitor) {
                $(
                    out.counter(
                        $crate::counter_set!(@name $prefix, $field $(, $mname)?),
                        self.$field.load(::std::sync::atomic::Ordering::Relaxed),
                    );
                )+
            }
        }
    };
    (@name $prefix:literal, $field:ident) => {
        concat!($prefix, stringify!($field))
    };
    (@name $prefix:literal, $field:ident, $mname:literal) => {
        concat!($prefix, $mname)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    counter_set! {
        /// Test counters.
        pub struct TStats, snapshot TSnapshot, prefix "t_" {
            /// Plain counter.
            pub alpha,
            /// Renamed counter.
            pub beta as "renamed_beta",
        }
    }

    struct Collect(Vec<(String, u64)>);

    impl Visitor for Collect {
        fn counter(&mut self, name: &str, value: u64) {
            self.0.push((name.to_string(), value));
        }
        fn gauge(&mut self, _: &str, _: u64) {}
        fn histo(&mut self, _: &str, _: HistoSnapshot) {}
    }

    #[test]
    fn counter_set_generates_everything() {
        let s = TStats::new();
        s.alpha.fetch_add(3, Ordering::Relaxed);
        s.beta.fetch_add(1, Ordering::Relaxed);
        let snap = s.snapshot();
        assert_eq!(snap.alpha, 3);
        assert_eq!(snap.beta, 1);
        s.alpha.fetch_add(2, Ordering::Relaxed);
        let d = s.snapshot().since(&snap);
        assert_eq!(d.alpha, 2);
        assert_eq!(d.beta, 0);
        let mut c = Collect(Vec::new());
        s.collect(&mut c);
        assert_eq!(
            c.0,
            vec![
                ("t_alpha".to_string(), 5),
                ("t_renamed_beta".to_string(), 1)
            ]
        );
    }

    #[test]
    fn fsobs_records_and_collects() {
        let obs = FsObs::new(8);
        assert!(!obs.timing_enabled());
        obs.set_timing(true);
        obs.record_op(OpKind::Read, 100, 0);
        obs.record_op(OpKind::Read, 300, 10);
        obs.record_op(OpKind::Fsync, 5000, 20);
        assert_eq!(obs.op_histo(OpKind::Read).snapshot().count(), 2);
        let slow = obs.slowest();
        assert_eq!(slow[0].op, OpKind::Fsync);
        assert_eq!(slow[0].ns, 5000);
        let reg = MetricsRegistry::new();
        reg.register("", Arc::new(obs));
        let snap = reg.snapshot();
        assert_eq!(snap.histo("obsv_op_read_ns").unwrap().count(), 2);
        assert!(
            snap.histo("obsv_op_write_ns").is_none(),
            "empty ops are omitted"
        );
    }

    #[test]
    fn record_audit_counts_and_traces_violations() {
        let obs = FsObs::new(8);
        let mut rep = AuditReport::new(77);
        rep.check_eq(2, 0, 0, 5, 5);
        rep.check_eq(4, 1, 3, 0b11, 0b01);
        obs.record_audit(&rep);
        assert_eq!(obs.audit_checks(), 2);
        assert_eq!(obs.audit_violations(), 1);
        // The violation reached the ring even though tracing is off.
        let tail = obs.trace.tail(8);
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].at_ns, 77);
        assert_eq!(tail[0].ev.kind(), "audit.violation");
        // And the counters surface under the obsv_ prefix.
        let reg = MetricsRegistry::new();
        reg.register("", Arc::new(obs));
        let snap = reg.snapshot();
        assert_eq!(snap.counter("obsv_audit_checks"), 2);
        assert_eq!(snap.counter("obsv_audit_violations"), 1);
    }

    #[test]
    fn slow_log_keeps_topk() {
        let obs = FsObs::new(8);
        for i in 0..100u64 {
            obs.record_op(OpKind::Write, i, i);
        }
        let slow = obs.slowest();
        assert_eq!(slow.len(), SLOW_CAP);
        assert_eq!(slow[0].ns, 99);
        assert_eq!(slow.last().unwrap().ns, 100 - SLOW_CAP as u64);
    }

    #[test]
    fn labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in ALL_OPS {
            assert!(seen.insert(op.label()));
            assert_eq!(ALL_OPS[op as usize], op);
        }
    }
}
