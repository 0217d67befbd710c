//! Per-op flight recorder: one record per instrumented operation,
//! composing the span and contention hooks into a tail-latency anatomy.
//!
//! The histograms say *what* the p99 is; the span matrix says where time
//! goes *on average*. Neither says why one particular slow op was slow.
//! A [`FlightRecorder`] keeps, for the slowest operations of each
//! [`OpKind`], a full [`FlightRecord`]: per-phase exclusive ns, per-site
//! lock-wait ns, stall events, fence and persisted-byte counts, the
//! group-commit batch it rode in, and the trace-ring seq range covering
//! its lifetime. Records double as
//! *exemplars* for the latency histograms — [`FlightSnapshot::cohort`]
//! selects the records whose latency falls in the p99/p999 buckets, so a
//! tail quantile links to concrete anatomies.
//!
//! Cost rules, matching the rest of `obsv`:
//!
//! - **Off by default, one relaxed load when off.** [`FlightRecorder::begin`]
//!   checks a relaxed `AtomicBool`; every `note_*` hook checks a
//!   thread-local flag that is only ever set between an enabled
//!   `begin`/`finish` pair, so the off path is one TLS bool read.
//! - **Allocation-free on the record path.** The in-flight record is a
//!   fixed-size thread-local; retirement into the per-thread reservoir
//!   shards replaces the shard's current minimum in place once the
//!   top-K slots are full. The only allocations are the lazy first-use
//!   reservoir boxes.
//! - **Reads clocks, never advances them.** All timestamps are handed in
//!   by the `timed()` wrappers that already read the simulation clock for
//!   the latency histograms, so enabling flight changes no result bit
//!   (proven by `tests/determinism.rs`).

use crate::histo::bucket_of;
use crate::span::BG_ROW;
use crate::{thread_ordinal, OpKind, Phase, Site, ALL_PHASES, ALL_SITES};
use crate::{COLLECTION_SHARDS, NOPS, NPHASES, NSITES};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Records kept per op kind per collection shard. The merged snapshot
/// keeps [`FLIGHT_MERGED_TOPK`]; any globally-top-K record necessarily
/// survives its own shard's top-K pruning, so the merge is exact up to
/// `FLIGHT_TOPK` records per shard.
pub const FLIGHT_TOPK: usize = 8;

/// Records kept per op kind after merging the collection shards.
pub const FLIGHT_MERGED_TOPK: usize = 16;

/// The complete anatomy of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightRecord {
    /// The op kind.
    pub op: OpKind,
    /// When the op started, simulated ns.
    pub at_ns: u64,
    /// Total op latency, simulated ns.
    pub total_ns: u64,
    /// Largest group-commit batch flushed inside the op (0 = none).
    pub batch: u32,
    /// Store fences issued while the op was in flight.
    pub fences: u32,
    /// Fences *saved* by group-commit coalescing (`sfence_coalesced(n)`
    /// counts as 1 fence issued and `n-1` coalesced).
    pub fences_coalesced: u32,
    /// Stall events (`stall.*` sites) the op absorbed: writeback
    /// interference, journal-full relief, bandwidth throttling.
    pub stall_events: u32,
    /// Bytes persisted to NVMM (cacheline granularity) by the op.
    pub persisted_bytes: u64,
    /// Trace-ring seq ticket when the op began.
    pub seq_start: u64,
    /// Trace-ring seq ticket when the op finished; `seq_start..seq_end`
    /// bounds the ring events emitted while the op was in flight.
    pub seq_end: u64,
    /// Exclusive simulated ns per [`Phase`]; sums to `total_ns` (the
    /// remainder outside named phases is folded into [`Phase::Other`]).
    pub phase_ns: [u64; NPHASES],
    /// Blocked simulated ns per [`Site`] (lock waits, condvar waits,
    /// stall sites).
    pub wait_ns: [u64; NSITES],
}

impl FlightRecord {
    const EMPTY: FlightRecord = FlightRecord {
        op: OpKind::Open,
        at_ns: 0,
        total_ns: 0,
        batch: 0,
        fences: 0,
        fences_coalesced: 0,
        stall_events: 0,
        persisted_bytes: 0,
        seq_start: 0,
        seq_end: 0,
        phase_ns: [0; NPHASES],
        wait_ns: [0; NSITES],
    };

    fn start(op: OpKind, at_ns: u64, seq_start: u64) -> FlightRecord {
        FlightRecord {
            op,
            at_ns,
            seq_start,
            ..FlightRecord::EMPTY
        }
    }

    /// The latency-histogram bucket this record's total falls in — the
    /// link between an exemplar and the quantile math.
    pub fn bucket(&self) -> usize {
        bucket_of(self.total_ns)
    }

    /// The `k` largest nonzero phase contributions, largest first.
    pub fn top_phases(&self, k: usize) -> Vec<(Phase, u64)> {
        let mut v: Vec<(Phase, u64)> = ALL_PHASES
            .iter()
            .map(|&p| (p, self.phase_ns[p as usize]))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        v.sort_by_key(|&(p, ns)| (std::cmp::Reverse(ns), p as usize));
        v.truncate(k);
        v
    }

    /// The `k` largest nonzero per-site waits, largest first.
    pub fn top_waits(&self, k: usize) -> Vec<(Site, u64)> {
        let mut v: Vec<(Site, u64)> = ALL_SITES
            .iter()
            .map(|&s| (s, self.wait_ns[s as usize]))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        v.sort_by_key(|&(s, ns)| (std::cmp::Reverse(ns), s as usize));
        v.truncate(k);
        v
    }
}

/// The thread-local in-flight record. `active` mirrors into the cheap
/// [`ACTIVE`] cell that every `note_*` hook checks first; `owner` pins
/// the frame to the recorder that opened it so a nested op on a *second*
/// enabled recorder (HiNFS delegating to PMFS with both flights on)
/// neither steals nor retires the outer frame.
struct FlightFrame {
    active: bool,
    owner: u64,
    depth: u32,
    rec: FlightRecord,
}

thread_local! {
    /// Fast gate for the `note_*` hooks: true only between an enabled
    /// `begin` and its matching `finish` on this thread.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static FRAME: RefCell<FlightFrame> = const {
        RefCell::new(FlightFrame {
            active: false,
            owner: 0,
            depth: 0,
            rec: FlightRecord::EMPTY,
        })
    };
}

/// Process-unique recorder ids (Arc addresses can be reused; a counter
/// cannot).
static RECORDER_IDS: AtomicU64 = AtomicU64::new(1);

/// Adds exclusive phase time to the in-flight record. Called by the span
/// layer on every scope pop; `row == BG_ROW` charges (detached writeback)
/// are not an op's own time and are skipped.
#[inline]
pub(crate) fn note_phase(row: usize, phase: Phase, excl_ns: u64) {
    if row == BG_ROW || !ACTIVE.get() {
        return;
    }
    FRAME.with(|f| f.borrow_mut().rec.phase_ns[phase as usize] += excl_ns);
}

/// Adds blocked time at `site` to the in-flight record; `stall.*` sites
/// also tick the stall-event count. Called by the contention layer on
/// every wait sample.
#[inline]
pub(crate) fn note_wait(site: Site, wait_ns: u64) {
    if !ACTIVE.get() {
        return;
    }
    FRAME.with(|f| {
        let mut f = f.borrow_mut();
        f.rec.wait_ns[site as usize] += wait_ns;
        if matches!(
            site,
            Site::StallWriteback | Site::StallJournalFull | Site::StallThrottle
        ) {
            f.rec.stall_events += 1;
        }
    });
}

/// Books one fence covering `coalesced` logical transactions (`sfence`
/// passes 1; `sfence_coalesced(n)` passes `n`, crediting `n-1` saved
/// fences).
#[inline]
pub fn note_fence(coalesced: u64) {
    crate::lineage::frame_note_fence();
    if !ACTIVE.get() {
        return;
    }
    FRAME.with(|f| {
        let mut f = f.borrow_mut();
        f.rec.fences += 1;
        f.rec.fences_coalesced += coalesced.saturating_sub(1) as u32;
    });
}

/// Books `bytes` persisted to NVMM (cacheline granularity).
#[inline]
pub fn note_persisted(bytes: u64) {
    crate::lineage::frame_note_persisted(bytes);
    if !ACTIVE.get() {
        return;
    }
    FRAME.with(|f| f.borrow_mut().rec.persisted_bytes += bytes);
}

/// Books a group-commit batch of `n` transactions flushed inside the op
/// (max-wins).
#[inline]
pub fn note_batch(n: u32) {
    if !ACTIVE.get() {
        return;
    }
    FRAME.with(|f| {
        let mut f = f.borrow_mut();
        f.rec.batch = f.rec.batch.max(n);
    });
}

/// One collection shard's reservoirs: a top-K vector per op kind,
/// boxed and lazily allocated on the shard's first retirement.
type ShardReservoirs = Mutex<Option<Box<[Vec<FlightRecord>; NOPS]>>>;

/// Per-file-system flight recorder: top-K-slowest reservoirs per op
/// kind, sharded per thread ordinal like the slow-op log.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: AtomicBool,
    id: u64,
    recorded: AtomicU64,
    shards: [ShardReservoirs; COLLECTION_SHARDS],
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// A disabled, empty recorder.
    pub fn new() -> FlightRecorder {
        FlightRecorder {
            enabled: AtomicBool::new(false),
            id: RECORDER_IDS.fetch_add(1, Ordering::Relaxed),
            recorded: AtomicU64::new(0),
            shards: std::array::from_fn(|_| Mutex::new(None)),
        }
    }

    /// Whether records are being kept — one relaxed load, the whole cost
    /// of `begin`/`finish` while disabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording. Leaves accumulated records in place.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Operations retired into the reservoirs so far.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Opens the flight frame for an op starting at `at_ns` with the
    /// trace ring at ticket `seq_start`. Nested calls on the same
    /// recorder deepen the frame; a frame already owned by a *different*
    /// recorder is left untouched (the outermost instrumented layer owns
    /// the anatomy).
    #[inline]
    pub fn begin(&self, op: OpKind, at_ns: u64, seq_start: u64) {
        if !self.is_enabled() {
            return;
        }
        FRAME.with(|f| {
            let mut f = f.borrow_mut();
            if f.active {
                if f.owner == self.id {
                    f.depth += 1;
                }
                return;
            }
            f.active = true;
            f.owner = self.id;
            f.depth = 1;
            f.rec = FlightRecord::start(op, at_ns, seq_start);
            ACTIVE.set(true);
        });
    }

    /// Closes the flight frame and retires the record when the outermost
    /// `begin` unwinds. The op's time in no named phase is folded into
    /// [`Phase::Other`] here, because the span layer books the op-scope
    /// remainder only after the `timed()` closure (and this call) return.
    pub fn finish(&self, total_ns: u64, seq_end: u64) {
        if !self.is_enabled() {
            return;
        }
        let rec = FRAME.with(|f| {
            let mut f = f.borrow_mut();
            if !f.active || f.owner != self.id {
                return None;
            }
            f.depth -= 1;
            if f.depth > 0 {
                return None;
            }
            f.active = false;
            ACTIVE.set(false);
            let mut rec = f.rec;
            rec.total_ns = total_ns;
            rec.seq_end = seq_end;
            let phased: u64 = rec.phase_ns.iter().sum();
            rec.phase_ns[Phase::Other as usize] += total_ns.saturating_sub(phased);
            Some(rec)
        });
        if let Some(rec) = rec {
            self.retire(rec);
        }
    }

    /// Inserts a finished record into the caller's reservoir shard,
    /// replacing that shard's fastest record once the op's K slots are
    /// full.
    fn retire(&self, rec: FlightRecord) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.shards[thread_ordinal() % COLLECTION_SHARDS]
            .lock()
            .unwrap();
        let slots = guard.get_or_insert_with(|| {
            Box::new(std::array::from_fn(|_| Vec::with_capacity(FLIGHT_TOPK)))
        });
        let v = &mut slots[rec.op as usize];
        if v.len() < FLIGHT_TOPK {
            v.push(rec);
        } else if let Some(min) = v.iter_mut().min_by_key(|r| r.total_ns) {
            if rec.total_ns > min.total_ns {
                *min = rec;
            }
        }
    }

    /// Drops every record and zeroes the retire counter (timeline
    /// rebasing, like `Histo::reset`).
    pub fn reset(&self) {
        for shard in &self.shards {
            *shard.lock().unwrap() = None;
        }
        self.recorded.store(0, Ordering::Relaxed);
    }

    /// Merges the reservoir shards into a frozen snapshot: per op kind,
    /// the up-to-[`FLIGHT_MERGED_TOPK`] slowest records, slowest first,
    /// deterministically ordered.
    pub fn snapshot(&self) -> FlightSnapshot {
        let mut per_op: Vec<Vec<FlightRecord>> = vec![Vec::new(); NOPS];
        for shard in &self.shards {
            if let Some(slots) = shard.lock().unwrap().as_ref() {
                for (op, v) in slots.iter().enumerate() {
                    per_op[op].extend_from_slice(v);
                }
            }
        }
        for v in &mut per_op {
            v.sort_by_key(|r| (std::cmp::Reverse(r.total_ns), r.at_ns, r.seq_start));
            v.truncate(FLIGHT_MERGED_TOPK);
        }
        FlightSnapshot {
            per_op,
            recorded: self.recorded(),
        }
    }
}

/// A frozen copy of a [`FlightRecorder`]'s reservoirs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSnapshot {
    per_op: Vec<Vec<FlightRecord>>,
    recorded: u64,
}

impl Default for FlightSnapshot {
    fn default() -> Self {
        FlightSnapshot {
            per_op: vec![Vec::new(); NOPS],
            recorded: 0,
        }
    }
}

impl FlightSnapshot {
    /// Operations retired when the snapshot was taken.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The kept records of one op kind, slowest first.
    pub fn records(&self, op: OpKind) -> &[FlightRecord] {
        &self.per_op[op as usize]
    }

    /// Every kept record across all op kinds, slowest first.
    pub fn all(&self) -> Vec<&FlightRecord> {
        let mut v: Vec<&FlightRecord> = self.per_op.iter().flatten().collect();
        v.sort_by_key(|r| (std::cmp::Reverse(r.total_ns), r.at_ns, r.seq_start));
        v
    }

    /// The exemplar cohort of a quantile: every kept record whose
    /// latency bucket is at (or above) the bucket `quantile_ns` falls
    /// in. With `quantile_ns` from the merged histogram's `quantile(q)`,
    /// these are the concrete anatomies behind the reported pXX.
    pub fn cohort(&self, quantile_ns: u64) -> Vec<&FlightRecord> {
        let floor = bucket_of(quantile_ns);
        let mut v: Vec<&FlightRecord> = self
            .per_op
            .iter()
            .flatten()
            .filter(|r| r.bucket() >= floor)
            .collect();
        v.sort_by_key(|r| (std::cmp::Reverse(r.total_ns), r.at_ns, r.seq_start));
        v
    }
}

/// Aggregate anatomy of a set of records (an exemplar cohort): summed
/// phase and wait time, event counts, and the covering trace-seq range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TailAnatomy {
    /// Records aggregated.
    pub count: u64,
    /// Summed total latency.
    pub total_ns: u64,
    /// Summed exclusive ns per [`Phase`].
    pub phase_ns: [u64; NPHASES],
    /// Summed blocked ns per [`Site`].
    pub wait_ns: [u64; NSITES],
    /// Summed fences issued.
    pub fences: u64,
    /// Summed fences saved by coalescing.
    pub fences_coalesced: u64,
    /// Summed stall events.
    pub stall_events: u64,
    /// Summed persisted bytes.
    pub persisted_bytes: u64,
    /// Largest group-commit batch seen.
    pub max_batch: u32,
    /// Smallest `seq_start` across the cohort.
    pub seq_lo: u64,
    /// Largest `seq_end` across the cohort.
    pub seq_hi: u64,
}

impl Default for TailAnatomy {
    fn default() -> Self {
        TailAnatomy {
            count: 0,
            total_ns: 0,
            phase_ns: [0; NPHASES],
            wait_ns: [0; NSITES],
            fences: 0,
            fences_coalesced: 0,
            stall_events: 0,
            persisted_bytes: 0,
            max_batch: 0,
            seq_lo: 0,
            seq_hi: 0,
        }
    }
}

impl TailAnatomy {
    /// Sums `records` into one anatomy.
    pub fn aggregate<'a>(records: impl IntoIterator<Item = &'a FlightRecord>) -> TailAnatomy {
        let mut a = TailAnatomy {
            seq_lo: u64::MAX,
            ..TailAnatomy::default()
        };
        for r in records {
            a.count += 1;
            a.total_ns += r.total_ns;
            for p in 0..NPHASES {
                a.phase_ns[p] += r.phase_ns[p];
            }
            for s in 0..NSITES {
                a.wait_ns[s] += r.wait_ns[s];
            }
            a.fences += r.fences as u64;
            a.fences_coalesced += r.fences_coalesced as u64;
            a.stall_events += r.stall_events as u64;
            a.persisted_bytes += r.persisted_bytes;
            a.max_batch = a.max_batch.max(r.batch);
            a.seq_lo = a.seq_lo.min(r.seq_start);
            a.seq_hi = a.seq_hi.max(r.seq_end);
        }
        if a.count == 0 {
            a.seq_lo = 0;
        }
        a
    }

    /// The `k` largest nonzero phase sums, largest first.
    pub fn top_phases(&self, k: usize) -> Vec<(Phase, u64)> {
        let mut v: Vec<(Phase, u64)> = ALL_PHASES
            .iter()
            .map(|&p| (p, self.phase_ns[p as usize]))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        v.sort_by_key(|&(p, ns)| (std::cmp::Reverse(ns), p as usize));
        v.truncate(k);
        v
    }

    /// The `k` largest nonzero wait sums, largest first.
    pub fn top_waits(&self, k: usize) -> Vec<(Site, u64)> {
        let mut v: Vec<(Site, u64)> = ALL_SITES
            .iter()
            .map(|&s| (s, self.wait_ns[s as usize]))
            .filter(|&(_, ns)| ns > 0)
            .collect();
        v.sort_by_key(|&(s, ns)| (std::cmp::Reverse(ns), s as usize));
        v.truncate(k);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histo::{bucket_lower, bucket_upper, Histo};

    fn record_one(fl: &FlightRecorder, op: OpKind, at: u64, ns: u64) {
        fl.begin(op, at, 0);
        fl.finish(ns, 0);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let fl = FlightRecorder::new();
        record_one(&fl, OpKind::Write, 0, 100);
        assert_eq!(fl.recorded(), 0);
        assert!(fl.snapshot().all().is_empty());
        assert!(!ACTIVE.get(), "off path must not arm the TLS gate");
    }

    #[test]
    fn records_compose_span_contention_and_device_hooks() {
        let fl = FlightRecorder::new();
        fl.set_enabled(true);
        fl.begin(OpKind::Write, 1000, 7);
        note_phase(OpKind::Write as usize, Phase::DramCopy, 120);
        note_phase(OpKind::Write as usize, Phase::Persist, 300);
        note_phase(BG_ROW, Phase::Persist, 999_999); // detached: ignored
        note_wait(Site::PmfsJournal, 40);
        note_wait(Site::StallWriteback, 60);
        note_fence(1);
        note_fence(4); // one fence covering a 4-tx group commit
        note_persisted(256);
        note_batch(4);
        note_batch(2);
        fl.finish(1000, 11);
        assert_eq!(fl.recorded(), 1);
        let snap = fl.snapshot();
        let r = snap.records(OpKind::Write)[0];
        assert_eq!(r.at_ns, 1000);
        assert_eq!(r.total_ns, 1000);
        assert_eq!((r.seq_start, r.seq_end), (7, 11));
        assert_eq!(r.phase_ns[Phase::DramCopy as usize], 120);
        assert_eq!(r.phase_ns[Phase::Persist as usize], 300);
        // Remainder lands in Other; the row sums to the total.
        assert_eq!(r.phase_ns[Phase::Other as usize], 1000 - 120 - 300);
        assert_eq!(r.phase_ns.iter().sum::<u64>(), r.total_ns);
        assert_eq!(r.wait_ns[Site::PmfsJournal as usize], 40);
        assert_eq!(r.wait_ns[Site::StallWriteback as usize], 60);
        assert_eq!(r.stall_events, 1);
        assert_eq!(r.fences, 2);
        assert_eq!(r.fences_coalesced, 3);
        assert_eq!(r.persisted_bytes, 256);
        assert_eq!(r.batch, 4);
        assert_eq!(
            r.top_phases(2),
            vec![(Phase::Other, 580), (Phase::Persist, 300)]
        );
        assert_eq!(r.top_waits(1), vec![(Site::StallWriteback, 60)]);
        assert!(!ACTIVE.get(), "gate must clear at finish");
    }

    #[test]
    fn nested_begin_same_recorder_retires_once_at_outer_finish() {
        let fl = FlightRecorder::new();
        fl.set_enabled(true);
        fl.begin(OpKind::Fsync, 0, 0);
        fl.begin(OpKind::Write, 10, 1); // nested: ignored, deepens frame
        fl.finish(5, 2);
        assert_eq!(fl.recorded(), 0, "inner finish must not retire");
        fl.finish(900, 3);
        assert_eq!(fl.recorded(), 1);
        let snap = fl.snapshot();
        assert_eq!(snap.records(OpKind::Fsync).len(), 1);
        assert!(snap.records(OpKind::Write).is_empty());
        assert_eq!(snap.records(OpKind::Fsync)[0].total_ns, 900);
    }

    #[test]
    fn second_recorder_does_not_steal_or_retire_foreign_frame() {
        let outer = FlightRecorder::new();
        let inner = FlightRecorder::new();
        outer.set_enabled(true);
        inner.set_enabled(true);
        outer.begin(OpKind::Write, 0, 0);
        inner.begin(OpKind::Write, 5, 1);
        inner.finish(50, 2);
        assert_eq!(inner.recorded(), 0);
        assert!(ACTIVE.get(), "outer frame must survive the inner pair");
        outer.finish(200, 3);
        assert_eq!(outer.recorded(), 1);
        assert_eq!(outer.snapshot().records(OpKind::Write)[0].total_ns, 200);
    }

    #[test]
    fn reservoir_keeps_topk_slowest_per_op() {
        let fl = FlightRecorder::new();
        fl.set_enabled(true);
        for i in 0..100u64 {
            record_one(&fl, OpKind::Read, i, i + 1);
        }
        assert_eq!(fl.recorded(), 100);
        let snap = fl.snapshot();
        let recs = snap.records(OpKind::Read);
        assert_eq!(recs.len(), FLIGHT_TOPK.min(FLIGHT_MERGED_TOPK));
        assert_eq!(recs[0].total_ns, 100);
        assert!(recs.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
        assert_eq!(recs.last().unwrap().total_ns, 100 - FLIGHT_TOPK as u64 + 1);
        fl.reset();
        assert_eq!(fl.recorded(), 0);
        assert!(fl.snapshot().all().is_empty());
    }

    #[test]
    fn exemplars_agree_with_histogram_buckets() {
        // The exemplar ↔ bucket contract: a record keyed to bucket b has
        // bucket_lower(b) <= total_ns <= bucket_upper(b), and the cohort
        // of the histogram's pXX contains exactly the records at or above
        // the quantile's bucket.
        let fl = FlightRecorder::new();
        let h = Histo::new();
        fl.set_enabled(true);
        let samples: Vec<u64> = (1..=200u64).map(|i| i * 97).collect();
        for (i, &ns) in samples.iter().enumerate() {
            h.record(ns);
            record_one(&fl, OpKind::Write, i as u64, ns);
        }
        let snap = fl.snapshot();
        for r in snap.all() {
            let b = r.bucket();
            assert!(bucket_lower(b) <= r.total_ns && r.total_ns <= bucket_upper(b));
        }
        let p99 = h.snapshot().quantile(0.99);
        let cohort = snap.cohort(p99);
        assert!(!cohort.is_empty(), "top-K exemplars must cover the p99");
        for r in &cohort {
            assert!(
                r.bucket() >= bucket_of(p99),
                "cohort record below the p99 bucket"
            );
        }
        let a = TailAnatomy::aggregate(cohort.iter().copied());
        assert_eq!(a.count, cohort.len() as u64);
        assert_eq!(a.total_ns, cohort.iter().map(|r| r.total_ns).sum::<u64>());
        assert_eq!(a.phase_ns.iter().sum::<u64>(), a.total_ns);
    }
}
