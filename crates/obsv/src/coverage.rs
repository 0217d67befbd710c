//! Coverage accounting for the scenario fuzzer.
//!
//! A [`CoverageMap`] is a deterministic set of *coverage points* — small
//! integers encoding "this run reached a state the observability layer
//! can name". The fuzzer keeps one global map and evolves its corpus
//! toward inputs that add points no earlier input produced. Everything a
//! point encodes is something the repo already observes:
//!
//! - **Trace** ([`CoverageDomain::Trace`]): trace-ring event kinds with
//!   their interesting payload fields log₂-bucketed — a `bbm.flip` to
//!   Lazy at a different write-count magnitude, a `watermark.low`
//!   crossing at a different free level, a recovery that undid a
//!   different number of journal entries all count as distinct points.
//! - **Site** ([`CoverageDomain::Site`]): contention-site first-hits — a
//!   lock or stall identity acquired (and separately, contended) for the
//!   first time, so scripts that reach a new lock or stall score.
//! - **State** ([`CoverageDomain::State`]): invariant-auditor /
//!   introspection state classes derived from an [`FsSnapshot`] —
//!   watermark region, journal fill bucket, Eager/Lazy/ghost population
//!   flags, dirty-cacheline and LRW-age histogram occupancy.
//! - **Crash** ([`CoverageDomain::Crash`]): crash-schedule shape — how
//!   many persistence boundaries a script crosses, which boundary a
//!   crash landed on, whether it fired mid-operation or tore the store
//!   buffer, and how much recovery had to undo.
//! - **Op** ([`CoverageDomain::Op`]): operation outcomes — which op kind
//!   produced which result class on which system.
//!
//! Points carry an 8-bit caller-supplied context (the fuzzer uses the
//! file-system kind) so "watermark crossing on hinfs" and "on pmfs" are
//! separate corpus targets. The map is a `BTreeSet`, so iteration order,
//! summaries, and [`CoverageMap::digest`] are bit-stable — a fixed seed
//! replays to an identical coverage report.

use std::collections::BTreeSet;

use crate::contention::ContentionSnapshot;
use crate::snapshot::FsSnapshot;
use crate::trace::TraceEvent;

/// Which observability source a coverage point came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CoverageDomain {
    /// Trace-ring event kinds with bucketed payloads.
    Trace = 0,
    /// Contention-site first-hits.
    Site = 1,
    /// Introspection-state classes (watermark region, journal fill, …).
    State = 2,
    /// Crash-schedule shape and recovery depth.
    Crash = 3,
    /// Per-operation outcome classes.
    Op = 4,
}

/// Every domain, in tag order.
pub const COVERAGE_DOMAINS: [CoverageDomain; 5] = [
    CoverageDomain::Trace,
    CoverageDomain::Site,
    CoverageDomain::State,
    CoverageDomain::Crash,
    CoverageDomain::Op,
];

impl CoverageDomain {
    /// Stable label for summaries.
    pub fn label(self) -> &'static str {
        match self {
            CoverageDomain::Trace => "trace",
            CoverageDomain::Site => "site",
            CoverageDomain::State => "state",
            CoverageDomain::Crash => "crash",
            CoverageDomain::Op => "op",
        }
    }
}

/// Log₂ magnitude bucket: 0 for 0, else `ilog2(v) + 1` (1 for 1, 2 for
/// 2–3, 3 for 4–7, …). Collapses raw counters into ~65 classes so a
/// coverage point means "a different order of magnitude", not "a
/// different number".
pub fn mag_bucket(v: u64) -> u64 {
    match v {
        0 => 0,
        _ => u64::from(v.ilog2()) + 1,
    }
}

/// Packs a point: domain tag in the top byte, caller context below it,
/// feature payload in the low 48 bits.
fn point(domain: CoverageDomain, ctx: u8, feature: u64) -> u64 {
    ((domain as u64) << 56) | ((ctx as u64) << 48) | (feature & 0xFFFF_FFFF_FFFF)
}

/// Stable index of a trace-event kind (mirrors the ring's wire tags).
fn trace_kind_idx(ev: &TraceEvent) -> u64 {
    match ev {
        TraceEvent::ReclaimBegin { .. } => 0,
        TraceEvent::ReclaimEnd { .. } => 1,
        TraceEvent::WatermarkLow { .. } => 2,
        TraceEvent::ForegroundStall { .. } => 3,
        TraceEvent::BbmFlip { .. } => 4,
        TraceEvent::JournalCommit { .. } => 5,
        TraceEvent::PeriodicPass { .. } => 6,
        TraceEvent::RecoveryBegin { .. } => 7,
        TraceEvent::RecoveryEnd { .. } => 8,
        TraceEvent::FaultInjected { .. } => 9,
        TraceEvent::AuditViolation { .. } => 10,
        TraceEvent::LineageDrained { .. } => 11,
    }
}

/// The bucketed sub-feature of one trace event: which payload magnitudes
/// make this occurrence of the kind "new".
fn trace_sub_feature(ev: &TraceEvent) -> u64 {
    match *ev {
        TraceEvent::ReclaimBegin { free, .. } => mag_bucket(free),
        TraceEvent::ReclaimEnd { victims, .. } => mag_bucket(victims),
        TraceEvent::WatermarkLow { free, .. } => mag_bucket(free),
        TraceEvent::ForegroundStall { .. } => 0,
        TraceEvent::BbmFlip {
            to_lazy,
            n_cw,
            n_cf,
            ..
        } => (u64::from(to_lazy) << 16) | (mag_bucket(n_cw) << 8) | mag_bucket(n_cf),
        TraceEvent::JournalCommit { log_entries, .. } => mag_bucket(log_entries),
        TraceEvent::PeriodicPass { age_flushed } => mag_bucket(age_flushed),
        TraceEvent::RecoveryBegin { .. } => 0,
        TraceEvent::RecoveryEnd {
            txs_undone,
            entries_undone,
        } => (mag_bucket(txs_undone) << 8) | mag_bucket(entries_undone),
        TraceEvent::FaultInjected { kind, .. } => kind,
        TraceEvent::AuditViolation { code, .. } => code,
        TraceEvent::LineageDrained {
            row, lazy, lag_ns, ..
        } => (row << 16) | (u64::from(lazy) << 8) | mag_bucket(lag_ns),
    }
}

/// A deterministic set of coverage points.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoverageMap {
    points: BTreeSet<u64>,
}

impl CoverageMap {
    /// An empty map.
    pub fn new() -> CoverageMap {
        CoverageMap::default()
    }

    /// Inserts one raw point; `true` when it is new.
    pub fn insert(&mut self, domain: CoverageDomain, ctx: u8, feature: u64) -> bool {
        self.points.insert(point(domain, ctx, feature))
    }

    /// Folds one trace event in. Returns the number of new points (0–1).
    pub fn add_trace(&mut self, ctx: u8, ev: &TraceEvent) -> usize {
        let feature = (trace_kind_idx(ev) << 24) | (trace_sub_feature(ev) & 0xFF_FFFF);
        usize::from(self.insert(CoverageDomain::Trace, ctx, feature))
    }

    /// Folds a contention snapshot in: one point per site first acquired,
    /// a second per site first *contended*. Returns new points.
    pub fn add_contention(&mut self, ctx: u8, snap: &ContentionSnapshot) -> usize {
        let mut new = 0;
        for s in snap.touched() {
            new += usize::from(self.insert(CoverageDomain::Site, ctx, (s.site as u64) << 1));
            if s.contended > 0 {
                new +=
                    usize::from(self.insert(CoverageDomain::Site, ctx, ((s.site as u64) << 1) | 1));
            }
        }
        new
    }

    /// Folds an introspection snapshot into state-class points. Returns
    /// new points.
    pub fn add_state(&mut self, ctx: u8, snap: &FsSnapshot) -> usize {
        let mut new = 0;
        let mut put = |sub: u64, val: u64| {
            usize::from(self.insert(CoverageDomain::State, ctx, (sub << 16) | (val & 0xFFFF)))
        };
        if let Some(b) = &snap.buffer {
            // Watermark region: 2 = under Low_f (reclaim pressure),
            // 1 = between the watermarks, 0 = above High_f.
            let region = if b.free_blocks <= b.low_blocks {
                2
            } else if b.free_blocks < b.high_blocks {
                1
            } else {
                0
            };
            new += put(0, region);
            new += put(1, mag_bucket(b.dirty_blocks));
            new += put(2, u64::from(b.eager_blocks > 0));
            new += put(3, u64::from(b.ghost_blocks > 0));
            new += put(4, mag_bucket(b.open_txs));
            for (i, &c) in b.dirty_line_histo.iter().enumerate() {
                if c > 0 {
                    new += put(5, i as u64);
                }
            }
            for (i, &c) in b.lrw_age_histo.iter().enumerate() {
                if c > 0 {
                    new += put(6, i as u64);
                }
            }
        }
        if let Some(j) = &snap.journal {
            new += put(7, mag_bucket(j.fill_entries));
            new += put(8, mag_bucket(j.reserved_entries));
            new += put(9, u64::from(j.open_txs > 0));
        }
        if let Some(c) = &snap.cache {
            new += put(10, mag_bucket(c.dirty_pages));
        }
        new
    }

    /// Folds the shape of one recorded crash schedule: the magnitude of
    /// persistence boundaries the script crosses. Returns new points.
    pub fn add_schedule_depth(&mut self, ctx: u8, boundaries: u64) -> usize {
        usize::from(self.insert(CoverageDomain::Crash, ctx, mag_bucket(boundaries)))
    }

    /// Folds one crash-recover cycle: which boundary magnitude the crash
    /// landed on, whether it fired mid-op / tore the store buffer, and
    /// the recovery depth. Returns new points.
    pub fn add_crash_run(
        &mut self,
        ctx: u8,
        boundary: u64,
        mid_op: bool,
        torn: bool,
        entries_undone: u64,
    ) -> usize {
        let feature = (1 << 24)
            | (mag_bucket(boundary) << 16)
            | (u64::from(mid_op) << 15)
            | (u64::from(torn) << 14)
            | mag_bucket(entries_undone);
        usize::from(self.insert(CoverageDomain::Crash, ctx, feature))
    }

    /// Folds one operation outcome: `op_idx` is the script op class,
    /// `outcome` a small result class (0 = ok, else an error class).
    /// Returns new points.
    pub fn add_op_outcome(&mut self, ctx: u8, op_idx: u64, outcome: u64) -> usize {
        usize::from(self.insert(CoverageDomain::Op, ctx, (op_idx << 8) | (outcome & 0xFF)))
    }

    /// Merges `other` in, returning how many of its points were new.
    pub fn merge(&mut self, other: &CoverageMap) -> usize {
        let before = self.points.len();
        self.points.extend(other.points.iter().copied());
        self.points.len() - before
    }

    /// Total distinct points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Distinct points per domain, in [`COVERAGE_DOMAINS`] order.
    pub fn domain_counts(&self) -> [usize; COVERAGE_DOMAINS.len()] {
        let mut out = [0usize; COVERAGE_DOMAINS.len()];
        for &p in &self.points {
            let tag = (p >> 56) as usize;
            if tag < out.len() {
                out[tag] += 1;
            }
        }
        out
    }

    /// One-line deterministic summary:
    /// `points=N trace=a site=b state=c crash=d op=e`.
    pub fn summary(&self) -> String {
        let counts = self.domain_counts();
        let mut s = format!("points={}", self.len());
        for (d, c) in COVERAGE_DOMAINS.iter().zip(counts) {
            s.push_str(&format!(" {}={c}", d.label()));
        }
        s
    }

    /// Order-independent FNV-1a digest of the point set — two maps with
    /// the same points always digest identically.
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &p in &self.points {
            for b in p.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mag_bucket_classes() {
        assert_eq!(mag_bucket(0), 0);
        assert_eq!(mag_bucket(1), 1);
        assert_eq!(mag_bucket(2), 2);
        assert_eq!(mag_bucket(3), 2);
        assert_eq!(mag_bucket(4), 3);
        assert_eq!(mag_bucket(1023), 10);
        assert_eq!(mag_bucket(1024), 11);
    }

    #[test]
    fn trace_events_bucket_not_collapse() {
        let mut m = CoverageMap::new();
        // Same kind, same magnitude: one point.
        assert_eq!(
            m.add_trace(0, &TraceEvent::WatermarkLow { free: 10, low: 12 }),
            1
        );
        assert_eq!(
            m.add_trace(0, &TraceEvent::WatermarkLow { free: 11, low: 12 }),
            0
        );
        // Different magnitude: new point.
        assert_eq!(
            m.add_trace(
                0,
                &TraceEvent::WatermarkLow {
                    free: 100,
                    low: 120
                }
            ),
            1
        );
        // Different context (file system): new point.
        assert_eq!(
            m.add_trace(1, &TraceEvent::WatermarkLow { free: 10, low: 12 }),
            1
        );
        // BBM flip direction is part of the feature.
        let flip = |to_lazy| TraceEvent::BbmFlip {
            ino: 1,
            iblk: 0,
            to_lazy,
            n_cw: 8,
            n_cf: 2,
            l_dram: 40,
            l_nvmm: 200,
            sync_age_ns: 0,
        };
        assert_eq!(m.add_trace(0, &flip(true)), 1);
        assert_eq!(m.add_trace(0, &flip(false)), 1);
        assert_eq!(m.add_trace(0, &flip(true)), 0);
        assert_eq!(m.len(), 5);
    }

    #[test]
    fn merge_counts_new_points_and_digest_is_stable() {
        let mut a = CoverageMap::new();
        a.add_op_outcome(0, 1, 0);
        a.add_op_outcome(0, 2, 0);
        let mut b = CoverageMap::new();
        b.add_op_outcome(0, 2, 0);
        b.add_op_outcome(0, 3, 1);
        // Insert in the other order: digests must agree (order-free).
        let mut b2 = CoverageMap::new();
        b2.add_op_outcome(0, 3, 1);
        b2.add_op_outcome(0, 2, 0);
        assert_eq!(b.digest(), b2.digest());
        assert_eq!(a.merge(&b), 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a.merge(&b), 0);
    }

    #[test]
    fn crash_and_summary() {
        let mut m = CoverageMap::new();
        assert_eq!(m.add_schedule_depth(2, 37), 1);
        assert_eq!(m.add_schedule_depth(2, 63), 0, "same magnitude");
        assert_eq!(m.add_crash_run(2, 5, true, false, 3), 1);
        assert_eq!(m.add_crash_run(2, 5, false, false, 3), 1);
        assert_eq!(m.add_crash_run(2, 4, true, false, 2), 0, "same buckets");
        let s = m.summary();
        assert!(s.starts_with("points=3"), "{s}");
        assert!(s.contains("crash=3") && s.contains("trace=0"), "{s}");
        let counts = m.domain_counts();
        assert_eq!(counts[CoverageDomain::Crash as usize], 3);
    }

    #[test]
    fn state_features_cover_watermark_regions() {
        use crate::snapshot::{BufferSnap, FsSnapshot};
        let snap = |free| FsSnapshot {
            buffer: Some(BufferSnap {
                capacity_blocks: 64,
                free_blocks: free,
                low_blocks: 8,
                high_blocks: 16,
                ..BufferSnap::default()
            }),
            ..FsSnapshot::default()
        };
        let mut m = CoverageMap::new();
        let above = m.add_state(0, &snap(32));
        assert!(above > 0);
        // Same region again: nothing new.
        assert_eq!(m.add_state(0, &snap(40)), 0);
        // Crossing under Low_f is a new state class.
        assert!(m.add_state(0, &snap(4)) > 0);
        assert!(m.add_state(0, &snap(12)) > 0, "between the watermarks");
    }
}
