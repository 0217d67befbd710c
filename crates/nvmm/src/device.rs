//! The emulated NVMM device.
//!
//! [`NvmmDevice`] is a flat byte array that charges model costs for every
//! access, mirroring the paper's DRAM-backed emulator:
//!
//! - [`NvmmDevice::read`] copies at DRAM speed (plus the optional NVMM read
//!   surcharge, zero by default).
//! - [`NvmmDevice::write_persist`] models a non-temporal (`*_nocache`) copy:
//!   the data is durable on return and every touched cacheline pays the
//!   NVMM write latency through the bandwidth gate.
//! - [`NvmmDevice::write_cached`] is a regular store: DRAM cost only, not
//!   durable until [`NvmmDevice::clflush`] persists the touched lines.
//!
//! Devices created with [`NvmmDevice::new_tracked`] also maintain a
//! persistent shadow image so tests can call [`NvmmDevice::crash`] and
//! exercise recovery paths against exactly the bytes that would have
//! survived a power failure.

use std::sync::Arc;

use obsv::{ContentionTable, Phase, Site, SpanTable, TrackedMutex, TrackedRwLock};

use crate::crash::Shadow;
use crate::fault::{self, BoundaryKind, FaultHook};
use crate::ledger::Cat;
use crate::stats::DeviceStats;
use crate::time::SimEnv;
use crate::{lines_touched, BLOCK_SIZE, CACHELINE};

/// A byte-addressable emulated NVMM device.
#[derive(Debug)]
pub struct NvmmDevice {
    env: Arc<SimEnv>,
    mem: TrackedRwLock<Box<[u8]>>,
    shadow: Option<TrackedMutex<Shadow>>,
    stats: DeviceStats,
    fault: Arc<FaultHook>,
    spans: Arc<SpanTable>,
    len: usize,
}

/// Phase a device *read* charges, by traffic category: journal undo-image
/// reads stay in [`Phase::Journal`], metadata reads in [`Phase::Index`],
/// everything else (user reads, CLFW fetches, writeback reads) is an
/// NVMM→DRAM copy.
fn read_phase(cat: Cat) -> Phase {
    match cat {
        Cat::Journal => Phase::Journal,
        Cat::Meta => Phase::Index,
        _ => Phase::NvmmCopy,
    }
}

/// Phase a durable store (persist / flush) charges, by category.
fn persist_phase(cat: Cat) -> Phase {
    match cat {
        Cat::Journal => Phase::Journal,
        Cat::Meta => Phase::Index,
        _ => Phase::Persist,
    }
}

/// Phase a cached (volatile) store charges, by category.
fn cached_phase(cat: Cat) -> Phase {
    match cat {
        Cat::Journal => Phase::Journal,
        Cat::Meta => Phase::Index,
        _ => Phase::DramCopy,
    }
}

impl NvmmDevice {
    /// Creates an untracked device of `len` bytes (no crash simulation;
    /// `clflush` assumes every line in the range is dirty).
    pub fn new(env: Arc<SimEnv>, len: usize) -> Arc<Self> {
        Self::build(env, len, false)
    }

    /// Creates a device that tracks its persistence domain, enabling
    /// [`NvmmDevice::crash`]. Uses twice the memory of an untracked device.
    pub fn new_tracked(env: Arc<SimEnv>, len: usize) -> Arc<Self> {
        Self::build(env, len, true)
    }

    fn build(env: Arc<SimEnv>, len: usize, tracked: bool) -> Arc<Self> {
        assert!(len > 0, "device must not be empty");
        assert_eq!(len % CACHELINE, 0, "device length must be line-aligned");
        let contention = env.contention().clone();
        Arc::new(NvmmDevice {
            mem: TrackedRwLock::attached(
                &contention,
                Site::NvmmDevice,
                vec![0u8; len].into_boxed_slice(),
            ),
            shadow: tracked
                .then(|| TrackedMutex::attached(&contention, Site::NvmmShadow, Shadow::new(len))),
            env,
            stats: DeviceStats::new(),
            fault: FaultHook::new(),
            spans: Arc::new(SpanTable::new()),
            len,
        })
    }

    /// The lock-contention and stall profiler of this device's machine
    /// (the environment's table).
    pub fn contention(&self) -> &Arc<ContentionTable> {
        self.env.contention()
    }

    /// The per-op × per-phase span matrix every access to this device
    /// charges into. Disabled by default (one relaxed load per hook);
    /// file systems mounted on the device share this table so their
    /// software-side phases land in the same matrix.
    pub fn spans(&self) -> &Arc<SpanTable> {
        &self.spans
    }

    /// The fault-injection hook of this device. Installing a
    /// [`fault::FaultPlan`] turns every durable store into an observed
    /// persistence boundary; with no plan the hook costs one relaxed load.
    pub fn fault_hook(&self) -> &Arc<FaultHook> {
        &self.fault
    }

    /// Reports a persistence boundary to the installed fault plan, if any.
    /// Called after the store's effect (memory + shadow + cost) is applied,
    /// so a crash fired here models power loss *just after* the store.
    #[inline]
    fn fault_boundary(&self, kind: BoundaryKind, off: u64, lines: usize) {
        if let Some(plan) = self.fault.plan() {
            plan.on_boundary(kind, off, lines, self.env.now());
        }
    }

    /// Device capacity in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the device has zero capacity (never true; see [`Self::new`]).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The simulation environment this device charges time to.
    pub fn env(&self) -> &Arc<SimEnv> {
        &self.env
    }

    /// Traffic counters for this device.
    pub fn stats(&self) -> &DeviceStats {
        &self.stats
    }

    /// Whether this device tracks its persistence domain.
    pub fn is_tracked(&self) -> bool {
        self.shadow.is_some()
    }

    fn check(&self, off: u64, len: usize) {
        assert!(
            (off as usize)
                .checked_add(len)
                .is_some_and(|end| end <= self.len),
            "device access out of bounds: off={off} len={len} cap={}",
            self.len
        );
    }

    /// Reads `buf.len()` bytes at `off` into `buf`, charging DRAM copy cost
    /// (and the NVMM read surcharge, zero by default) to `cat`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, cat: Cat, off: u64, buf: &mut [u8]) {
        self.spans.scope(
            read_phase(cat),
            || self.env.now(),
            || {
                self.check(off, buf.len());
                {
                    let mem = self.mem.read();
                    buf.copy_from_slice(&mem[off as usize..off as usize + buf.len()]);
                }
                self.stats.add_read(buf.len() as u64);
                self.env.charge_dram_copy(cat, buf.len());
                let extra = self.env.cost().nvmm_read_extra_ns;
                if extra > 0 {
                    self.env
                        .charge(cat, extra * lines_touched(off, buf.len()) as u64);
                }
            },
        )
    }

    /// Writes `data` at `off` with non-temporal stores: durable on return.
    /// Charges the DRAM copy plus the NVMM persist latency (through the
    /// bandwidth gate) to `cat`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_persist(&self, cat: Cat, off: u64, data: &[u8]) {
        self.spans.scope(
            persist_phase(cat),
            || self.env.now(),
            || {
                self.check(off, data.len());
                {
                    let mut mem = self.mem.write();
                    mem[off as usize..off as usize + data.len()].copy_from_slice(data);
                    if let Some(shadow) = &self.shadow {
                        shadow.lock().persist_now(&mem, off, data.len());
                    }
                }
                let lines = lines_touched(off, data.len());
                self.stats.add_written((lines * CACHELINE) as u64);
                obsv::note_persisted((lines * CACHELINE) as u64);
                self.env.charge_dram_copy(cat, data.len());
                self.env.nvmm_persist(cat, lines);
                self.fault_boundary(BoundaryKind::Persist, off, lines);
            },
        )
    }

    /// Writes `data` at `off` with regular (cached) stores: *not* durable
    /// until the touched lines are flushed. Charges DRAM copy cost only.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write_cached(&self, cat: Cat, off: u64, data: &[u8]) {
        self.spans.scope(
            cached_phase(cat),
            || self.env.now(),
            || {
                self.check(off, data.len());
                {
                    let mut mem = self.mem.write();
                    mem[off as usize..off as usize + data.len()].copy_from_slice(data);
                    if let Some(shadow) = &self.shadow {
                        shadow.lock().mark_range(off, data.len());
                    }
                }
                self.stats.add_cached_store(data.len() as u64);
                self.env.charge_dram_copy(cat, data.len());
            },
        )
    }

    /// Flushes the cachelines covering `[off, off+len)` to the persistence
    /// domain. On a tracked device only the lines actually pending are
    /// persisted and charged; untracked devices charge every line in the
    /// range (callers flush exactly what they wrote).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn clflush(&self, cat: Cat, off: u64, len: usize) {
        self.check(off, len);
        if len == 0 {
            return;
        }
        self.spans.scope(
            persist_phase(cat),
            || self.env.now(),
            || {
                let lines = match &self.shadow {
                    Some(shadow) => {
                        let mem = self.mem.read();
                        shadow.lock().flush_range(&mem, off, len)
                    }
                    None => lines_touched(off, len),
                };
                if lines == 0 {
                    return;
                }
                self.stats.add_flush_lines(lines as u64);
                self.stats.add_written((lines * CACHELINE) as u64);
                obsv::note_persisted((lines * CACHELINE) as u64);
                self.env.nvmm_persist(cat, lines);
                self.fault_boundary(BoundaryKind::Flush, off, lines);
            },
        )
    }

    /// Issues a store fence (ordering point).
    pub fn sfence(&self) {
        self.spans.scope(
            Phase::Fence,
            || self.env.now(),
            || {
                self.stats.add_fence();
                obsv::note_fence(1);
                self.env.charge_fence();
                self.fault_boundary(BoundaryKind::Fence, 0, 0);
            },
        )
    }

    /// Issues one store fence standing in for `n` logical ordering points
    /// (group commit): the batch pays a single fence latency while the
    /// `n - 1` folded ordering points stay visible in the stats so fence
    /// accounting remains auditable.
    pub fn sfence_coalesced(&self, n: u64) {
        self.spans.scope(
            Phase::Fence,
            || self.env.now(),
            || {
                self.stats.add_fence();
                if n > 1 {
                    self.stats.add_fences_coalesced(n - 1);
                }
                obsv::note_fence(n.max(1));
                self.env.charge_fence();
                self.fault_boundary(BoundaryKind::Fence, 0, 0);
            },
        )
    }

    /// Writes zeroes over `[off, off+len)` with non-temporal stores.
    pub fn zero_persist(&self, cat: Cat, off: u64, len: usize) {
        self.check(off, len);
        if len == 0 {
            return;
        }
        self.spans.scope(
            persist_phase(cat),
            || self.env.now(),
            || {
                let mut mem = self.mem.write();
                mem[off as usize..off as usize + len].fill(0);
                if let Some(shadow) = &self.shadow {
                    shadow.lock().persist_now(&mem, off, len);
                }
                drop(mem);
                let lines = lines_touched(off, len);
                self.stats.add_written((lines * CACHELINE) as u64);
                obsv::note_persisted((lines * CACHELINE) as u64);
                self.env.charge_dram_copy(cat, len);
                self.env.nvmm_persist(cat, lines);
                self.fault_boundary(BoundaryKind::Persist, off, lines);
            },
        )
    }

    /// Reads a little-endian `u64` at `off` (must not straddle a cacheline,
    /// which is what makes the hardware access atomic).
    pub fn read_u64(&self, cat: Cat, off: u64) -> u64 {
        assert_eq!(off % 8, 0, "u64 access must be 8-byte aligned");
        let mut b = [0u8; 8];
        self.read(cat, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Scans the `n` little-endian `u64` words at `off` (at most one
    /// block's worth) and calls `f(i, w)` for every nonzero word `w` at
    /// index `i`, ascending.
    ///
    /// The words are copied once, under one lock hold, but the model
    /// charges exactly what `n` calls of [`Self::read_u64`] would: right
    /// before each callback, the reads since the previous nonzero word up
    /// to and including word `i` are charged, and the reads after the last
    /// one are charged at the end. The clock therefore reads the same at
    /// every callback as in a word-at-a-time scan. `f` sees the words as
    /// they were at the copy, so it may write the scanned range.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not 8-byte aligned, `n` exceeds a block's worth
    /// of words, or the range is out of bounds.
    pub fn for_each_nonzero_u64(
        &self,
        cat: Cat,
        off: u64,
        n: usize,
        mut f: impl FnMut(usize, u64),
    ) {
        assert_eq!(off % 8, 0, "u64 access must be 8-byte aligned");
        assert!(n <= BLOCK_SIZE / 8, "scan of {n} words exceeds a block");
        self.check(off, n * 8);
        let mut words = [0u64; BLOCK_SIZE / 8];
        {
            let mem = self.mem.read();
            let src = &mem[off as usize..off as usize + n * 8];
            for (w, b) in words.iter_mut().zip(src.chunks_exact(8)) {
                *w = u64::from_le_bytes(b.try_into().unwrap());
            }
        }
        let mut charged = 0;
        for (i, &w) in words[..n].iter().enumerate() {
            if w != 0 {
                self.charge_word_reads(cat, i + 1 - charged);
                charged = i + 1;
                f(i, w);
            }
        }
        self.charge_word_reads(cat, n - charged);
    }

    /// Charges `k` aligned single-word reads as one span: what `k` calls
    /// of [`Self::read_u64`] charge, summed.
    fn charge_word_reads(&self, cat: Cat, k: usize) {
        if k == 0 {
            return;
        }
        self.spans.scope(
            read_phase(cat),
            || self.env.now(),
            || {
                self.stats.add_read(8 * k as u64);
                let cost = self.env.cost();
                let per_word = cost.dram_copy_ns(8) + cost.nvmm_read_extra_ns;
                self.env.charge(cat, per_word * k as u64);
            },
        )
    }

    /// Atomically persists a little-endian `u64` at `off` (8-byte aligned,
    /// hence within one cacheline; the paper's 8-byte atomic update).
    pub fn write_u64_persist(&self, cat: Cat, off: u64, v: u64) {
        assert_eq!(off % 8, 0, "u64 access must be 8-byte aligned");
        self.write_persist(cat, off, &v.to_le_bytes());
    }

    /// Simulates power loss and restart: the volatile image is replaced by
    /// the persistent one.
    ///
    /// # Panics
    ///
    /// Panics if the device was not created with [`NvmmDevice::new_tracked`].
    pub fn crash(&self) {
        let shadow = self
            .shadow
            .as_ref()
            .expect("crash simulation requires a tracked device");
        let mut mem = self.mem.write();
        shadow.lock().crash_into(&mut mem);
    }

    /// Simulates power loss with a *partial* cache eviction: each pending
    /// cacheline independently survives (persists) or is lost, decided by a
    /// deterministic function of `seed` and the line number. Models the
    /// arbitrary order in which dirty cachelines leave a real cache before
    /// the power actually dies, producing torn multi-line states that a
    /// clean [`NvmmDevice::crash`] never shows. Returns how many pending
    /// lines survived.
    ///
    /// # Panics
    ///
    /// Panics if the device was not created with [`NvmmDevice::new_tracked`].
    pub fn crash_partial(&self, seed: u64) -> usize {
        let shadow = self
            .shadow
            .as_ref()
            .expect("crash simulation requires a tracked device");
        let mut mem = self.mem.write();
        shadow
            .lock()
            .crash_into_partial(&mut mem, |line| fault::mix(seed, line as u64) & 1 == 0)
    }

    /// Number of cachelines whose latest content has not been persisted.
    /// Zero for untracked devices.
    pub fn pending_lines(&self) -> usize {
        self.shadow.as_ref().map_or(0, |s| s.lock().pending_lines())
    }

    /// Cost-free read for tests and assertions.
    pub fn peek(&self, off: u64, buf: &mut [u8]) {
        self.check(off, buf.len());
        let mem = self.mem.read();
        buf.copy_from_slice(&mem[off as usize..off as usize + buf.len()]);
    }

    /// Cost-free durable write for test setup.
    pub fn poke(&self, off: u64, data: &[u8]) {
        self.check(off, data.len());
        let mut mem = self.mem.write();
        mem[off as usize..off as usize + data.len()].copy_from_slice(data);
        if let Some(shadow) = &self.shadow {
            shadow.lock().persist_now(&mem, off, data.len());
        }
    }
}

impl obsv::Introspect for NvmmDevice {
    fn snapshot(&self) -> obsv::FsSnapshot {
        let s = self.stats.snapshot();
        let led = crate::ledger::snapshot();
        obsv::FsSnapshot {
            system: "nvmm".into(),
            at_ns: self.env.now(),
            device: Some(obsv::DeviceSnap {
                capacity_bytes: self.len as u64,
                bytes_written: s.nvmm_bytes_written,
                bytes_read: s.nvmm_bytes_read,
                flush_lines: s.flush_lines,
                fences: s.fences,
                cached_store_bytes: s.cached_store_bytes,
                ledger_ns: crate::ledger::ALL_CATS
                    .iter()
                    .map(|&c| (c.label().to_string(), led.get(c)))
                    .collect(),
                ledger_total_ns: led.total(),
            }),
            ..obsv::FsSnapshot::default()
        }
    }

    fn audit(&self) -> obsv::AuditReport {
        let mut rep = obsv::AuditReport::new(self.env.now());
        let s = self.stats.snapshot();
        // device.accounting: the media only accepts whole cachelines, so the
        // persisted-byte counter must stay line-aligned.
        rep.check_eq(13, 0, 0, s.nvmm_bytes_written % CACHELINE as u64, 0);
        rep
    }
}

impl obsv::MetricSource for NvmmDevice {
    fn collect(&self, out: &mut dyn obsv::Visitor) {
        obsv::MetricSource::collect(&self.stats, out);
        out.gauge("nvmm_capacity_bytes", self.len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::ledger;

    fn dev() -> Arc<NvmmDevice> {
        NvmmDevice::new_tracked(SimEnv::new_virtual(CostModel::default()), 1 << 16)
    }

    #[test]
    fn write_persist_roundtrip() {
        let d = dev();
        d.write_persist(Cat::UserWrite, 100, b"hello");
        let mut buf = [0u8; 5];
        d.read(Cat::UserRead, 100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn cached_write_lost_on_crash_until_flushed() {
        let d = dev();
        d.write_cached(Cat::Journal, 0, b"volatile");
        d.write_cached(Cat::Journal, 4096, b"flushed");
        d.clflush(Cat::Journal, 4096, 7);
        d.crash();
        let mut buf = [0u8; 8];
        d.peek(0, &mut buf);
        assert_eq!(&buf, &[0u8; 8], "unflushed line must not survive");
        let mut buf = [0u8; 7];
        d.peek(4096, &mut buf);
        assert_eq!(&buf, b"flushed");
    }

    #[test]
    fn persist_survives_crash() {
        let d = dev();
        d.write_persist(Cat::UserWrite, 64, b"durable");
        d.crash();
        let mut buf = [0u8; 7];
        d.peek(64, &mut buf);
        assert_eq!(&buf, b"durable");
    }

    #[test]
    fn stats_count_line_granularity() {
        let d = dev();
        let before = d.stats().snapshot();
        // 5 bytes at offset 62 touch two lines -> 128 media bytes.
        d.write_persist(Cat::UserWrite, 62, &[1, 2, 3, 4, 5]);
        let delta = d.stats().snapshot().since(&before);
        assert_eq!(delta.nvmm_bytes_written, 128);
    }

    #[test]
    fn clflush_only_charges_pending_lines() {
        let d = dev();
        ledger::reset();
        d.env().set_now(0);
        d.write_cached(Cat::Journal, 0, &[1u8; 64]);
        // Flush a 4 KiB range: only the one dirty line persists.
        let before = d.stats().snapshot();
        d.clflush(Cat::Journal, 0, 4096);
        let delta = d.stats().snapshot().since(&before);
        assert_eq!(delta.flush_lines, 1);
        assert_eq!(delta.nvmm_bytes_written, 64);
        // Second flush is a no-op.
        d.clflush(Cat::Journal, 0, 4096);
        assert_eq!(d.stats().snapshot().since(&before).flush_lines, 1);
    }

    #[test]
    fn virtual_time_advances_with_persist() {
        let d = dev();
        d.env().set_now(0);
        d.write_persist(Cat::UserWrite, 0, &[0u8; 4096]);
        let cost = d.env().cost();
        let expect = cost.dram_copy_ns(4096) + cost.nvmm_persist_ns(64);
        assert_eq!(d.env().now(), expect);
    }

    #[test]
    fn read_does_not_pay_nvmm_latency() {
        let d = dev();
        d.env().set_now(0);
        let mut buf = [0u8; 4096];
        d.read(Cat::UserRead, 0, &mut buf);
        assert_eq!(d.env().now(), d.env().cost().dram_copy_ns(4096));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_read_panics() {
        let d = dev();
        let mut buf = [0u8; 8];
        d.read(Cat::UserRead, (1 << 16) - 4, &mut buf);
    }

    #[test]
    fn u64_atomic_roundtrip() {
        let d = dev();
        d.write_u64_persist(Cat::Meta, 128, 0xdead_beef_cafe_f00d);
        assert_eq!(d.read_u64(Cat::Meta, 128), 0xdead_beef_cafe_f00d);
        d.crash();
        assert_eq!(d.read_u64(Cat::Meta, 128), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn nonzero_scan_charges_like_word_reads() {
        let cost = CostModel {
            dram_ns_per_kib: 100,
            nvmm_read_extra_ns: 7,
            ..CostModel::default()
        };
        // Scans two nodes (a sparse one ending in a nonzero word, and an
        // all-zero one) either with the primitive or word by word; the
        // callback persists through a saturated gate, so any shift in the
        // time it runs at would move its queueing.
        let run = |primitive: bool| {
            let d = NvmmDevice::new_tracked(SimEnv::new_virtual(cost.clone()), 1 << 16);
            for i in [0u64, 3, 4, 200, 511] {
                d.poke(4096 + i * 8, &(0x1111 * (i + 1)).to_le_bytes());
            }
            d.spans().set_enabled(true);
            ledger::reset();
            d.env().set_now(0);
            d.env().gate().admit_lines(0, 0, 3_000);
            let before = d.stats().snapshot();
            let mut seen = Vec::new();
            let mut cb = |i: usize, w: u64| {
                seen.push((i, w, d.env().now()));
                d.write_persist(Cat::Meta, 8192 + i as u64 * 64, &[1u8; 256]);
            };
            for (off, n) in [(4096u64, 512usize), (12288, 100)] {
                if primitive {
                    d.for_each_nonzero_u64(Cat::Meta, off, n, &mut cb);
                } else {
                    for i in 0..n {
                        let w = d.read_u64(Cat::Meta, off + i as u64 * 8);
                        if w != 0 {
                            cb(i, w);
                        }
                    }
                }
            }
            let read = d.stats().snapshot().since(&before).nvmm_bytes_read;
            (
                d.env().now(),
                ledger::snapshot(),
                read,
                d.spans().snapshot().ns,
                seen,
            )
        };
        let scanned = run(true);
        assert_eq!(scanned.4.len(), 5);
        assert_eq!(scanned.2, 612 * 8);
        assert_eq!(scanned, run(false));
    }

    #[test]
    fn zero_persist_clears_range() {
        let d = dev();
        d.write_persist(Cat::UserWrite, 0, &[0xff; 256]);
        d.zero_persist(Cat::Meta, 0, 256);
        let mut buf = [0u8; 256];
        d.peek(0, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
    }

    #[test]
    fn spans_attribute_device_time_by_phase() {
        let d = dev();
        d.env().set_now(0);
        ledger::reset();
        d.spans().set_enabled(true);
        let t0 = d.env().now();
        d.write_persist(Cat::UserWrite, 0, &[7u8; 4096]);
        d.sfence();
        let mut buf = [0u8; 4096];
        d.read(Cat::UserRead, 0, &mut buf);
        d.write_persist(Cat::Journal, 8192, &[1u8; 64]);
        let elapsed = d.env().now() - t0;
        let s = d.spans().snapshot();
        // No op context -> the background row; every charged nanosecond
        // lands in exactly one phase and the matrix sums to elapsed time.
        assert!(s.ns[obsv::BG_ROW][Phase::Persist as usize] > 0);
        assert!(s.ns[obsv::BG_ROW][Phase::Fence as usize] > 0);
        assert!(s.ns[obsv::BG_ROW][Phase::NvmmCopy as usize] > 0);
        assert!(s.ns[obsv::BG_ROW][Phase::Journal as usize] > 0);
        assert_eq!(s.grand_total(), elapsed);
        // Disabled table stays silent.
        d.spans().set_enabled(false);
        let before = d.spans().snapshot();
        d.sfence();
        assert_eq!(d.spans().snapshot(), before);
    }

    #[test]
    fn untracked_device_charges_full_range() {
        let env = SimEnv::new_virtual(CostModel::default());
        let d = NvmmDevice::new(env, 1 << 16);
        assert!(!d.is_tracked());
        let before = d.stats().snapshot();
        d.clflush(Cat::Journal, 0, 4096);
        assert_eq!(d.stats().snapshot().since(&before).flush_lines, 64);
    }
}
