//! Background writeback: flushing, eviction and the reclaim policy
//! (paper §3.2).
//!
//! Dirty DRAM blocks are written back to NVMM at cacheline granularity
//! (CLFW) by:
//!
//! - the **reclaim path**, woken when free blocks drop below `Low_f`,
//!   evicting LRW victims until `High_f` is reached;
//! - the **periodic pass** (every 5 s), which also flushes any dirty block
//!   last written more than 30 s ago;
//! - **foreground stalls**: when the pool is exhausted before background
//!   writeback catches up, the writing thread flushes a victim itself and
//!   pays for it (the cost `Low_f` exists to avoid);
//! - **fsync**, which flushes the file's blocks on the caller's clock.
//!
//! In spin mode these run on real threads; in virtual mode they run as a
//! deterministic *writeback actor* whose own clock advances independently
//! of the foreground (see [`WbCtl`]).

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use fskit::{FsError, Result};
use nvmm::{Cat, TimeMode, CACHELINE};
use obsv::{ContentionTable, DrainKind, Site, TraceEvent, TrackedCondvar, TrackedMutex};
use pmfs::inode::InodeMem;
use pmfs::Layout;

use crate::buffer::{runs, Shared};
use crate::fs::Hinfs;
use crate::stats::HinfsStats;
use crate::tracker;

/// Control state of the writeback machinery.
#[derive(Debug)]
pub struct WbCtl {
    /// The writeback actor's virtual clock (virtual mode only).
    pub(crate) clock: AtomicU64,
    /// Last periodic pass, in simulated ns.
    pub(crate) last_periodic: AtomicU64,
    pub(crate) stop: AtomicBool,
    pub(crate) kick_flag: TrackedMutex<bool>,
    pub(crate) kick_cv: TrackedCondvar,
    pub(crate) threads: TrackedMutex<Vec<JoinHandle<()>>>,
}

impl WbCtl {
    pub(crate) fn new() -> WbCtl {
        WbCtl {
            clock: AtomicU64::new(0),
            last_periodic: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            kick_flag: TrackedMutex::new(Site::HinfsWriteback, false),
            kick_cv: TrackedCondvar::new(),
            threads: TrackedMutex::new(Site::HinfsWriteback, Vec::new()),
        }
    }

    /// Wires the control locks to the machine's contention profiler
    /// (first caller wins). `Hinfs::wrap` calls this at mount.
    pub(crate) fn attach_contention(&self, table: &Arc<ContentionTable>) {
        self.kick_flag.attach(table);
        self.threads.attach(table);
    }
}

/// Outcome of one flush attempt under the shared lock.
pub(crate) enum FlushTry {
    /// Flushed (or already clean).
    Done,
    /// The block maps to a hole; flushing needs the owner inode's lock.
    NeedsInode(u64),
}

impl Hinfs {
    /// Writes one buffered block's dirty lines to NVMM. Caller holds the
    /// shared lock; `state` supplies the owner inode when available. When
    /// the block covers a file hole and `state` is `None`, returns
    /// [`FlushTry::NeedsInode`] without side effects.
    ///
    /// `kind` classifies the drain for lineage: [`DrainKind::Sync`] when
    /// the flush runs inside a synchronization the caller asked for
    /// (fsync, O_SYNC eviction, sync/unmount), [`DrainKind::Lazy`] when
    /// the writeback machinery flushes behind the caller's back.
    pub(crate) fn flush_slot_locked(
        &self,
        sh: &mut Shared,
        slot: u32,
        state: Option<&mut InodeMem>,
        kind: DrainKind,
    ) -> Result<FlushTry> {
        let meta = *sh.pool().meta(slot);
        if meta.dirty == 0 {
            return Ok(FlushTry::Done);
        }
        let dev = self.inner.device();
        let pblk = if meta.nvmm_block != 0 {
            meta.nvmm_block
        } else {
            // Resolve or allocate the NVMM block.
            let looked_up = state
                .as_deref()
                .and_then(|st| pmfs::tree::lookup(dev, st, meta.iblk));
            match looked_up {
                Some(p) => p,
                None => {
                    let Some(st) = state else {
                        return Ok(FlushTry::NeedsInode(meta.ino));
                    };
                    // Allocate on flush: fresh block. Zero the clean lines
                    // a reader could reach (up to end of file); lines fully
                    // beyond EOF are unreachable and the write path zeroes
                    // them explicitly if the file later grows over them —
                    // this is what keeps CLFW's NVMM write traffic at
                    // dirty-line granularity (Fig 9b).
                    let p = self.inner.allocator().alloc()?;
                    let base = Layout::block_off(p);
                    let in_file = st
                        .size
                        .saturating_sub(meta.iblk * nvmm::BLOCK_SIZE as u64)
                        .min(nvmm::BLOCK_SIZE as u64) as usize;
                    let readable = crate::buffer::range_mask(0, in_file);
                    for (start, n) in runs(readable & !meta.dirty) {
                        dev.zero_persist(
                            Cat::Writeback,
                            base + start as u64 * CACHELINE as u64,
                            n as usize * CACHELINE,
                        );
                    }
                    pmfs::tree::insert(dev, self.inner.allocator(), st, meta.iblk, p)?;
                    st.blocks += 1;
                    // Persist the new tree root and block count through the
                    // ordered FIFO. Flushing must make progress even under
                    // journal pressure (it is the pressure-relief path), so
                    // a full ring only defers the inode log: the file is
                    // marked and fsync/sync/unmount log it once the ring
                    // has drained.
                    let mut logged = false;
                    if let Ok(tx) = self.inner.journal().begin() {
                        match self.inner.log_write_inode(&tx, meta.ino, st) {
                            Ok(()) => {
                                tracker::enqueue(
                                    sh.file_mut(meta.ino),
                                    tx,
                                    HashSet::new(),
                                    self.obs
                                        .lineage()
                                        .stamp(self.env.now(), self.obs.trace.emitted()),
                                    &self.stats,
                                );
                                logged = true;
                            }
                            // Ring too full even for two undo entries:
                            // resolve the empty transaction.
                            Err(_) => self.inner.journal().commit(tx),
                        }
                    }
                    // A logged core carries every earlier tree change too.
                    sh.file_mut(meta.ino).inode_unlogged = !logged;
                    p
                }
            }
        };
        // Write the dirty runs (CLFW: only dirty cachelines move).
        let base = Layout::block_off(pblk);
        for (start, n) in runs(meta.dirty) {
            let b = start as usize * CACHELINE;
            let data = &sh.pool().block(slot)[b..b + n as usize * CACHELINE];
            dev.write_persist(Cat::Writeback, base + b as u64, data);
        }
        dev.sfence();
        HinfsStats::bump(&self.stats.writeback_lines, meta.dirty.count_ones() as u64);
        HinfsStats::bump(&self.stats.writeback_blocks, 1);
        {
            let m = sh.pool_mut().meta_mut(slot);
            m.dirty = 0;
            m.nvmm_block = pblk;
        }
        sh.dirty_blocks -= 1;
        // The flush retires the block's ack stamp: record the durability
        // lag and put the causal link on the trace ring (the drained
        // event carries the origin op's seq window).
        let lin = self.obs.lineage();
        if lin.enabled() {
            let drained = meta.dirty.count_ones() as u64 * CACHELINE as u64;
            let now = self.env.now();
            let lag = lin.record_drain(&meta.stamp, kind, now, drained);
            let seq_hi = self.obs.trace.emitted();
            self.obs.trace.emit(now, || TraceEvent::LineageDrained {
                row: meta.stamp.row as u64,
                lazy: kind == DrainKind::Lazy,
                bytes: drained,
                lag_ns: lag,
                seq_lo: meta.stamp.seq,
                seq_hi,
            });
        }
        tracker::note_flushed(
            sh.file_mut(meta.ino),
            self.inner.journal(),
            meta.iblk,
            lin,
            kind,
            self.env.now(),
            &self.stats,
        );
        Ok(FlushTry::Done)
    }

    /// Flushes (if dirty) and releases a slot, dropping it from its file's
    /// DRAM Block Index. Same `state` contract as [`Self::flush_slot_locked`].
    pub(crate) fn evict_slot_locked(
        &self,
        sh: &mut Shared,
        slot: u32,
        state: Option<&mut InodeMem>,
        kind: DrainKind,
    ) -> Result<FlushTry> {
        if let FlushTry::NeedsInode(ino) = self.flush_slot_locked(sh, slot, state, kind)? {
            return Ok(FlushTry::NeedsInode(ino));
        }
        let meta = *sh.pool().meta(slot);
        if let Some(file) = sh.files.get_mut(&meta.ino) {
            file.index.remove(meta.iblk);
        }
        sh.pool_mut().release_slot(slot);
        Ok(FlushTry::Done)
    }

    /// Reclaims LRW victims until `target_free` blocks are free, bracketing
    /// the pass with trace events when tracing is on.
    ///
    /// `own` lends the caller's already-locked inode so its own blocks can
    /// be flushed without re-locking. `blocking` selects whether foreign
    /// inode locks may be waited on (background) or only tried
    /// (foreground stall path — waiting there could deadlock).
    pub(crate) fn reclaim(
        &self,
        target_free: usize,
        own: Option<(u64, &mut InodeMem)>,
        blocking: bool,
    ) {
        if !self.obs.trace.enabled() {
            self.reclaim_loop(target_free, own, blocking);
            return;
        }
        let free = self.shared.lock().pool().free_count() as u64;
        self.obs
            .trace
            .emit(self.env.now(), || obsv::TraceEvent::ReclaimBegin {
                free,
                target: target_free as u64,
            });
        let victims = self.reclaim_loop(target_free, own, blocking);
        let free = self.shared.lock().pool().free_count() as u64;
        self.obs
            .trace
            .emit(self.env.now(), || obsv::TraceEvent::ReclaimEnd {
                victims,
                free,
            });
    }

    /// The reclaim loop proper; returns the number of evicted victims.
    fn reclaim_loop(
        &self,
        target_free: usize,
        mut own: Option<(u64, &mut InodeMem)>,
        blocking: bool,
    ) -> u64 {
        let mut victims = 0;
        loop {
            // Victim order: from the LRW end, first every block that can be
            // evicted under the shared lock alone (clean, already backed by
            // an NVMM block, or the caller's own), then the foreign hole
            // blocks, whose flush needs the owner's inode lock. Evicting a
            // block changes no other block's class or position, so one
            // scan orders the whole pass; each victim is re-validated
            // because other threads may run in between.
            let order: Vec<(u32, u64, u64, bool)> = {
                let sh = self.shared.lock();
                if sh.pool().free_count() >= target_free {
                    return victims;
                }
                let pool = sh.pool();
                let own_ino = own.as_ref().map(|(ino, _)| *ino);
                let (ready, foreign): (Vec<_>, Vec<_>) = pool
                    .lrw
                    .iter_from_tail()
                    .map(|slot| {
                        let m = pool.meta(slot);
                        let needs_inode =
                            m.dirty != 0 && m.nvmm_block == 0 && Some(m.ino) != own_ino;
                        (slot, m.ino, m.iblk, needs_inode)
                    })
                    .partition(|v| !v.3);
                ready.into_iter().chain(foreign).collect()
            };
            let before = victims;
            for (slot, ino, iblk, needs_inode) in order {
                // A foreign hole block needs its owner's inode lock, taken
                // with the shared lock dropped (lock order: inode before
                // shared).
                let handle = match needs_inode.then(|| self.inner.inode(ino)) {
                    Some(Ok(h)) => Some(h),
                    Some(Err(_)) => continue, // raced with deletion
                    None => None,
                };
                let mut guard = match &handle {
                    Some(h) if blocking => Some(h.state.write()),
                    Some(h) => match h.state.try_write() {
                        Some(g) => Some(g),
                        None => {
                            // Foreground stall path: do not wait (deadlock
                            // risk); rescan — background writeback will
                            // handle it.
                            std::thread::yield_now();
                            break;
                        }
                    },
                    None => None,
                };
                let mut sh = self.shared.lock();
                if sh.pool().free_count() >= target_free {
                    return victims;
                }
                if sh.slot_of(ino, iblk) != Some(slot) {
                    continue;
                }
                let state = match guard.as_mut() {
                    Some(g) => Some(&mut **g),
                    None => own
                        .as_mut()
                        .filter(|(oino, _)| *oino == ino)
                        .map(|(_, st)| &mut **st),
                };
                // Pool-pressure eviction drains behind the ack: lazy.
                // Allocator exhaustion aborts the pass.
                match self.evict_slot_locked(&mut sh, slot, state, DrainKind::Lazy) {
                    Ok(FlushTry::Done) => victims += 1,
                    // Became a dirty hole block since the scan.
                    Ok(FlushTry::NeedsInode(_)) => {}
                    Err(_) => return victims,
                }
            }
            if victims == before {
                return victims; // no progress: nothing evictable is left
            }
        }
    }

    /// One full writeback pass at time `now` (on the caller's clock):
    /// watermark reclaim, then the 30 s dirty-age flush.
    pub(crate) fn wb_pass(&self, now: u64) {
        // Injected stall: the writeback actor simply makes no progress this
        // pass. Foreground paths must degrade gracefully (flush-on-demand
        // via fsync / pool-pressure reclaim in the write path still run).
        if nvmm::fault::writeback_stalled(self.inner.device()) {
            return;
        }
        // Background provenance: traffic of this pass lands in the bg row
        // (when an op's own reclaim runs inline, its frame stays owner).
        let _lin = self.obs.lineage().bg_scope();
        let free = self.shared.lock().pool().free_count();
        if free < self.cfg.low_blocks() {
            self.reclaim(self.cfg.high_blocks(), None, true);
        }
        // Age-based flush: the LRW list is ordered by last write, so the
        // candidates are the dirty blocks from the LRW end up to the first
        // block too young to flush. Flushing changes no block's age or
        // position, so one scan finds them all.
        let aged: Vec<(u32, u64, u64)> = {
            let sh = self.shared.lock();
            let pool = sh.pool();
            pool.lrw
                .iter_from_tail()
                .map(|slot| (slot, pool.meta(slot)))
                .take_while(|(_, m)| m.last_write_ns + self.cfg.dirty_age_ns <= now)
                .filter(|(_, m)| m.dirty != 0)
                .map(|(slot, m)| (slot, m.ino, m.iblk))
                .collect()
        };
        let mut age_flushed: u64 = 0;
        for (slot, ino, iblk) in aged {
            let mut sh = self.shared.lock();
            if sh.slot_of(ino, iblk) != Some(slot) || sh.pool().meta(slot).dirty == 0 {
                continue; // evicted or flushed since the scan
            }
            let done = match self.flush_slot_locked(&mut sh, slot, None, DrainKind::Lazy) {
                Ok(FlushTry::NeedsInode(_)) => {
                    drop(sh);
                    let Ok(handle) = self.inner.inode(ino) else {
                        continue;
                    };
                    let mut guard = handle.state.write();
                    let mut sh = self.shared.lock();
                    if sh.slot_of(ino, iblk) != Some(slot) {
                        continue;
                    }
                    self.flush_slot_locked(&mut sh, slot, Some(&mut guard), DrainKind::Lazy)
                }
                r => r,
            };
            match done {
                Ok(_) => age_flushed += 1,
                Err(_) => break,
            }
        }
        if age_flushed > 0 {
            self.obs
                .trace
                .emit(now, || obsv::TraceEvent::PeriodicPass { age_flushed });
        }
        // Periodic online audit: each background pass re-verifies the
        // index/bitmap/LRW invariants when the mount has auditing on.
        self.maybe_audit();
    }

    /// Virtual-mode hook: runs due background work on the writeback actor's
    /// clock (never the caller's).
    pub(crate) fn tick_virtual(&self, now: u64) {
        if self.env.mode() != TimeMode::Virtual {
            return;
        }
        let need_reclaim = self.shared.lock().pool().free_count() < self.cfg.low_blocks();
        let last = self.wb.last_periodic.load(Ordering::Relaxed);
        let periodic_due = now.saturating_sub(last) >= self.cfg.periodic_wb_ns;
        if !need_reclaim && !periodic_due {
            return;
        }
        if periodic_due {
            self.wb.last_periodic.store(now, Ordering::Relaxed);
        }
        // The writeback actor runs at most MAX_LEAD, and never more than
        // one wake-up period, ahead of the foreground: a real background
        // thread shares wall time with its producers, work it would only
        // reach after its next wake-up would already break the dirty-age
        // promise, and bounding the lead also re-anchors the actor after a
        // timeline rebase (env.rebase() moves the foreground back to 0).
        const MAX_LEAD: u64 = 20_000_000; // 20 ms
        let lead = MAX_LEAD.min(self.cfg.periodic_wb_ns);
        let wb_now = self.wb.clock.load(Ordering::Relaxed).clamp(now, now + lead);
        // The pass runs inline on the caller's thread but on the writeback
        // actor's own timeline: detach span attribution so its device time
        // lands in the background row, not in whichever op triggered it.
        let ((), end) = self
            .dev()
            .spans()
            .detached(|| self.env.with_now(wb_now, || self.wb_pass(wb_now)));
        self.wb.clock.store(end, Ordering::Relaxed);
    }

    /// Wakes the background threads (spin mode) or runs the actor
    /// (virtual mode).
    pub(crate) fn kick_background(&self, now: u64) {
        match self.env.mode() {
            TimeMode::Virtual => self.tick_virtual(now),
            TimeMode::Spin => {
                let mut flag = self.wb.kick_flag.lock();
                *flag = true;
                self.wb.kick_cv.notify_all();
            }
        }
    }

    /// Spawns the spin-mode writeback threads ("multiple independent kernel
    /// threads created at mount time").
    pub(crate) fn start_background(self: &Arc<Self>) {
        if self.env.mode() != TimeMode::Spin {
            return;
        }
        let mut threads = self.wb.threads.lock();
        for _ in 0..self.cfg.wb_threads.max(1) {
            let fs = Arc::clone(self);
            threads.push(std::thread::spawn(move || loop {
                {
                    let mut flag = fs.wb.kick_flag.lock();
                    if !*flag {
                        let timeout = std::time::Duration::from_nanos(fs.cfg.periodic_wb_ns);
                        fs.wb.kick_cv.wait_for(&mut flag, timeout);
                    }
                    *flag = false;
                }
                if fs.wb.stop.load(Ordering::Relaxed) {
                    return;
                }
                fs.wb_pass(fs.env.now());
            }));
        }
    }

    /// Stops and joins the background threads (unmount).
    pub(crate) fn stop_background(&self) {
        self.wb.stop.store(true, Ordering::Relaxed);
        {
            let mut flag = self.wb.kick_flag.lock();
            *flag = true;
            self.wb.kick_cv.notify_all();
        }
        let mut threads = self.wb.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Flushes every dirty buffered block of every file (sync/unmount) —
    /// a synchronization the caller asked for, so the drains are sync.
    pub(crate) fn flush_all(&self) -> Result<()> {
        self.flush_files(true, DrainKind::Sync)
    }

    /// Best-effort global flush that skips inodes whose locks are busy.
    /// Used to relieve journal pressure while a file lock is already held
    /// (blocking there could deadlock with another writer doing the same).
    /// Nobody asked for this data to become durable — the drains are lazy.
    pub(crate) fn flush_all_opportunistic(&self) {
        let _ = self.flush_files(false, DrainKind::Lazy);
    }

    fn flush_files(&self, blocking: bool, kind: DrainKind) -> Result<()> {
        // Flush order feeds the journal and the bandwidth-gate calendar;
        // HashMap order would make virtual time run-dependent.
        let mut inos: Vec<u64> = self.shared.lock().files.keys().copied().collect();
        inos.sort_unstable();
        for ino in inos {
            let Ok(handle) = self.inner.inode(ino) else {
                continue;
            };
            let guard = if blocking {
                Some(handle.state.write())
            } else {
                handle.state.try_write()
            };
            let Some(mut guard) = guard else {
                continue;
            };
            let mut sh = self.shared.lock();
            let slots: Vec<u32> = match sh.files.get(&ino) {
                Some(f) => {
                    let mut v = Vec::new();
                    f.index.for_each(&mut |_, s| v.push(*s));
                    v
                }
                None => continue,
            };
            for slot in slots {
                if sh.pool().meta(slot).dirty != 0 {
                    match self.flush_slot_locked(&mut sh, slot, Some(&mut guard), kind)? {
                        FlushTry::Done => {}
                        FlushTry::NeedsInode(_) => {
                            return Err(FsError::Corrupted("flush_all could not map block"))
                        }
                    }
                }
            }
            if let Some(file) = sh.files.get_mut(&ino) {
                // All blocks are clean: no pending entry may gate a commit.
                for t in &mut file.txs {
                    t.pending.clear();
                }
                tracker::drain_ready(
                    file,
                    self.inner.journal(),
                    self.obs.lineage(),
                    kind,
                    self.env.now(),
                    &self.stats,
                );
                debug_assert!(file.txs.is_empty(), "flush_all left open transactions");
            }
        }
        // Every file's ordered transactions are committed now, so the ring
        // has room for the inode cores a full journal kept a writeback
        // allocation from logging.
        let mut unlogged: Vec<u64> = self
            .shared
            .lock()
            .files
            .iter()
            .filter(|(_, f)| f.inode_unlogged)
            .map(|(&ino, _)| ino)
            .collect();
        unlogged.sort_unstable();
        for ino in unlogged {
            let Ok(handle) = self.inner.inode(ino) else {
                continue;
            };
            let guard = if blocking {
                Some(handle.state.write())
            } else {
                handle.state.try_write()
            };
            let Some(guard) = guard else {
                continue;
            };
            let res = self.log_unlogged_inode(ino, &guard);
            if blocking {
                res?;
            }
        }
        Ok(())
    }

    /// Journals `ino`'s inode core if a writeback allocation grew its
    /// block tree while the journal was full (see
    /// [`crate::buffer::FileBuf::inode_unlogged`]). Until this runs, the
    /// new tree root exists in DRAM only and the flushed blocks are
    /// unreachable after a remount. Caller holds the inode lock, not the
    /// pool lock, and no ordered transaction of the file is open.
    pub(crate) fn log_unlogged_inode(&self, ino: u64, state: &InodeMem) -> Result<()> {
        let unlogged = self
            .shared
            .lock()
            .files
            .get(&ino)
            .is_some_and(|f| f.inode_unlogged);
        if !unlogged {
            return Ok(());
        }
        let journal = self.inner.journal();
        let tx = journal.begin()?;
        if let Err(e) = self.inner.log_write_inode(&tx, ino, state) {
            journal.abort(tx);
            return Err(e);
        }
        journal.commit(tx);
        if let Some(file) = self.shared.lock().files.get_mut(&ino) {
            file.inode_unlogged = false;
        }
        Ok(())
    }

    /// Buffered dirty blocks (diagnostics).
    pub fn dirty_blocks(&self) -> usize {
        self.shared.lock().dirty_blocks
    }

    /// Free DRAM buffer blocks (diagnostics).
    pub fn free_buffer_blocks(&self) -> usize {
        self.shared.lock().pool().free_count()
    }

    /// Buffer capacity in blocks.
    pub fn buffer_capacity(&self) -> usize {
        self.shared.lock().pool().capacity()
    }
}
