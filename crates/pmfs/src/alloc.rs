//! Block allocator.
//!
//! Like PMFS, the allocator's bitmap lives in DRAM and is only *persisted*
//! on clean unmount (into the layout's bitmap region). After a crash the
//! bitmap is rebuilt at mount by walking the inode table and every file's
//! block tree, so block allocation never needs journaling — an allocated
//! but unreachable block simply returns to the free pool on recovery.

use fskit::{FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};
use obsv::{Site, TrackedMutex};

use crate::layout::Layout;

#[derive(Debug)]
struct Inner {
    /// One bit per device block; set = in use. Metadata blocks (below
    /// `data_start`) are always set.
    bitmap: Vec<u64>,
    free: u64,
    /// Next block to try (min-reset on free).
    hint: u64,
    data_start: u64,
    total_blocks: u64,
}

impl Inner {
    fn get(&self, b: u64) -> bool {
        self.bitmap[(b / 64) as usize] & (1 << (b % 64)) != 0
    }

    fn set(&mut self, b: u64) {
        self.bitmap[(b / 64) as usize] |= 1 << (b % 64);
    }

    fn clear(&mut self, b: u64) {
        self.bitmap[(b / 64) as usize] &= !(1 << (b % 64));
    }

    /// Lowest clear bit in `[from, to)`, skipping whole used words.
    fn first_free(&self, from: u64, to: u64) -> Option<u64> {
        let mut b = from;
        while b < to {
            let shift = b % 64;
            // The shift fills the top with zeros, so a run of ones reaching
            // them means the rest of the word is in use.
            let ones = (self.bitmap[(b / 64) as usize] >> shift).trailing_ones() as u64;
            if shift + ones < 64 {
                return Some(b + ones).filter(|&f| f < to);
            }
            b += 64 - shift;
        }
        None
    }
}

/// DRAM-resident block allocator over the data area: one free list (the
/// bitmap) behind one lock.
#[derive(Debug)]
pub struct Allocator {
    inner: TrackedMutex<Inner>,
    /// Device whose fault-injection hook is consulted on `alloc` (attached
    /// at mount; absent in unit tests that build the allocator bare).
    fault_dev: std::sync::OnceLock<std::sync::Arc<NvmmDevice>>,
}

impl Allocator {
    /// Creates an allocator with every data block free and every metadata
    /// block (superblock, journal, inode table, bitmap image) in use.
    pub fn new_empty(layout: &Layout) -> Allocator {
        Allocator::from_bits(layout, |_| false)
    }

    /// Builds the allocator, marking data block `b` used when `used(b)`.
    fn from_bits(layout: &Layout, used: impl Fn(u64) -> bool) -> Allocator {
        let mut inner = Inner {
            bitmap: vec![0u64; (layout.total_blocks as usize).div_ceil(64)],
            free: 0,
            hint: layout.data_start,
            data_start: layout.data_start,
            total_blocks: layout.total_blocks,
        };
        for b in 0..layout.total_blocks {
            if b < layout.data_start || used(b) {
                inner.set(b);
            } else {
                inner.free += 1;
            }
        }
        Allocator {
            inner: TrackedMutex::new(Site::PmfsAlloc, inner),
            fault_dev: std::sync::OnceLock::new(),
        }
    }

    /// Attaches the device whose fault-injection plan `alloc` consults
    /// (ENOSPC injection), and wires the allocator's lock to the device's
    /// contention profiler. Later calls are ignored.
    pub fn attach_fault_device(&self, dev: std::sync::Arc<NvmmDevice>) {
        self.inner.attach(dev.contention());
        let _ = self.fault_dev.set(dev);
    }

    /// Allocates one block, returning its absolute block number.
    pub fn alloc(&self) -> Result<u64> {
        if let Some(dev) = self.fault_dev.get() {
            if nvmm::fault::alloc_blocked(dev) {
                return Err(FsError::NoSpace);
            }
        }
        let mut inner = self.inner.lock();
        if inner.free == 0 {
            return Err(FsError::NoSpace);
        }
        let (lo, hi) = (inner.data_start, inner.total_blocks);
        // First free block at or after the hint, wrapping around once.
        let start = inner.hint.clamp(lo, hi - 1);
        let b = inner
            .first_free(start, hi)
            .or_else(|| inner.first_free(lo, start))
            // `free` said there was space; the bitmap disagrees.
            .ok_or(FsError::Corrupted("allocator free count"))?;
        inner.set(b);
        inner.free -= 1;
        inner.hint = if b + 1 < hi { b + 1 } else { lo };
        Ok(b)
    }

    /// Returns a block to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if the block is not currently allocated or is a metadata
    /// block (double free / corruption bugs should fail loudly in tests).
    pub fn free(&self, blk: u64) {
        let mut inner = self.inner.lock();
        assert!(
            blk >= inner.data_start && blk < inner.total_blocks,
            "freeing non-data block {blk}"
        );
        assert!(inner.get(blk), "double free of block {blk}");
        inner.clear(blk);
        inner.free += 1;
        inner.hint = inner.hint.min(blk);
    }

    /// Marks a block as in use during the recovery walk. Metadata blocks
    /// (below the data area) are always in use and are ignored.
    pub fn mark_used(&self, blk: u64) {
        let mut inner = self.inner.lock();
        assert!(blk < inner.total_blocks, "mark_used out of range: {blk}");
        if !inner.get(blk) {
            inner.set(blk);
            inner.free -= 1;
        }
    }

    /// Number of free data blocks.
    pub fn free_blocks(&self) -> u64 {
        self.inner.lock().free
    }

    /// Persists the bitmap image into the layout's bitmap region (clean
    /// unmount).
    pub fn persist(&self, dev: &NvmmDevice, layout: &Layout) {
        let inner = self.inner.lock();
        let mut bytes: Vec<u8> = Vec::with_capacity(inner.bitmap.len() * 8);
        for w in &inner.bitmap {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes.resize(layout.bitmap_blocks as usize * BLOCK_SIZE, 0);
        dev.write_persist(Cat::Meta, Layout::block_off(layout.bitmap_start), &bytes);
        dev.sfence();
    }

    /// Loads the persisted bitmap image (mount after clean unmount).
    pub fn load(dev: &NvmmDevice, layout: &Layout) -> Allocator {
        let words = (layout.total_blocks as usize).div_ceil(64);
        let mut bytes = vec![0u8; words * 8];
        dev.read(
            Cat::Meta,
            Layout::block_off(layout.bitmap_start),
            &mut bytes,
        );
        let bitmap: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Allocator::from_bits(layout, |b| bitmap[(b / 64) as usize] & (1 << (b % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nvmm::{CostModel, SimEnv};
    use std::sync::Arc;

    fn setup() -> (Arc<NvmmDevice>, Layout) {
        let dev = NvmmDevice::new(SimEnv::new_virtual(CostModel::default()), 1024 * BLOCK_SIZE);
        let layout = Layout::compute(1024, 16, 256).unwrap();
        (dev, layout)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let initial = a.free_blocks();
        assert_eq!(initial, layout.data_blocks());
        let b1 = a.alloc().unwrap();
        let b2 = a.alloc().unwrap();
        assert!(b1 >= layout.data_start);
        assert_ne!(b1, b2);
        assert_eq!(a.free_blocks(), initial - 2);
        a.free(b1);
        assert_eq!(a.free_blocks(), initial - 1);
        // The hint resets to the lowest freed block: it is handed out next.
        assert_eq!(a.alloc().unwrap(), b1);
    }

    #[test]
    fn word_scan_matches_a_bit_by_bit_reference() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        // The bit-at-a-time search the word scan replaced: from the hint
        // to the end of the device, then wrapping to the data start.
        struct Reference {
            used: Vec<bool>,
            hint: u64,
            lo: u64,
        }
        impl Reference {
            fn alloc(&mut self) -> Option<u64> {
                let hi = self.used.len() as u64;
                let start = self.hint.clamp(self.lo, hi - 1);
                let mut b = start;
                loop {
                    if !self.used[b as usize] {
                        self.used[b as usize] = true;
                        self.hint = if b + 1 < hi { b + 1 } else { self.lo };
                        return Some(b);
                    }
                    b = if b + 1 < hi { b + 1 } else { self.lo };
                    if b == start {
                        return None;
                    }
                }
            }
        }
        // A total that is not a multiple of 64 leaves a partial last word.
        let layout = Layout::compute(1000, 16, 256).unwrap();
        for seed in 0..8 {
            let a = Allocator::new_empty(&layout);
            let mut r = Reference {
                used: (0..layout.total_blocks)
                    .map(|b| b < layout.data_start)
                    .collect(),
                hint: layout.data_start,
                lo: layout.data_start,
            };
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut live: Vec<u64> = Vec::new();
            let mut wrapped = false;
            for _ in 0..6_000 {
                // Drift between filling up and draining, so runs hit both
                // exhaustion and long stretches of full words.
                let fill = (rng.next_u64() >> 40) % 4 != 0;
                if fill || live.is_empty() {
                    let got = a.alloc().ok();
                    assert_eq!(got, r.alloc(), "seed {seed}");
                    if let Some(b) = got {
                        wrapped |= live.last().is_some_and(|&p| b < p);
                        live.push(b);
                    }
                } else {
                    let b = live.swap_remove(rng.gen_range(0..live.len()));
                    a.free(b);
                    r.used[b as usize] = false;
                    r.hint = r.hint.min(b);
                }
            }
            assert!(wrapped, "seed {seed}: the search wrapped around");
        }
    }

    #[test]
    fn exhaustion_returns_nospace() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..layout.data_blocks() {
            assert!(seen.insert(a.alloc().unwrap()), "duplicate block");
        }
        assert_eq!(a.alloc(), Err(FsError::NoSpace));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let b = a.alloc().unwrap();
        a.free(b);
        a.free(b);
    }

    #[test]
    #[should_panic(expected = "non-data block")]
    fn freeing_metadata_block_panics() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        a.free(0);
    }

    #[test]
    fn persist_load_roundtrip() {
        let (dev, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let b1 = a.alloc().unwrap();
        let _b2 = a.alloc().unwrap();
        let b3 = a.alloc().unwrap();
        a.free(b3);
        a.persist(&dev, &layout);
        let loaded = Allocator::load(&dev, &layout);
        assert_eq!(loaded.free_blocks(), a.free_blocks());
        // b1 still allocated in the loaded map: freeing works, re-freeing
        // would panic (checked indirectly by alloc not returning b1 first).
        loaded.free(b1);
        assert_eq!(loaded.free_blocks(), a.free_blocks() + 1);
    }

    #[test]
    fn mark_used_is_idempotent() {
        let (_, layout) = setup();
        let a = Allocator::new_empty(&layout);
        let before = a.free_blocks();
        a.mark_used(layout.data_start + 5);
        a.mark_used(layout.data_start + 5);
        assert_eq!(a.free_blocks(), before - 1);
    }
}
