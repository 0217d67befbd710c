//! The global LRW (Least Recently Written) list (paper §3.2).
//!
//! All buffered DRAM blocks sit on one recency list ordered by last written
//! time; writing a block moves it to the MRW (most recently written) end
//! and the background writeback threads pick victims from the LRW end. The
//! structure itself is the shared intrusive list from
//! [`fskit::lrulist`] — the same machinery the page-cache baselines use
//! for plain LRU — parameterized here by *write* recency: only writes call
//! [`LrwList::touch`], never reads.

pub use fskit::lrulist::{RecencyList as LrwList, NIL};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use fskit::{FileSystem, OpenFlags};
    use nvmm::{CostModel, NvmmDevice, SimEnv, BLOCK_SIZE};
    use pmfs::PmfsOptions;

    use super::*;
    use crate::fs::Hinfs;
    use crate::HinfsConfig;

    #[test]
    fn lrw_semantics_track_write_recency() {
        let mut l = LrwList::new(4);
        l.push_head(0); // first write
        l.push_head(1);
        l.push_head(2);
        // A write to 0 makes it MRW; reads would NOT touch.
        l.touch(0);
        assert_eq!(l.tail(), Some(1), "LRW victim is the oldest written");
        assert_eq!(l.head(), Some(0));
    }

    #[test]
    fn empty_pool_offers_no_victim() {
        let l = LrwList::new(8);
        assert!(l.is_empty());
        assert_eq!(l.len(), 0);
        assert_eq!(l.tail(), None, "no eviction candidate on an empty pool");
        assert_eq!(l.head(), None);
        assert_eq!(l.iter_from_tail().count(), 0);
    }

    #[test]
    fn single_block_evict_and_reuse() {
        let mut l = LrwList::new(4);
        l.push_head(3);
        // With one buffered block, victim and MRW coincide.
        assert_eq!(l.tail(), l.head());
        // Touching the sole block must not corrupt the links.
        l.touch(3);
        assert_eq!(l.len(), 1);
        // Evict it: back to empty, and the slot is reusable immediately.
        l.unlink(3);
        assert!(l.is_empty());
        assert_eq!(l.tail(), None);
        l.push_head(3);
        assert_eq!(l.iter_from_tail().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn retouch_reordering_tracks_last_write_only() {
        let mut l = LrwList::new(8);
        for s in 0..4 {
            l.push_head(s);
        }
        // Re-writing the current victim promotes it past everything.
        l.touch(0);
        assert_eq!(l.iter_from_tail().collect::<Vec<_>>(), vec![1, 2, 3, 0]);
        // Re-writing the MRW block is a no-op on the order.
        l.touch(0);
        assert_eq!(l.iter_from_tail().collect::<Vec<_>>(), vec![1, 2, 3, 0]);
        // A middle block moves to the head; its neighbours re-join.
        l.touch(2);
        assert_eq!(l.iter_from_tail().collect::<Vec<_>>(), vec![1, 3, 0, 2]);
        // Recency is write recency: every block rewritten once in reverse
        // order fully inverts the list.
        for s in [2, 0, 3, 1] {
            l.touch(s);
        }
        assert_eq!(l.iter_from_tail().collect::<Vec<_>>(), vec![2, 0, 3, 1]);
    }

    /// Writes through the full FS on the virtual clock and checks the LRW
    /// order against the per-slot `last_write_ns` stamps — twice, on two
    /// fresh instances, asserting the order is bit-identical (the
    /// deterministic clock leaves no room for tie-breaking drift).
    #[test]
    fn fs_level_order_is_stable_under_the_deterministic_clock() {
        fn run() -> (Vec<u64>, Vec<u64>) {
            let env = SimEnv::new_virtual(CostModel::default());
            env.set_now(0);
            let dev = NvmmDevice::new_tracked(env, 16384 * BLOCK_SIZE);
            let fs: Arc<Hinfs> = Hinfs::mkfs(
                dev,
                PmfsOptions {
                    journal_blocks: 128,
                    inode_count: 512,
                },
                HinfsConfig::default().with_buffer_bytes(64 * BLOCK_SIZE),
            )
            .unwrap();
            let fd = fs.open("/w", OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
            for iblk in 0..5u64 {
                fs.write(fd, iblk * BLOCK_SIZE as u64, &[iblk as u8; 64])
                    .unwrap();
            }
            // Re-write block 1: it must become the MRW end.
            fs.write(fd, BLOCK_SIZE as u64, &[0xEE; 64]).unwrap();
            let sh = fs.shared.lock();
            let pool = sh.pool();
            let blocks: Vec<u64> = pool
                .lrw
                .iter_from_tail()
                .map(|s| pool.meta(s).iblk)
                .collect();
            let stamps: Vec<u64> = pool
                .lrw
                .iter_from_tail()
                .map(|s| pool.meta(s).last_write_ns)
                .collect();
            (blocks, stamps)
        }
        let (blocks, stamps) = run();
        assert_eq!(*blocks.last().unwrap(), 1, "re-written block is MRW");
        assert!(
            stamps.windows(2).all(|w| w[0] <= w[1]),
            "write stamps never decrease towards the head: {stamps:?}"
        );
        let (blocks2, stamps2) = run();
        assert_eq!(blocks, blocks2, "same writes, same LRW order");
        assert_eq!(stamps, stamps2, "same writes, same virtual stamps");
    }
}
