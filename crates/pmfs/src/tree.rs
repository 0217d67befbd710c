//! Per-file block index: a 512-ary radix B-tree of 4 KiB nodes, as in PMFS.
//!
//! Every node is one device block holding 512 little-endian `u64` slots; a
//! slot is an absolute block number or 0 for absent. A tree of height `h`
//! maps file block indices `0 .. 512^h`. Pointer updates are 8-byte atomic
//! persists, so linking a (fully written) new node or leaf block into the
//! tree never needs journaling; only the inode's `tree_root`/`tree_height`
//! fields do, and those ride in the caller's inode transaction.
//!
//! Crash windows leak at most *unreachable* blocks, which the mount-time
//! allocator rebuild walk reclaims (see [`crate::alloc`]).

use fskit::{FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};

use crate::alloc::Allocator;
use crate::inode::InodeMem;
use crate::layout::Layout;

/// Pointers per node.
pub const FANOUT: u64 = (BLOCK_SIZE / 8) as u64;

/// Number of file blocks addressable by a tree of `height`.
pub fn capacity(height: u32) -> u64 {
    FANOUT.saturating_pow(height)
}

fn slot_off(node: u64, slot: u64) -> u64 {
    Layout::block_off(node) + slot * 8
}

/// Index of the slot for `iblk` at `level`, where `level == height` is the
/// root and `level == 1` is the leaf.
fn slot_at(iblk: u64, level: u32) -> u64 {
    (iblk >> (9 * (level - 1))) & (FANOUT - 1)
}

/// Looks up the physical block for file block `iblk`, or `None` for a hole.
pub fn lookup(dev: &NvmmDevice, mem: &InodeMem, iblk: u64) -> Option<u64> {
    if mem.tree_root == 0 || iblk >= capacity(mem.tree_height) {
        return None;
    }
    let mut node = mem.tree_root;
    for level in (1..=mem.tree_height).rev() {
        let p = dev.read_u64(Cat::Meta, slot_off(node, slot_at(iblk, level)));
        if p == 0 {
            return None;
        }
        node = p;
    }
    Some(node)
}

fn new_node(dev: &NvmmDevice, alloc: &Allocator) -> Result<u64> {
    let b = alloc.alloc()?;
    dev.zero_persist(Cat::Meta, Layout::block_off(b), BLOCK_SIZE);
    Ok(b)
}

/// Maps file block `iblk` to physical block `pblk`, growing the tree as
/// needed. Updates `mem.tree_root`/`mem.tree_height` in memory; the caller
/// persists the inode core through its journal transaction.
///
/// Fails with [`FsError::AlreadyExists`] if the slot is occupied (callers
/// overwrite in place instead of remapping).
pub fn insert(
    dev: &NvmmDevice,
    alloc: &Allocator,
    mem: &mut InodeMem,
    iblk: u64,
    pblk: u64,
) -> Result<()> {
    debug_assert_ne!(pblk, 0);
    // Grow the tree until iblk fits.
    while mem.tree_root == 0 || iblk >= capacity(mem.tree_height) {
        let root = new_node(dev, alloc)?;
        if mem.tree_root != 0 {
            // Old tree becomes child 0 of the new root.
            dev.write_u64_persist(Cat::Meta, slot_off(root, 0), mem.tree_root);
            dev.sfence();
        }
        mem.tree_root = root;
        mem.tree_height += 1;
    }
    let mut node = mem.tree_root;
    for level in (2..=mem.tree_height).rev() {
        let off = slot_off(node, slot_at(iblk, level));
        let mut child = dev.read_u64(Cat::Meta, off);
        if child == 0 {
            child = new_node(dev, alloc)?;
            dev.write_u64_persist(Cat::Meta, off, child);
            dev.sfence();
        }
        node = child;
    }
    let off = slot_off(node, slot_at(iblk, 1));
    if dev.read_u64(Cat::Meta, off) != 0 {
        return Err(FsError::AlreadyExists);
    }
    dev.write_u64_persist(Cat::Meta, off, pblk);
    dev.sfence();
    Ok(())
}

/// Calls `f(slot, ptr)` for every nonzero slot of `node`, ascending. The
/// scan charges the metadata reads of all [`FANOUT`] slots, and `f` may
/// clear the slot it is given.
fn scan(dev: &NvmmDevice, node: u64, mut f: impl FnMut(u64, u64)) {
    dev.for_each_nonzero_u64(
        Cat::Meta,
        Layout::block_off(node),
        FANOUT as usize,
        |slot, p| f(slot as u64, p),
    );
}

/// Calls `f(iblk, pblk)` for every mapped block, ascending.
pub fn for_each(dev: &NvmmDevice, mem: &InodeMem, f: &mut impl FnMut(u64, u64)) {
    if mem.tree_root != 0 {
        walk(dev, mem.tree_root, mem.tree_height, 0, f);
    }
}

fn walk(dev: &NvmmDevice, node: u64, level: u32, base: u64, f: &mut impl FnMut(u64, u64)) {
    let span = capacity(level - 1);
    scan(dev, node, |slot, p| {
        if level == 1 {
            f(base + slot, p);
        } else {
            walk(dev, p, level - 1, base + slot * span, f);
        }
    });
}

/// Calls `mark(pblk)` for every block owned by the tree: interior nodes,
/// the root, and data blocks. Used by the allocator rebuild walk.
pub fn mark_all(dev: &NvmmDevice, mem: &InodeMem, mark: &mut impl FnMut(u64)) {
    if mem.tree_root == 0 {
        return;
    }
    mark_walk(dev, mem.tree_root, mem.tree_height, mark);
}

fn mark_walk(dev: &NvmmDevice, node: u64, level: u32, mark: &mut impl FnMut(u64)) {
    mark(node);
    if level == 0 {
        return;
    }
    scan(dev, node, |_, p| {
        if level == 1 {
            // `node` is a leaf node: `p` is a data block.
            mark(p);
        } else {
            mark_walk(dev, p, level - 1, mark);
        }
    });
}

/// Unmaps and frees every data block with file index `>= from_iblk`,
/// freeing interior nodes that become empty. Returns the number of *data*
/// blocks freed and updates `mem` (root/height may drop to zero).
pub fn remove_from(dev: &NvmmDevice, alloc: &Allocator, mem: &mut InodeMem, from_iblk: u64) -> u64 {
    if mem.tree_root == 0 {
        return 0;
    }
    let mut freed = 0;
    let root_empty = prune(
        dev,
        alloc,
        mem.tree_root,
        mem.tree_height,
        0,
        from_iblk,
        &mut freed,
    );
    if root_empty {
        alloc.free(mem.tree_root);
        mem.tree_root = 0;
        mem.tree_height = 0;
    }
    freed
}

/// Prunes `node` (at `level`, covering file blocks starting at `base`);
/// returns true if the node is now empty and should be freed by the caller.
fn prune(
    dev: &NvmmDevice,
    alloc: &Allocator,
    node: u64,
    level: u32,
    base: u64,
    from: u64,
    freed: &mut u64,
) -> bool {
    let span = capacity(level - 1);
    let mut any_left = false;
    scan(dev, node, |slot, p| {
        let off = slot_off(node, slot);
        let lo = base + slot * span;
        let hi = lo + span; // exclusive
        if hi <= from {
            any_left = true;
            return;
        }
        if level == 1 {
            // Data block at index `lo` >= from: free it.
            dev.write_u64_persist(Cat::Meta, off, 0);
            alloc.free(p);
            *freed += 1;
        } else if lo >= from {
            // Whole subtree goes.
            drop_subtree(dev, alloc, p, level - 1, freed);
            dev.write_u64_persist(Cat::Meta, off, 0);
            alloc.free(p);
        } else if prune(dev, alloc, p, level - 1, lo, from, freed) {
            // Straddled the boundary and is now empty.
            dev.write_u64_persist(Cat::Meta, off, 0);
            alloc.free(p);
        } else {
            any_left = true;
        }
    });
    dev.sfence();
    !any_left
}

fn drop_subtree(dev: &NvmmDevice, alloc: &Allocator, node: u64, level: u32, freed: &mut u64) {
    scan(dev, node, |_, p| {
        if level == 1 {
            alloc.free(p);
            *freed += 1;
        } else {
            drop_subtree(dev, alloc, p, level - 1, freed);
            alloc.free(p);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use fskit::FileType;
    use nvmm::{CostModel, SimEnv};
    use std::sync::Arc;

    fn setup() -> (Arc<NvmmDevice>, Allocator, InodeMem) {
        let blocks = 8192u64;
        let dev = NvmmDevice::new(
            SimEnv::new_virtual(CostModel::default()),
            blocks as usize * BLOCK_SIZE,
        );
        let layout = Layout::compute(blocks, 16, 128).unwrap();
        let alloc = Allocator::new_empty(&layout);
        let mem = InodeMem::new(FileType::File, 0);
        (dev, alloc, mem)
    }

    #[test]
    fn empty_tree_lookups_are_holes() {
        let (dev, _alloc, mem) = setup();
        assert_eq!(lookup(&dev, &mem, 0), None);
        assert_eq!(lookup(&dev, &mem, 12345), None);
    }

    #[test]
    fn insert_lookup_single_level() {
        let (dev, alloc, mut mem) = setup();
        let b = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 0, b).unwrap();
        assert_eq!(mem.tree_height, 1);
        assert_eq!(lookup(&dev, &mem, 0), Some(b));
        assert_eq!(lookup(&dev, &mem, 1), None);
    }

    #[test]
    fn tree_grows_to_multiple_levels() {
        let (dev, alloc, mut mem) = setup();
        let b0 = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 0, b0).unwrap();
        // Block 600 needs height 2; block 300000 needs height 3.
        let b1 = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 600, b1).unwrap();
        assert_eq!(mem.tree_height, 2);
        let b2 = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 300_000, b2).unwrap();
        assert_eq!(mem.tree_height, 3);
        assert_eq!(
            lookup(&dev, &mem, 0),
            Some(b0),
            "old mapping survives growth"
        );
        assert_eq!(lookup(&dev, &mem, 600), Some(b1));
        assert_eq!(lookup(&dev, &mem, 300_000), Some(b2));
        assert_eq!(lookup(&dev, &mem, 300_001), None);
    }

    #[test]
    fn double_insert_rejected() {
        let (dev, alloc, mut mem) = setup();
        let b = alloc.alloc().unwrap();
        insert(&dev, &alloc, &mut mem, 7, b).unwrap();
        let b2 = alloc.alloc().unwrap();
        assert_eq!(
            insert(&dev, &alloc, &mut mem, 7, b2),
            Err(FsError::AlreadyExists)
        );
    }

    #[test]
    fn for_each_ascending() {
        let (dev, alloc, mut mem) = setup();
        let idxs = [0u64, 3, 511, 512, 1024, 5000];
        for &i in &idxs {
            let b = alloc.alloc().unwrap();
            insert(&dev, &alloc, &mut mem, i, b).unwrap();
        }
        let mut seen = Vec::new();
        for_each(&dev, &mem, &mut |iblk, pblk| {
            assert_ne!(pblk, 0);
            seen.push(iblk);
        });
        assert_eq!(seen, idxs);
    }

    #[test]
    fn remove_from_truncates_and_frees() {
        let (dev, alloc, mut mem) = setup();
        let before = alloc.free_blocks();
        for i in 0..600u64 {
            let b = alloc.alloc().unwrap();
            insert(&dev, &alloc, &mut mem, i, b).unwrap();
        }
        let freed = remove_from(&dev, &alloc, &mut mem, 100);
        assert_eq!(freed, 500);
        assert_eq!(lookup(&dev, &mem, 99), lookup(&dev, &mem, 99));
        assert!(lookup(&dev, &mem, 99).is_some());
        assert_eq!(lookup(&dev, &mem, 100), None);
        assert_eq!(lookup(&dev, &mem, 599), None);
        // Full removal returns every block (data + nodes).
        let freed2 = remove_from(&dev, &alloc, &mut mem, 0);
        assert_eq!(freed2, 100);
        assert_eq!(mem.tree_root, 0);
        assert_eq!(mem.tree_height, 0);
        assert_eq!(alloc.free_blocks(), before, "no leaked blocks");
    }

    #[test]
    fn mark_all_covers_nodes_and_data() {
        let (dev, alloc, mut mem) = setup();
        let before = alloc.free_blocks();
        for i in [0u64, 513, 1025] {
            let b = alloc.alloc().unwrap();
            insert(&dev, &alloc, &mut mem, i, b).unwrap();
        }
        let allocated = before - alloc.free_blocks();
        let mut marked = 0u64;
        mark_all(&dev, &mem, &mut |_p| marked += 1);
        assert_eq!(marked, allocated, "walk sees exactly the allocated blocks");
    }

    /// The word-at-a-time walks the node scans replaced: one `read_u64`
    /// per slot.
    mod word_walk {
        use super::*;

        pub fn mark(dev: &NvmmDevice, node: u64, level: u32, out: &mut Vec<(u64, u64)>) {
            out.push((node, dev.env().now()));
            for slot in 0..FANOUT {
                let p = dev.read_u64(Cat::Meta, slot_off(node, slot));
                if p != 0 && level == 1 {
                    out.push((p, dev.env().now()));
                } else if p != 0 {
                    mark(dev, p, level - 1, out);
                }
            }
        }

        pub fn prune(
            dev: &NvmmDevice,
            alloc: &Allocator,
            node: u64,
            level: u32,
            base: u64,
            from: u64,
            freed: &mut u64,
        ) -> bool {
            let span = capacity(level - 1);
            let mut any_left = false;
            for slot in 0..FANOUT {
                let off = slot_off(node, slot);
                let p = dev.read_u64(Cat::Meta, off);
                if p == 0 {
                    continue;
                }
                let lo = base + slot * span;
                if lo + span <= from {
                    any_left = true;
                } else if level == 1 {
                    dev.write_u64_persist(Cat::Meta, off, 0);
                    alloc.free(p);
                    *freed += 1;
                } else if lo >= from {
                    drop(dev, alloc, p, level - 1, freed);
                    dev.write_u64_persist(Cat::Meta, off, 0);
                    alloc.free(p);
                } else if prune(dev, alloc, p, level - 1, lo, from, freed) {
                    dev.write_u64_persist(Cat::Meta, off, 0);
                    alloc.free(p);
                } else {
                    any_left = true;
                }
            }
            dev.sfence();
            !any_left
        }

        fn drop(dev: &NvmmDevice, alloc: &Allocator, node: u64, level: u32, freed: &mut u64) {
            for slot in 0..FANOUT {
                let p = dev.read_u64(Cat::Meta, slot_off(node, slot));
                if p != 0 && level == 1 {
                    alloc.free(p);
                    *freed += 1;
                } else if p != 0 {
                    drop(dev, alloc, p, level - 1, freed);
                    alloc.free(p);
                }
            }
        }
    }

    #[test]
    fn node_scans_charge_like_the_word_at_a_time_walk() {
        let cost = CostModel {
            dram_ns_per_kib: 100,
            nvmm_read_extra_ns: 7,
            ..CostModel::default()
        };
        // A 2-level tree with holes, truncated in the middle of its second
        // leaf (a straddling prune, a whole-subtree drop and a leaf prune),
        // then emptied; both walks must leave identical models behind.
        let run = |word_at_a_time: bool| {
            let blocks = 8192u64;
            let dev = NvmmDevice::new(
                SimEnv::new_virtual(cost.clone()),
                blocks as usize * BLOCK_SIZE,
            );
            let alloc = Allocator::new_empty(&Layout::compute(blocks, 16, 128).unwrap());
            let mut mem = InodeMem::new(FileType::File, 0);
            for i in (0..1800u64).filter(|i| i % 7 != 3) {
                let b = alloc.alloc().unwrap();
                insert(&dev, &alloc, &mut mem, i, b).unwrap();
            }
            assert_eq!(mem.tree_height, 2);
            // Every other microsecond of the gate is booked solid, so a
            // prune write's queueing depends on the exact time it issues.
            let gate = dev.env().gate();
            for us in (0..40_000).step_by(2) {
                gate.admit_lines(us * 1_000, 0, gate.lines_per_bucket() as usize);
            }
            nvmm::ledger::reset();
            dev.env().set_now(0);
            let mut marked = Vec::new();
            let mut freed = Vec::new();
            for from in [700, 0] {
                if word_at_a_time {
                    word_walk::mark(&dev, mem.tree_root, mem.tree_height, &mut marked);
                    let mut n = 0;
                    if word_walk::prune(
                        &dev,
                        &alloc,
                        mem.tree_root,
                        mem.tree_height,
                        0,
                        from,
                        &mut n,
                    ) {
                        alloc.free(mem.tree_root);
                        mem.tree_root = 0;
                    }
                    freed.push(n);
                } else {
                    mark_all(&dev, &mem, &mut |p| marked.push((p, dev.env().now())));
                    freed.push(remove_from(&dev, &alloc, &mut mem, from));
                }
            }
            assert_eq!(mem.tree_root, 0);
            let read = dev.stats().snapshot().nvmm_bytes_read;
            (
                dev.env().now(),
                nvmm::ledger::snapshot(),
                read,
                marked,
                freed,
                alloc.free_blocks(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn remove_from_middle_of_subtree() {
        let (dev, alloc, mut mem) = setup();
        for i in 0..1024u64 {
            let b = alloc.alloc().unwrap();
            insert(&dev, &alloc, &mut mem, i, b).unwrap();
        }
        let freed = remove_from(&dev, &alloc, &mut mem, 700);
        assert_eq!(freed, 324);
        assert!(lookup(&dev, &mem, 699).is_some());
        assert_eq!(lookup(&dev, &mem, 700), None);
        // Height unchanged (lazy shrink) but mappings correct.
        assert!(lookup(&dev, &mem, 0).is_some());
    }
}
