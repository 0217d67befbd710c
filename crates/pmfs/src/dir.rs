//! Directories: ext2-style variable-length entries stored in the directory
//! inode's data blocks.
//!
//! Entry format (byte offsets within an entry):
//!
//! ```text
//! 0..8   ino      (0 = free space)
//! 8..10  rec_len  (multiple of 4; last entry reaches the block end)
//! 10     name_len
//! 11     ftype
//! 12..   name bytes, padded to rec_len
//! ```
//!
//! Modifications journal the entry headers they touch through the caller's
//! transaction, so a crash can never leave a broken entry chain.

use fskit::{DirEntry, FileType, FsError, Result};
use nvmm::{Cat, NvmmDevice, BLOCK_SIZE};

use crate::alloc::Allocator;
use crate::inode::InodeMem;
use crate::journal::{Journal, TxHandle};
use crate::layout::Layout;
use crate::tree;

pub use fskit::dirent::{encode_header, entry_len, parse_block, HDR};

/// Number of directory data blocks (directories always grow in whole
/// blocks).
fn dir_blocks(mem: &InodeMem) -> u64 {
    mem.size / BLOCK_SIZE as u64
}

/// Looks up `name`, returning its inode number and type.
pub fn lookup(dev: &NvmmDevice, mem: &InodeMem, name: &str) -> Result<Option<(u64, FileType)>> {
    let mut buf = [0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        let pblk = tree::lookup(dev, mem, iblk).ok_or(FsError::Corrupted("dir hole"))?;
        dev.read(Cat::Meta, Layout::block_off(pblk), &mut buf);
        for (_, e) in parse_block(&buf)? {
            if e.ino != 0 && e.name == name.as_bytes() {
                let ftype = FileType::from_u8(e.ftype).ok_or(FsError::Corrupted("dirent type"))?;
                return Ok(Some((e.ino, ftype)));
            }
        }
    }
    Ok(None)
}

/// Lists every live entry.
pub fn list(dev: &NvmmDevice, mem: &InodeMem) -> Result<Vec<DirEntry>> {
    let mut out = Vec::new();
    let mut buf = [0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        let pblk = tree::lookup(dev, mem, iblk).ok_or(FsError::Corrupted("dir hole"))?;
        dev.read(Cat::Meta, Layout::block_off(pblk), &mut buf);
        for (_, e) in parse_block(&buf)? {
            if e.ino != 0 {
                out.push(DirEntry {
                    name: String::from_utf8(e.name.to_vec())
                        .map_err(|_| FsError::Corrupted("dirent name utf8"))?,
                    ino: e.ino,
                    ftype: FileType::from_u8(e.ftype).ok_or(FsError::Corrupted("dirent type"))?,
                });
            }
        }
    }
    Ok(out)
}

/// Whether the directory has no live entries.
pub fn is_empty(dev: &NvmmDevice, mem: &InodeMem) -> Result<bool> {
    Ok(list(dev, mem)?.is_empty())
}

/// Adds `name -> ino`. The caller must have verified the name is absent and
/// holds the directory inode lock; inode-core changes (size growth) ride in
/// the caller's transaction.
#[allow(clippy::too_many_arguments)]
pub fn add(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    alloc: &Allocator,
    mem: &mut InodeMem,
    name: &str,
    ino: u64,
    ftype: FileType,
) -> Result<()> {
    debug_assert!(!name.is_empty() && name.len() <= 255);
    let need = entry_len(name.len());
    let mut buf = [0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        let pblk = tree::lookup(dev, mem, iblk).ok_or(FsError::Corrupted("dir hole"))?;
        let base = Layout::block_off(pblk);
        dev.read(Cat::Meta, base, &mut buf);
        for (off, e) in parse_block(&buf)? {
            let (free_off, free_len, split_used) = if e.ino == 0 {
                (off, e.rec_len, false)
            } else {
                let used = entry_len(e.name.len());
                (off + used, e.rec_len - used, true)
            };
            if free_len < need {
                continue;
            }
            // Journal the headers we are about to modify: the hosting
            // entry's header and the new entry's header location.
            journal.log_range(tx, base + off as u64, HDR)?;
            journal.log_range(tx, base + free_off as u64, HDR)?;
            if split_used {
                // Shrink the used entry to its minimal length, then write
                // the new entry into its slack.
                let host = encode_header(e.ino, entry_len(e.name.len()), e.name.len(), e.ftype);
                let mut new = Vec::with_capacity(free_len);
                new.extend_from_slice(&encode_header(ino, free_len, name.len(), ftype.as_u8()));
                new.extend_from_slice(name.as_bytes());
                new.resize(free_len, 0);
                // New entry body first, host header (the split point) last.
                dev.write_persist(Cat::Meta, base + free_off as u64, &new);
                dev.sfence();
                dev.write_persist(Cat::Meta, base + off as u64, &host);
                dev.sfence();
            } else {
                // Claim the free entry; split off the remainder if it is
                // large enough to hold a future header.
                let (claim_len, rest) = if free_len - need >= HDR {
                    (need, free_len - need)
                } else {
                    (free_len, 0)
                };
                if rest > 0 {
                    let rest_hdr = encode_header(0, rest, 0, 0);
                    dev.write_persist(Cat::Meta, base + (free_off + claim_len) as u64, &rest_hdr);
                    dev.sfence();
                }
                let mut new = Vec::with_capacity(claim_len);
                new.extend_from_slice(&encode_header(ino, claim_len, name.len(), ftype.as_u8()));
                new.extend_from_slice(name.as_bytes());
                new.resize(claim_len, 0);
                dev.write_persist(Cat::Meta, base + free_off as u64, &new);
                dev.sfence();
            }
            return Ok(());
        }
    }
    // No room: append a fresh directory block.
    let pblk = alloc.alloc()?;
    let base = Layout::block_off(pblk);
    dev.zero_persist(Cat::Meta, base, BLOCK_SIZE);
    let mut block = vec![0u8; BLOCK_SIZE];
    block[0..HDR].copy_from_slice(&encode_header(ino, need, name.len(), ftype.as_u8()));
    block[HDR..HDR + name.len()].copy_from_slice(name.as_bytes());
    if BLOCK_SIZE - need >= HDR {
        block[need..need + HDR].copy_from_slice(&encode_header(0, BLOCK_SIZE - need, 0, 0));
    }
    dev.write_persist(Cat::Meta, base, &block);
    dev.sfence();
    let iblk = dir_blocks(mem);
    tree::insert(dev, alloc, mem, iblk, pblk)?;
    mem.size += BLOCK_SIZE as u64;
    mem.blocks += 1;
    Ok(())
}

/// Removes `name`. Returns the unlinked inode number and type.
pub fn remove(
    dev: &NvmmDevice,
    journal: &Journal,
    tx: &TxHandle,
    mem: &InodeMem,
    name: &str,
) -> Result<(u64, FileType)> {
    let mut buf = [0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        let pblk = tree::lookup(dev, mem, iblk).ok_or(FsError::Corrupted("dir hole"))?;
        let base = Layout::block_off(pblk);
        dev.read(Cat::Meta, base, &mut buf);
        let entries = parse_block(&buf)?;
        for (i, (off, e)) in entries.iter().enumerate() {
            if e.ino == 0 || e.name != name.as_bytes() {
                continue;
            }
            let ftype = FileType::from_u8(e.ftype).ok_or(FsError::Corrupted("dirent type"))?;
            if i > 0 {
                // Merge into the predecessor.
                let (poff, p) = &entries[i - 1];
                journal.log_range(tx, base + *poff as u64, HDR)?;
                let hdr = encode_header(p.ino, p.rec_len + e.rec_len, p.name.len(), p.ftype);
                dev.write_persist(Cat::Meta, base + *poff as u64, &hdr);
            } else {
                // First entry of the block: mark free.
                journal.log_range(tx, base + *off as u64, HDR)?;
                let hdr = encode_header(0, e.rec_len, 0, 0);
                dev.write_persist(Cat::Meta, base + *off as u64, &hdr);
            }
            dev.sfence();
            return Ok((e.ino, ftype));
        }
    }
    Err(FsError::NotFound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use nvmm::{CostModel, SimEnv};
    use std::sync::Arc;

    struct Fx {
        dev: Arc<NvmmDevice>,
        journal: Journal,
        alloc: Allocator,
        mem: InodeMem,
    }

    fn setup() -> Fx {
        let blocks = 4096u64;
        let dev = NvmmDevice::new_tracked(
            SimEnv::new_virtual(CostModel::default()),
            blocks as usize * BLOCK_SIZE,
        );
        let layout = Layout::compute(blocks, 64, 128).unwrap();
        Journal::format(&dev, &layout);
        let journal = Journal::open(dev.clone(), &layout).unwrap();
        let alloc = Allocator::new_empty(&layout);
        let mem = InodeMem::new(FileType::Dir, 0);
        Fx {
            dev,
            journal,
            alloc,
            mem,
        }
    }

    impl Fx {
        fn add(&mut self, name: &str, ino: u64, ft: FileType) -> Result<()> {
            let tx = self.journal.begin().unwrap();
            let r = add(
                &self.dev,
                &self.journal,
                &tx,
                &self.alloc,
                &mut self.mem,
                name,
                ino,
                ft,
            );
            self.journal.commit(tx);
            r
        }

        fn remove(&mut self, name: &str) -> Result<(u64, FileType)> {
            let tx = self.journal.begin().unwrap();
            let r = remove(&self.dev, &self.journal, &tx, &self.mem, name);
            self.journal.commit(tx);
            r
        }
    }

    #[test]
    fn add_lookup_remove() {
        let mut fx = setup();
        fx.add("hello.txt", 10, FileType::File).unwrap();
        fx.add("sub", 11, FileType::Dir).unwrap();
        assert_eq!(
            lookup(&fx.dev, &fx.mem, "hello.txt").unwrap(),
            Some((10, FileType::File))
        );
        assert_eq!(
            lookup(&fx.dev, &fx.mem, "sub").unwrap(),
            Some((11, FileType::Dir))
        );
        assert_eq!(lookup(&fx.dev, &fx.mem, "nope").unwrap(), None);
        assert_eq!(fx.remove("hello.txt").unwrap(), (10, FileType::File));
        assert_eq!(lookup(&fx.dev, &fx.mem, "hello.txt").unwrap(), None);
        assert_eq!(
            lookup(&fx.dev, &fx.mem, "sub").unwrap(),
            Some((11, FileType::Dir))
        );
    }

    #[test]
    fn list_returns_live_entries() {
        let mut fx = setup();
        for i in 0..10u64 {
            fx.add(&format!("f{i}"), 100 + i, FileType::File).unwrap();
        }
        fx.remove("f3").unwrap();
        let names: Vec<String> = list(&fx.dev, &fx.mem)
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names.len(), 9);
        assert!(!names.contains(&"f3".to_string()));
        assert!(names.contains(&"f9".to_string()));
    }

    #[test]
    fn empty_after_removing_everything() {
        let mut fx = setup();
        assert!(is_empty(&fx.dev, &fx.mem).unwrap());
        fx.add("a", 1, FileType::File).unwrap();
        fx.add("b", 2, FileType::File).unwrap();
        assert!(!is_empty(&fx.dev, &fx.mem).unwrap());
        fx.remove("a").unwrap();
        fx.remove("b").unwrap();
        assert!(is_empty(&fx.dev, &fx.mem).unwrap());
    }

    #[test]
    fn freed_space_is_reused() {
        let mut fx = setup();
        for i in 0..50u64 {
            fx.add(&format!("file-{i:03}"), i + 1, FileType::File)
                .unwrap();
        }
        let blocks_before = fx.mem.blocks;
        for i in 0..50u64 {
            fx.remove(&format!("file-{i:03}")).unwrap();
        }
        for i in 0..50u64 {
            fx.add(&format!("file2-{i:03}"), i + 100, FileType::File)
                .unwrap();
        }
        assert_eq!(
            fx.mem.blocks, blocks_before,
            "no growth when space was freed"
        );
        assert_eq!(list(&fx.dev, &fx.mem).unwrap().len(), 50);
    }

    #[test]
    fn grows_across_blocks() {
        let mut fx = setup();
        // Long names so a block holds few entries.
        let name = "x".repeat(200);
        let per_block = BLOCK_SIZE / entry_len(200);
        let n = per_block * 3 + 1;
        for i in 0..n {
            fx.add(&format!("{name}{i:04}"), i as u64 + 1, FileType::File)
                .unwrap();
        }
        assert!(fx.mem.blocks >= 3);
        assert_eq!(list(&fx.dev, &fx.mem).unwrap().len(), n);
        // Every entry findable.
        assert_eq!(
            lookup(&fx.dev, &fx.mem, &format!("{name}{:04}", n - 1)).unwrap(),
            Some((n as u64, FileType::File))
        );
    }

    #[test]
    fn duplicate_names_are_callers_problem_but_lookup_finds_first() {
        let mut fx = setup();
        fx.add("dup", 1, FileType::File).unwrap();
        fx.add("dup", 2, FileType::File).unwrap();
        let (ino, _) = lookup(&fx.dev, &fx.mem, "dup").unwrap().unwrap();
        assert_eq!(ino, 1);
    }

    #[test]
    fn crash_during_add_rolls_back_chain() {
        let mut fx = setup();
        fx.add("keep", 5, FileType::File).unwrap();
        // Uncommitted add, then crash.
        let tx = fx.journal.begin().unwrap();
        add(
            &fx.dev,
            &fx.journal,
            &tx,
            &fx.alloc,
            &mut fx.mem,
            "lost",
            6,
            FileType::File,
        )
        .unwrap();
        drop(tx);
        fx.dev.crash();
        let layout = Layout::compute(4096, 64, 128).unwrap();
        Journal::recover(&fx.dev, &layout).unwrap();
        // Chain is intact and the uncommitted entry is gone.
        assert_eq!(
            lookup(&fx.dev, &fx.mem, "keep").unwrap(),
            Some((5, FileType::File))
        );
        assert_eq!(lookup(&fx.dev, &fx.mem, "lost").unwrap(), None);
        let entries = list(&fx.dev, &fx.mem).unwrap();
        assert_eq!(entries.len(), 1);
    }
}
