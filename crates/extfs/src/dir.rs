//! Directories for the ext baselines: the shared dirent format
//! ([`fskit::dirent`]) stored in the directory's data blocks and accessed
//! through the buffer cache; every modified block joins the running journal
//! transaction.

use fskit::dirent::{encode_header, entry_len, parse_block, HDR};
use fskit::{DirEntry, FileType, FsError, Result};
use nvmm::{Cat, BLOCK_SIZE};

use crate::alloc::DiskBitmap;
use crate::blkmap;
use crate::cache::BufferCache;
use crate::inode::ExtInodeMem;
use crate::jbd::Jbd;

fn dir_blocks(mem: &ExtInodeMem) -> u64 {
    mem.size / BLOCK_SIZE as u64
}

fn read_dir_block(
    cache: &BufferCache,
    mem: &ExtInodeMem,
    iblk: u64,
    buf: &mut [u8],
) -> Result<u64> {
    let blk = blkmap::lookup(cache, mem, iblk).ok_or(FsError::Corrupted("ext dir hole"))?;
    cache.read(Cat::Meta, blk, 0, buf);
    Ok(blk)
}

/// Looks up `name`, returning its inode number and type.
pub fn lookup(
    cache: &BufferCache,
    mem: &ExtInodeMem,
    name: &str,
) -> Result<Option<(u64, FileType)>> {
    let mut buf = [0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        read_dir_block(cache, mem, iblk, &mut buf)?;
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
pub fn list(cache: &BufferCache, mem: &ExtInodeMem) -> Result<Vec<DirEntry>> {
    let mut out = Vec::new();
    let mut buf = [0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        read_dir_block(cache, mem, iblk, &mut buf)?;
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
pub fn is_empty(cache: &BufferCache, mem: &ExtInodeMem) -> Result<bool> {
    Ok(list(cache, mem)?.is_empty())
}

/// Adds `name -> ino` (caller verified absence and holds the dir lock).
#[allow(clippy::too_many_arguments)]
pub fn add(
    cache: &BufferCache,
    jbd: &Jbd,
    balloc: &DiskBitmap,
    mem: &mut ExtInodeMem,
    name: &str,
    ino: u64,
    ftype: FileType,
    now: u64,
) -> Result<()> {
    debug_assert!(!name.is_empty() && name.len() <= 255);
    let need = entry_len(name.len());
    let mut buf = [0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        let blk = read_dir_block(cache, mem, iblk, &mut buf)?;
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
            if split_used {
                let host = encode_header(e.ino, entry_len(e.name.len()), e.name.len(), e.ftype);
                let mut new = Vec::with_capacity(free_len);
                new.extend_from_slice(&encode_header(ino, free_len, name.len(), ftype.as_u8()));
                new.extend_from_slice(name.as_bytes());
                new.resize(free_len, 0);
                cache.write(Cat::Meta, blk, free_off, &new, now);
                cache.write(Cat::Meta, blk, off, &host, now);
            } else {
                let (claim_len, rest) = if free_len - need >= HDR {
                    (need, free_len - need)
                } else {
                    (free_len, 0)
                };
                if rest > 0 {
                    let rest_hdr = encode_header(0, rest, 0, 0);
                    cache.write(Cat::Meta, blk, free_off + claim_len, &rest_hdr, now);
                }
                let mut new = Vec::with_capacity(claim_len);
                new.extend_from_slice(&encode_header(ino, claim_len, name.len(), ftype.as_u8()));
                new.extend_from_slice(name.as_bytes());
                new.resize(claim_len, 0);
                cache.write(Cat::Meta, blk, free_off, &new, now);
            }
            jbd.add(cache, blk);
            return Ok(());
        }
    }
    // Grow by one block.
    let iblk = dir_blocks(mem);
    let (blk, _fresh) = blkmap::ensure(cache, jbd, balloc, mem, iblk, now)?;
    let block = fskit::dirent::init_block(BLOCK_SIZE, ino, name, ftype.as_u8());
    cache.write(Cat::Meta, blk, 0, &block, now);
    jbd.add(cache, blk);
    mem.size += BLOCK_SIZE as u64;
    Ok(())
}

/// Removes `name`, returning the inode number and type it pointed at.
pub fn remove(
    cache: &BufferCache,
    jbd: &Jbd,
    mem: &ExtInodeMem,
    name: &str,
    now: u64,
) -> Result<(u64, FileType)> {
    let mut buf = [0u8; BLOCK_SIZE];
    for iblk in 0..dir_blocks(mem) {
        let blk = read_dir_block(cache, mem, iblk, &mut buf)?;
        let entries = parse_block(&buf)?;
        for (i, (off, e)) in entries.iter().enumerate() {
            if e.ino == 0 || e.name != name.as_bytes() {
                continue;
            }
            let ftype = FileType::from_u8(e.ftype).ok_or(FsError::Corrupted("dirent type"))?;
            if i > 0 {
                let (poff, p) = &entries[i - 1];
                let hdr = encode_header(p.ino, p.rec_len + e.rec_len, p.name.len(), p.ftype);
                cache.write(Cat::Meta, blk, *poff, &hdr, now);
            } else {
                let hdr = encode_header(0, e.rec_len, 0, 0);
                cache.write(Cat::Meta, blk, *off, &hdr, now);
            }
            jbd.add(cache, blk);
            return Ok((e.ino, ftype));
        }
    }
    Err(FsError::NotFound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockdev::Nvmmbd;
    use nvmm::{CostModel, NvmmDevice, SimEnv};
    use std::sync::Arc;

    struct Fx {
        cache: BufferCache,
        jbd: Jbd,
        balloc: DiskBitmap,
        mem: ExtInodeMem,
    }

    fn setup() -> Fx {
        let env = SimEnv::new_virtual(CostModel::default());
        let dev = NvmmDevice::new(env, 4096 * BLOCK_SIZE);
        let bd = Arc::new(Nvmmbd::new(dev));
        let cache = BufferCache::new(bd.clone(), 128);
        let jbd = Jbd::open(bd, 1, 32, true);
        let balloc = DiskBitmap::load(&cache, 40, 4096);
        for b in 0..64 {
            balloc.set(&cache, &jbd, b, 0);
        }
        Fx {
            cache,
            jbd,
            balloc,
            mem: ExtInodeMem::new(FileType::Dir, 0),
        }
    }

    #[test]
    fn add_lookup_remove_list() {
        let mut fx = setup();
        add(
            &fx.cache,
            &fx.jbd,
            &fx.balloc,
            &mut fx.mem,
            "a.txt",
            10,
            FileType::File,
            0,
        )
        .unwrap();
        add(
            &fx.cache,
            &fx.jbd,
            &fx.balloc,
            &mut fx.mem,
            "sub",
            11,
            FileType::Dir,
            0,
        )
        .unwrap();
        assert_eq!(
            lookup(&fx.cache, &fx.mem, "a.txt").unwrap(),
            Some((10, FileType::File))
        );
        assert_eq!(lookup(&fx.cache, &fx.mem, "nope").unwrap(), None);
        assert_eq!(list(&fx.cache, &fx.mem).unwrap().len(), 2);
        assert_eq!(
            remove(&fx.cache, &fx.jbd, &fx.mem, "a.txt", 0).unwrap(),
            (10, FileType::File)
        );
        assert_eq!(lookup(&fx.cache, &fx.mem, "a.txt").unwrap(), None);
        assert!(!is_empty(&fx.cache, &fx.mem).unwrap());
        remove(&fx.cache, &fx.jbd, &fx.mem, "sub", 0).unwrap();
        assert!(is_empty(&fx.cache, &fx.mem).unwrap());
    }

    #[test]
    fn grows_and_reuses_space() {
        let mut fx = setup();
        for i in 0..100u64 {
            add(
                &fx.cache,
                &fx.jbd,
                &fx.balloc,
                &mut fx.mem,
                &format!("file-{i:04}"),
                i + 1,
                FileType::File,
                0,
            )
            .unwrap();
        }
        let blocks = fx.mem.blocks;
        for i in 0..100u64 {
            remove(&fx.cache, &fx.jbd, &fx.mem, &format!("file-{i:04}"), 0).unwrap();
        }
        for i in 0..100u64 {
            add(
                &fx.cache,
                &fx.jbd,
                &fx.balloc,
                &mut fx.mem,
                &format!("file2-{i:04}"),
                i + 200,
                FileType::File,
                0,
            )
            .unwrap();
        }
        assert_eq!(fx.mem.blocks, blocks, "space reused, no growth");
        assert_eq!(list(&fx.cache, &fx.mem).unwrap().len(), 100);
    }

    #[test]
    fn dir_edits_are_journaled() {
        let mut fx = setup();
        add(
            &fx.cache,
            &fx.jbd,
            &fx.balloc,
            &mut fx.mem,
            "j",
            5,
            FileType::File,
            0,
        )
        .unwrap();
        assert!(fx.jbd.running_len() > 0, "dir block joined the running tx");
    }
}
