//! The shared on-media directory entry format (ext2-style variable-length
//! records), used by both the PMFS-family and the ext-family file systems.
//!
//! Entry layout (byte offsets within an entry):
//!
//! ```text
//! 0..8   ino      (0 = free space)
//! 8..10  rec_len  (multiple of 4; entries tile the block exactly)
//! 10     name_len
//! 11     ftype
//! 12..   name bytes, padded to rec_len
//! ```

use crate::error::{FsError, Result};

/// Fixed header bytes of an entry.
pub const HDR: usize = 12;

fn align4(n: usize) -> usize {
    (n + 3) & !3
}

/// Bytes an entry with an `n`-byte name occupies at minimum.
pub fn entry_len(n: usize) -> usize {
    align4(HDR + n)
}

/// A decoded directory entry record, borrowing its name from the block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEntry<'a> {
    /// Target inode; 0 marks free space.
    pub ino: u64,
    /// Total record length including padding.
    pub rec_len: usize,
    /// On-media file type byte.
    pub ftype: u8,
    /// Name bytes (empty for free records).
    pub name: &'a [u8],
}

/// Encodes an entry header.
pub fn encode_header(ino: u64, rec_len: usize, name_len: usize, ftype: u8) -> [u8; HDR] {
    let mut h = [0u8; HDR];
    h[0..8].copy_from_slice(&ino.to_le_bytes());
    h[8..10].copy_from_slice(&(rec_len as u16).to_le_bytes());
    h[10] = name_len as u8;
    h[11] = ftype;
    h
}

/// Parses one directory block into `(offset, entry)` pairs, validating the
/// record chain tiles the block exactly.
pub fn parse_block(buf: &[u8]) -> Result<Vec<(usize, RawEntry<'_>)>> {
    let block_size = buf.len();
    let mut out = Vec::new();
    let mut off = 0;
    while off < block_size {
        if off + HDR > block_size {
            return Err(FsError::Corrupted("dirent header past block end"));
        }
        let ino = u64::from_le_bytes(buf[off..off + 8].try_into().unwrap());
        let rec_len = u16::from_le_bytes(buf[off + 8..off + 10].try_into().unwrap()) as usize;
        let name_len = buf[off + 10] as usize;
        let ftype = buf[off + 11];
        if rec_len < HDR || !rec_len.is_multiple_of(4) || off + rec_len > block_size {
            return Err(FsError::Corrupted("dirent rec_len"));
        }
        if ino != 0 && HDR + name_len > rec_len {
            return Err(FsError::Corrupted("dirent name_len"));
        }
        let name = if ino != 0 {
            &buf[off + HDR..off + HDR + name_len]
        } else {
            &[]
        };
        out.push((
            off,
            RawEntry {
                ino,
                rec_len,
                ftype,
                name,
            },
        ));
        off += rec_len;
    }
    Ok(out)
}

/// Builds a fresh directory block containing one entry followed by a free
/// record covering the remainder.
pub fn init_block(block_size: usize, ino: u64, name: &str, ftype: u8) -> Vec<u8> {
    let need = entry_len(name.len());
    debug_assert!(need + HDR <= block_size);
    let mut block = vec![0u8; block_size];
    block[0..HDR].copy_from_slice(&encode_header(ino, need, name.len(), ftype));
    block[HDR..HDR + name.len()].copy_from_slice(name.as_bytes());
    block[need..need + HDR].copy_from_slice(&encode_header(0, block_size - need, 0, 0));
    block
}

/// Builds an empty directory block (one free record).
pub fn empty_block(block_size: usize) -> Vec<u8> {
    let mut block = vec![0u8; block_size];
    block[0..HDR].copy_from_slice(&encode_header(0, block_size, 0, 0));
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_len_alignment() {
        assert_eq!(entry_len(0), 12);
        assert_eq!(entry_len(1), 16);
        assert_eq!(entry_len(4), 16);
        assert_eq!(entry_len(5), 20);
        assert_eq!(entry_len(255), align4(267));
    }

    #[test]
    fn parse_init_block() {
        let b = init_block(4096, 7, "hello", 1);
        let entries = parse_block(&b).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].1.ino, 7);
        assert_eq!(entries[0].1.name, b"hello");
        assert_eq!(entries[1].1.ino, 0);
        assert_eq!(entries[0].1.rec_len + entries[1].1.rec_len, 4096);
    }

    #[test]
    fn parse_empty_block() {
        let b = empty_block(4096);
        let entries = parse_block(&b).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1.ino, 0);
        assert_eq!(entries[0].1.rec_len, 4096);
    }

    #[test]
    fn corrupt_chain_rejected() {
        let mut b = empty_block(4096);
        // rec_len 0.
        b[8] = 0;
        b[9] = 0;
        assert!(parse_block(&b).is_err());
        // rec_len unaligned.
        let mut b = empty_block(4096);
        b[8..10].copy_from_slice(&13u16.to_le_bytes());
        assert!(parse_block(&b).is_err());
        // name_len beyond rec_len.
        let mut b = init_block(4096, 1, "ab", 1);
        b[10] = 200;
        assert!(parse_block(&b).is_err());
    }
}
