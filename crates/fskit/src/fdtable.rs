//! A file descriptor table shared by every file system implementation.

use std::sync::Arc;

use obsv::{ContentionTable, Site, TrackedMutex};

use crate::error::{FsError, Result};
use crate::types::Fd;

/// Maps descriptors to per-open state of type `T`.
///
/// Descriptors are reused lowest-first like POSIX. The table sits behind
/// a single mutex; descriptor operations are rare compared to I/O.
#[derive(Debug)]
pub struct FdTable<T> {
    inner: TrackedMutex<Inner<T>>,
}

#[derive(Debug)]
struct Inner<T> {
    slots: Vec<Option<Arc<T>>>,
    free: Vec<usize>,
}

impl<T> Default for FdTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FdTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        FdTable {
            inner: TrackedMutex::new(
                Site::FskitFdtable,
                Inner {
                    slots: Vec::new(),
                    free: Vec::new(),
                },
            ),
        }
    }

    /// Connects the table's lock to a contention profiler (first caller
    /// wins). File systems call this at mount.
    pub fn attach_contention(&self, table: &Arc<ContentionTable>) {
        self.inner.attach(table);
    }

    /// Inserts per-open state and returns its descriptor.
    pub fn insert(&self, state: T) -> Fd {
        let mut inner = self.inner.lock();
        let state = Arc::new(state);
        match inner.free.pop() {
            Some(idx) => {
                inner.slots[idx] = Some(state);
                idx as Fd
            }
            None => {
                inner.slots.push(Some(state));
                (inner.slots.len() - 1) as Fd
            }
        }
    }

    /// Looks up an open descriptor.
    pub fn get(&self, fd: Fd) -> Result<Arc<T>> {
        let inner = self.inner.lock();
        inner
            .slots
            .get(fd as usize)
            .and_then(|s| s.clone())
            .ok_or(FsError::BadFd)
    }

    /// Closes a descriptor, returning its state (other clones may survive).
    pub fn remove(&self, fd: Fd) -> Result<Arc<T>> {
        let mut inner = self.inner.lock();
        let slot = inner.slots.get_mut(fd as usize).ok_or(FsError::BadFd)?;
        let state = slot.take().ok_or(FsError::BadFd)?;
        inner.free.push(fd as usize);
        Ok(state)
    }

    /// Number of currently open descriptors.
    pub fn open_count(&self) -> usize {
        let inner = self.inner.lock();
        inner.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Snapshot of all open states (used by `sync`/`unmount`).
    pub fn all(&self) -> Vec<Arc<T>> {
        let inner = self.inner.lock();
        inner.slots.iter().filter_map(|s| s.clone()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let t: FdTable<String> = FdTable::new();
        let fd = t.insert("hello".into());
        assert_eq!(*t.get(fd).unwrap(), "hello");
        t.remove(fd).unwrap();
        assert_eq!(t.get(fd), Err(FsError::BadFd));
        assert_eq!(t.remove(fd), Err(FsError::BadFd));
    }

    #[test]
    fn descriptors_are_reused() {
        let t: FdTable<u32> = FdTable::new();
        let a = t.insert(1);
        let b = t.insert(2);
        t.remove(a).unwrap();
        let c = t.insert(3);
        assert_eq!(c, a, "lowest freed descriptor is reused");
        assert_eq!(*t.get(b).unwrap(), 2);
        assert_eq!(*t.get(c).unwrap(), 3);
    }

    #[test]
    fn open_count_and_all() {
        let t: FdTable<u32> = FdTable::new();
        let a = t.insert(1);
        let _b = t.insert(2);
        assert_eq!(t.open_count(), 2);
        t.remove(a).unwrap();
        assert_eq!(t.open_count(), 1);
        let all: Vec<u32> = t.all().iter().map(|x| **x).collect();
        assert_eq!(all, vec![2]);
    }

    #[test]
    fn unknown_fd_is_badfd() {
        let t: FdTable<u32> = FdTable::new();
        assert_eq!(t.get(42), Err(FsError::BadFd));
    }
}
