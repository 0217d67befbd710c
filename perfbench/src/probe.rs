//! The benchmark's timing-and-checking layer around [`FileSystem`].
//!
//! Every call the workload makes goes through a [`Probe`], which
//!
//! - times it twice: in modeled ns (the `nvmm` virtual clock of the
//!   calling actor) and in host ns (`Instant` around the trait call);
//! - counts calls and errors per operation kind;
//! - keeps a path-keyed shadow of every byte the load generator wrote and checks
//!   every read, `stat` size and append offset against it.
//!
//! A disagreement with the shadow is a [`Diverged`] error that ends the
//! run. A call that returns an error is counted as failed; the shadow
//! then re-reads the touched file so later checks stay exact.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

use fskit::{Fd, FileSystem, FsError, OpenFlags, Stat};
use nvmm::SimEnv;

/// Operation kinds counted at the trait boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Open,
    Close,
    Read,
    /// `write` and `write_vectored`.
    Write,
    Append,
    Fsync,
    Unlink,
    /// `stat` and `fstat`.
    Stat,
    Truncate,
}

/// All [`Op`]s in report order.
pub const ALL_OPS: [Op; 9] = [
    Op::Open,
    Op::Close,
    Op::Read,
    Op::Write,
    Op::Append,
    Op::Fsync,
    Op::Unlink,
    Op::Stat,
    Op::Truncate,
];

impl Op {
    /// Metric label.
    pub fn label(self) -> &'static str {
        match self {
            Op::Open => "open",
            Op::Close => "close",
            Op::Read => "read",
            Op::Write => "write",
            Op::Append => "append",
            Op::Fsync => "fsync",
            Op::Unlink => "unlink",
            Op::Stat => "stat",
            Op::Truncate => "truncate",
        }
    }
}

/// Per-operation totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    pub calls: u64,
    pub errors: u64,
    pub model_ns: u64,
    pub host_ns: u64,
}

/// Totals of the `tick` calls that give background writeback its turn.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickStats {
    pub calls: u64,
    pub host_ns: u64,
}

/// The output check failed: the file system returned bytes, sizes or
/// offsets other than the ones the load generator wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diverged(pub String);

impl std::fmt::Display for Diverged {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// What the shadow knows about one file.
#[derive(Debug, Clone, Default)]
pub struct ShadowFile {
    /// Every byte of the file, as the load generator wrote it.
    pub data: Vec<u8>,
    /// Whether the file's last change was acknowledged by `fsync` (or by
    /// the unmount that ended set-up), so it must survive a crash.
    pub durable: bool,
}

/// The path-keyed shadow of the namespace and file contents.
#[derive(Debug, Clone, Default)]
pub struct Shadow {
    pub files: BTreeMap<String, ShadowFile>,
    pub dirs: BTreeSet<String>,
}

/// Returns the first offset at which `got` and `want` differ.
fn first_diff(got: &[u8], want: &[u8]) -> Option<usize> {
    if got == want {
        return None;
    }
    Some(
        got.iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len())),
    )
}

/// Checks that `got`, read at `off` of `path`, matches the shadow bytes.
pub fn check_bytes(path: &str, off: u64, got: &[u8], want: &[u8]) -> Result<(), Diverged> {
    match first_diff(got, want) {
        None => Ok(()),
        Some(i) => Err(Diverged(format!(
            "{path}: byte {} read {:#04x}, wrote {:#04x} ({} bytes read, {} expected)",
            off + i as u64,
            got.get(i).copied().unwrap_or(0),
            want.get(i).copied().unwrap_or(0),
            got.len(),
            want.len()
        ))),
    }
}

struct OpenFile {
    path: String,
    append: bool,
}

/// The timing-and-checking wrapper. See the module documentation.
pub struct Probe {
    fs: Arc<dyn FileSystem>,
    env: Arc<SimEnv>,
    pub shadow: Shadow,
    fds: HashMap<Fd, OpenFile>,
    pub ops: [OpStats; ALL_OPS.len()],
    pub tick: TickStats,
    /// Modeled ns of every call, in call order.
    pub call_model_ns: Vec<u64>,
    /// User bytes the load generator wrote and read through the probe.
    pub bytes_written: u64,
    pub bytes_read: u64,
}

impl Probe {
    /// Wraps `fs`, whose namespace and contents `shadow` describes.
    pub fn new(fs: Arc<dyn FileSystem>, env: Arc<SimEnv>, shadow: Shadow) -> Probe {
        Probe {
            fs,
            env,
            shadow,
            fds: HashMap::new(),
            ops: [OpStats::default(); ALL_OPS.len()],
            tick: TickStats::default(),
            call_model_ns: Vec::new(),
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Host ns spent inside file system calls and ticks.
    pub fn host_fs_ns(&self) -> u64 {
        self.ops.iter().map(|s| s.host_ns).sum::<u64>() + self.tick.host_ns
    }

    fn call<T>(
        &mut self,
        op: Op,
        f: impl FnOnce(&dyn FileSystem) -> fskit::Result<T>,
    ) -> fskit::Result<T> {
        let m0 = self.env.now();
        let h0 = Instant::now();
        let r = f(&*self.fs);
        let host = h0.elapsed().as_nanos() as u64;
        let model = self.env.now().saturating_sub(m0);
        let s = &mut self.ops[op as usize];
        s.calls += 1;
        s.model_ns += model;
        s.host_ns += host;
        if r.is_err() {
            s.errors += 1;
        }
        self.call_model_ns.push(model);
        r
    }

    /// Gives background machinery its turn at modeled time `now`.
    pub fn tick(&mut self, now: u64) {
        let h0 = Instant::now();
        self.fs.tick(now);
        self.tick.host_ns += h0.elapsed().as_nanos() as u64;
        self.tick.calls += 1;
    }

    /// Handles a call on `path` that returned `e`. A file the shadow holds
    /// must not be missing. Otherwise the shadow re-reads the file
    /// (untimed), so later checks compare against what the file system
    /// really holds.
    fn failed(&mut self, path: &str, e: FsError) -> Result<(), Diverged> {
        if matches!(e, FsError::NotFound) && self.shadow.files.contains_key(path) {
            return Err(Diverged(format!(
                "{path}: not found, but it was never deleted"
            )));
        }
        self.resync(path)
    }

    fn resync(&mut self, path: &str) -> Result<(), Diverged> {
        let fs = &*self.fs;
        let lost = |e: FsError| Diverged(format!("{path}: re-reading after a failed call: {e:?}"));
        match fs.stat(path) {
            Err(FsError::NotFound) => {
                self.shadow.files.remove(path);
                Ok(())
            }
            Err(e) => Err(lost(e)),
            Ok(st) => {
                let fd = fs.open(path, OpenFlags::READ).map_err(lost)?;
                let mut data = vec![0u8; st.size as usize];
                let n = fs.read(fd, 0, &mut data).map_err(lost)?;
                fs.close(fd).map_err(lost)?;
                data.truncate(n);
                self.shadow.files.insert(
                    path.to_string(),
                    ShadowFile {
                        data,
                        durable: false,
                    },
                );
                Ok(())
            }
        }
    }

    fn path_of(&self, fd: Fd) -> String {
        self.fds
            .get(&fd)
            .map(|f| f.path.clone())
            .expect("the load generator only uses descriptors it opened")
    }

    /// `open`; `Ok(None)` when the call failed.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Option<Fd>, Diverged> {
        match self.call(Op::Open, |fs| fs.open(path, flags)) {
            Ok(fd) => {
                if flags.contains(OpenFlags::CREATE) && !self.shadow.files.contains_key(path) {
                    self.shadow
                        .files
                        .insert(path.to_string(), ShadowFile::default());
                } else if !self.shadow.files.contains_key(path) {
                    return Err(Diverged(format!(
                        "{path}: opened, but it was never created"
                    )));
                }
                if flags.contains(OpenFlags::TRUNC) {
                    let f = self.shadow.files.get_mut(path).expect("inserted above");
                    f.data.clear();
                    f.durable = false;
                }
                self.fds.insert(
                    fd,
                    OpenFile {
                        path: path.to_string(),
                        append: flags.contains(OpenFlags::APPEND),
                    },
                );
                Ok(Some(fd))
            }
            Err(FsError::NotFound) if !self.shadow.files.contains_key(path) => Ok(None),
            Err(e) => self.failed(path, e).map(|()| None),
        }
    }

    /// `close`.
    pub fn close(&mut self, fd: Fd) {
        self.fds.remove(&fd);
        let _ = self.call(Op::Close, |fs| fs.close(fd));
    }

    /// Reads the whole file in `chunk`-byte reads after an `fstat`,
    /// checking the size and every byte against the shadow.
    pub fn read_whole(&mut self, fd: Fd, chunk: usize, buf: &mut Vec<u8>) -> Result<(), Diverged> {
        let path = self.path_of(fd);
        let Some(size) = self.fstat(fd)?.map(|s| s.size) else {
            return Ok(());
        };
        buf.resize(chunk.max(1), 0);
        let mut off = 0u64;
        while off < size {
            let Ok(n) = self.call(Op::Read, |fs| fs.read(fd, off, buf)) else {
                return Ok(());
            };
            let want = &self.shadow.files[&path].data;
            let end = (off as usize + buf.len()).min(want.len());
            check_bytes(&path, off, &buf[..n], &want[off as usize..end])?;
            self.bytes_read += n as u64;
            if n == 0 {
                break;
            }
            off += n as u64;
        }
        Ok(())
    }

    /// `fstat`, checking the size.
    pub fn fstat(&mut self, fd: Fd) -> Result<Option<Stat>, Diverged> {
        let path = self.path_of(fd);
        let Ok(st) = self.call(Op::Stat, |fs| fs.fstat(fd)) else {
            return Ok(None);
        };
        self.check_size(&path, st.size)?;
        Ok(Some(st))
    }

    /// `stat`, checking existence and size.
    pub fn stat(&mut self, path: &str) -> Result<(), Diverged> {
        match self.call(Op::Stat, |fs| fs.stat(path)) {
            Ok(st) => self.check_size(path, st.size),
            Err(FsError::NotFound) if !self.shadow.files.contains_key(path) => Ok(()),
            Err(e) => self.failed(path, e),
        }
    }

    fn check_size(&self, path: &str, size: u64) -> Result<(), Diverged> {
        let want = self.shadow.files.get(path).map(|f| f.data.len() as u64);
        if want != Some(size) {
            return Err(Diverged(format!("{path}: size {size}, expected {want:?}")));
        }
        Ok(())
    }

    /// Applies a successful write of `data` at `off` to the shadow.
    fn apply(&mut self, path: &str, off: u64, data: &[&[u8]]) {
        let f = self
            .shadow
            .files
            .get_mut(path)
            .expect("open file is shadowed");
        let mut pos = off as usize;
        for d in data {
            let end = pos + d.len();
            if f.data.len() < end {
                f.data.resize(end, 0);
            }
            f.data[pos..end].copy_from_slice(d);
            pos = end;
            self.bytes_written += d.len() as u64;
        }
        f.durable = false;
    }

    /// Positional `write`.
    pub fn write(&mut self, fd: Fd, off: u64, data: &[u8]) -> Result<(), Diverged> {
        let path = self.path_of(fd);
        match self.call(Op::Write, |fs| fs.write(fd, off, data)) {
            Ok(n) if n == data.len() => {
                self.apply(&path, off, &[data]);
                Ok(())
            }
            Ok(n) => Err(Diverged(format!(
                "{path}: short write {n} of {}",
                data.len()
            ))),
            Err(e) => self.failed(&path, e),
        }
    }

    /// Gather write. On an `APPEND` descriptor the run lands at EOF.
    pub fn write_vectored(&mut self, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<(), Diverged> {
        let path = self.path_of(fd);
        let total: usize = iovs.iter().map(|s| s.len()).sum();
        let at = if self.fds[&fd].append {
            self.shadow.files[&path].data.len() as u64
        } else {
            off
        };
        match self.call(Op::Write, |fs| fs.write_vectored(fd, off, iovs)) {
            Ok(n) if n == total => {
                self.apply(&path, at, iovs);
                Ok(())
            }
            Ok(n) => Err(Diverged(format!(
                "{path}: short gather write {n} of {total}"
            ))),
            Err(e) => self.failed(&path, e),
        }
    }

    /// `append`, checking that the data landed at the old end of file.
    pub fn append(&mut self, fd: Fd, data: &[u8]) -> Result<(), Diverged> {
        let path = self.path_of(fd);
        let eof = self.shadow.files[&path].data.len() as u64;
        match self.call(Op::Append, |fs| fs.append(fd, data)) {
            Ok(at) if at == eof => {
                self.apply(&path, at, &[data]);
                Ok(())
            }
            Ok(at) => Err(Diverged(format!(
                "{path}: append landed at {at}, EOF was {eof}"
            ))),
            Err(e) => self.failed(&path, e),
        }
    }

    /// `fsync`; on success the file's current contents must survive a
    /// crash.
    pub fn fsync(&mut self, fd: Fd) {
        let path = self.path_of(fd);
        if self.call(Op::Fsync, |fs| fs.fsync(fd)).is_ok() {
            if let Some(f) = self.shadow.files.get_mut(&path) {
                f.durable = true;
            }
        }
    }

    /// `truncate`.
    pub fn truncate(&mut self, fd: Fd, size: u64) -> Result<(), Diverged> {
        let path = self.path_of(fd);
        match self.call(Op::Truncate, |fs| fs.truncate(fd, size)) {
            Ok(()) => {
                let f = self
                    .shadow
                    .files
                    .get_mut(&path)
                    .expect("open file is shadowed");
                f.data.resize(size as usize, 0);
                f.durable = false;
                Ok(())
            }
            Err(e) => self.failed(&path, e),
        }
    }

    /// `unlink`.
    pub fn unlink(&mut self, path: &str) -> Result<(), Diverged> {
        match self.call(Op::Unlink, |fs| fs.unlink(path)) {
            Ok(()) => {
                self.shadow.files.remove(path);
                Ok(())
            }
            Err(e) => self.failed(path, e),
        }
    }
}
