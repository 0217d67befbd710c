//! The three filebench personalities the benchmark drives, their sizes,
//! and the file set they share.
//!
//! Each personality is one loop iteration of filebench's flow, issued
//! through the [`Probe`] so every call is timed and every read checked.
//! Write contents come from [`gen::fill`] with a fresh tag per write.

use std::time::Instant;

use fskit::{Fd, FileSystem, OpenFlags};

use crate::gen::{self, Rng};
use crate::probe::{Diverged, Probe, Shadow, ShadowFile};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole-file writes, appends, whole-file reads, deletes and stats,
    /// no fsync: the lazily written bytes exceed the DRAM buffer.
    Fileserver,
    /// Create/append/fsync, read/append/fsync, read, delete: every write
    /// is synchronized, so the Buffer Benefit Model and the journal run.
    Varmail,
    /// Ten whole-file reads of a cold dataset plus one log append.
    Webserver,
}

/// All workloads, in report order.
pub const ALL_WORKLOADS: [Workload; 3] =
    [Workload::Fileserver, Workload::Varmail, Workload::Webserver];

impl Workload {
    /// The name used on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fileserver => "fileserver",
            Workload::Varmail => "varmail",
            Workload::Webserver => "webserver",
        }
    }

    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        ALL_WORKLOADS.into_iter().find(|w| w.name() == s)
    }

    /// The workload's sizes at benchmark scale.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Fileserver => Spec {
                nfiles: 256,
                mean_file: 128 << 10,
                duration_ns: 300_000_000,
                device_bytes: 128 << 20,
            },
            Workload::Varmail => Spec {
                nfiles: 512,
                mean_file: 16 << 10,
                duration_ns: 400_000_000,
                device_bytes: 64 << 20,
            },
            Workload::Webserver => Spec {
                nfiles: 512,
                mean_file: 32 << 10,
                duration_ns: 200_000_000,
                device_bytes: 128 << 20,
            },
        }
    }
}

/// Sizes of one workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Files in the populated set.
    pub nfiles: usize,
    /// Mean file size; sizes are drawn from half to 1.5× the mean.
    pub mean_file: usize,
    /// Modeled length of the measured phase.
    pub duration_ns: u64,
    /// NVMM device capacity.
    pub device_bytes: usize,
}

/// Workload actors (filebench threads), all on one host thread.
pub const ACTORS: usize = 2;

/// Files per directory.
const DIR_WIDTH: usize = 20;

/// Read and write chunk size: the paper's 1 MiB mean I/O size.
const IOSIZE: usize = 1 << 20;

/// Mean append size (filebench's 16 KiB).
const APPEND: usize = 16 << 10;

/// Log files rotate (truncate to zero) past this size.
pub const LOG_ROTATE_BYTES: u64 = 1 << 20;

impl Spec {
    /// Bytes of the populated set, at the mean size.
    pub fn dataset_bytes(&self) -> usize {
        self.nfiles * self.mean_file
    }

    /// The DRAM buffer: 0.4 × the dataset, the paper's 2 GB / 5 GB.
    pub fn buffer_bytes(&self) -> usize {
        self.dataset_bytes() * 2 / 5
    }

    /// HiNFS mount options: the shipped defaults with the buffer sized to
    /// the dataset and the paper's timers (5 s periodic writeback, 30 s
    /// dirty age, 5 s Eager→Lazy decay, per 60 s run) scaled to the run.
    pub fn hinfs_config(&self) -> hinfs::HinfsConfig {
        let mut c = hinfs::HinfsConfig::default().with_buffer_bytes(self.buffer_bytes());
        c.periodic_wb_ns = self.duration_ns * 5 / 60;
        c.dirty_age_ns = self.duration_ns * 30 / 60;
        c.eager_decay_ns = self.duration_ns * 5 / 60;
        c
    }

    /// PMFS format options.
    pub fn pmfs_options(&self) -> pmfs::PmfsOptions {
        pmfs::PmfsOptions {
            journal_blocks: 2048,
            inode_count: 16384,
        }
    }
}

/// The live file set the actors share.
#[derive(Debug)]
pub struct Fileset {
    ndirs: usize,
    live: Vec<String>,
    next_id: u64,
}

impl Fileset {
    /// Creates the directory tree and the files directly on `fs`,
    /// recording their contents in `shadow`. Also returns the host ns
    /// spent on the load generator's side: generating the contents and copying
    /// them into the shadow.
    pub fn populate(
        fs: &dyn FileSystem,
        spec: &Spec,
        rng: &mut Rng,
        shadow: &mut Shadow,
    ) -> fskit::Result<(Fileset, u64)> {
        let ndirs = spec.nfiles.div_ceil(DIR_WIDTH).max(1);
        fs.mkdir("/data")?;
        shadow.dirs.insert("/data".into());
        for d in 0..ndirs {
            let dir = format!("/data/d{d:04}");
            fs.mkdir(&dir)?;
            shadow.dirs.insert(dir);
        }
        let mut set = Fileset {
            ndirs,
            live: Vec::with_capacity(spec.nfiles),
            next_id: 0,
        };
        let mut buf = Vec::new();
        let mut loadgen_ns = 0;
        for _ in 0..spec.nfiles {
            let path = set.fresh();
            let t = Instant::now();
            buf.resize(rng.around(spec.mean_file), 0);
            gen::fill(rng.next_u64(), 0, &mut buf);
            loadgen_ns += t.elapsed().as_nanos() as u64;
            let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)?;
            fs.write(fd, 0, &buf)?;
            fs.close(fd)?;
            let t = Instant::now();
            shadow.files.insert(
                path.clone(),
                ShadowFile {
                    data: buf.clone(),
                    durable: false,
                },
            );
            loadgen_ns += t.elapsed().as_nanos() as u64;
            set.live.push(path);
        }
        Ok((set, loadgen_ns))
    }

    /// A new file name (not yet live).
    fn fresh(&mut self) -> String {
        let id = self.next_id;
        self.next_id += 1;
        format!("/data/d{:04}/f{id:07}", id % self.ndirs as u64)
    }

    fn pick(&self, rng: &mut Rng) -> Option<String> {
        (!self.live.is_empty()).then(|| self.live[rng.below(self.live.len())].clone())
    }

    fn take(&mut self, rng: &mut Rng) -> Option<String> {
        (self.live.len() > 2).then(|| self.live.swap_remove(rng.below(self.live.len())))
    }
}

/// One filebench thread.
#[derive(Debug)]
pub struct Actor {
    /// Index of the actor (selects its log file).
    pub id: usize,
    /// The actor's own modeled clock.
    pub clock: u64,
    rng: Rng,
    log: Option<Fd>,
    buf: Vec<u8>,
    data: Vec<u8>,
}

impl Actor {
    /// Actor `id` with its own seed-derived input stream.
    pub fn new(id: usize, seed: u64) -> Actor {
        Actor {
            id,
            clock: 0,
            rng: Rng::new(gen::derive(seed, 100 + id as u64)),
            log: None,
            buf: Vec::new(),
            data: Vec::new(),
        }
    }

    /// Calls `f` with fresh content for `len` bytes landing at file
    /// offset `off`.
    fn with_content<R>(&mut self, off: u64, len: usize, f: impl FnOnce(&[u8]) -> R) -> R {
        let mut data = std::mem::take(&mut self.data);
        data.resize(len, 0);
        gen::fill(self.rng.next_u64(), off, &mut data);
        let r = f(&data);
        self.data = data;
        r
    }

    /// Runs one iteration of workload `w`.
    pub fn step(
        &mut self,
        w: Workload,
        spec: &Spec,
        set: &mut Fileset,
        p: &mut Probe,
    ) -> Result<(), Diverged> {
        match w {
            Workload::Fileserver => self.fileserver(spec, set, p),
            Workload::Varmail => self.varmail(set, p),
            Workload::Webserver => self.webserver(set, p),
        }
    }

    fn append_to(&mut self, p: &mut Probe, fd: Fd, path: &str) -> Result<(), Diverged> {
        let n = self.rng.around(APPEND);
        let eof = p.shadow.files[path].data.len() as u64;
        self.with_content(eof, n, |data| p.append(fd, data))
    }

    fn read_file(&mut self, p: &mut Probe, path: &str) -> Result<(), Diverged> {
        if let Some(fd) = p.open(path, OpenFlags::READ)? {
            p.read_whole(fd, IOSIZE, &mut self.buf)?;
            p.close(fd);
        }
        Ok(())
    }

    fn fileserver(
        &mut self,
        spec: &Spec,
        set: &mut Fileset,
        p: &mut Probe,
    ) -> Result<(), Diverged> {
        // createfile + writewholefile + close
        let path = set.fresh();
        let size = self.rng.around(spec.mean_file);
        if let Some(fd) = p.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)? {
            let mut off = 0;
            while off < size {
                let n = (size - off).min(IOSIZE);
                self.with_content(off as u64, n, |data| p.write(fd, off as u64, data))?;
                off += n;
            }
            p.close(fd);
            set.live.push(path);
        }
        // open + appendfilerand + close
        if let Some(path) = set.pick(&mut self.rng) {
            if let Some(fd) = p.open(&path, OpenFlags::RDWR | OpenFlags::APPEND)? {
                self.append_to(p, fd, &path)?;
                p.close(fd);
            }
        }
        // open + readwholefile + close
        if let Some(path) = set.pick(&mut self.rng) {
            self.read_file(p, &path)?;
        }
        // deletefile
        if let Some(path) = set.take(&mut self.rng) {
            p.unlink(&path)?;
        }
        // statfile
        if let Some(path) = set.pick(&mut self.rng) {
            p.stat(&path)?;
        }
        Ok(())
    }

    fn varmail(&mut self, set: &mut Fileset, p: &mut Probe) -> Result<(), Diverged> {
        // deletefile
        if let Some(path) = set.take(&mut self.rng) {
            p.unlink(&path)?;
        }
        // createfile + appendfilerand + fsync + close
        let path = set.fresh();
        if let Some(fd) = p.open(&path, OpenFlags::RDWR | OpenFlags::CREATE)? {
            self.append_to(p, fd, &path)?;
            p.fsync(fd);
            p.close(fd);
            set.live.push(path);
        }
        // openfile + readwholefile + appendfilerand + fsync + close
        if let Some(path) = set.pick(&mut self.rng) {
            if let Some(fd) = p.open(&path, OpenFlags::RDWR)? {
                p.read_whole(fd, IOSIZE, &mut self.buf)?;
                self.append_to(p, fd, &path)?;
                p.fsync(fd);
                p.close(fd);
            }
        }
        // openfile + readwholefile + close
        if let Some(path) = set.pick(&mut self.rng) {
            self.read_file(p, &path)?;
        }
        Ok(())
    }

    fn webserver(&mut self, set: &mut Fileset, p: &mut Probe) -> Result<(), Diverged> {
        for _ in 0..10 {
            if let Some(path) = set.pick(&mut self.rng) {
                self.read_file(p, &path)?;
            }
        }
        // appendlog: one gather write of block-sized slices at EOF.
        let log = format!("/weblog-{}", self.id);
        if self.log.is_none() {
            self.log = p.open(
                &log,
                OpenFlags::RDWR | OpenFlags::CREATE | OpenFlags::APPEND,
            )?;
        }
        let Some(fd) = self.log else { return Ok(()) };
        let eof = p.shadow.files[&log].data.len() as u64;
        self.with_content(eof, APPEND, |data| {
            let iovs: Vec<&[u8]> = data.chunks(nvmm::BLOCK_SIZE).collect();
            p.write_vectored(fd, 0, &iovs)
        })?;
        if p.fstat(fd)?.is_some_and(|st| st.size > LOG_ROTATE_BYTES) {
            p.truncate(fd, 0)?;
        }
        Ok(())
    }

    /// Closes descriptors the actor keeps open across iterations.
    pub fn finish(&mut self, p: &mut Probe) {
        if let Some(fd) = self.log.take() {
            p.close(fd);
        }
    }
}
