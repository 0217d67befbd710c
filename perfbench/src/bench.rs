//! One benchmark round: set-up, the measured phase, the drain, and the
//! checks that must pass before any number is reported.
//!
//! A round builds HiNFS on a fresh emulated device with the public
//! `Hinfs::mkfs`/`Hinfs::mount`, populates the file set, remounts so the
//! buffer starts cold, drives the workload's actors through a [`Probe`],
//! then syncs and unmounts (the drain) and remounts to verify the
//! namespace and every byte. The varmail crash pass runs the same loop on
//! a tracked device and power-fails it instead of draining.

use std::sync::Arc;
use std::time::Instant;

use fskit::{FileSystem, FileType};
use hinfs::Hinfs;
use nvmm::{ledger, CostModel, NvmmDevice, SimEnv};
use obsv::Introspect;

use crate::gen::{self, Rng};
use crate::probe::{check_bytes, Diverged, OpStats, Probe, Shadow, TickStats, ALL_OPS};
use crate::workload::{Actor, Fileset, Spec, Workload};

/// Wraps the mounted file system before the probe sees it. The benchmark
/// itself passes it through unchanged; tests plant faults with it.
pub type Wrap = dyn Fn(Arc<dyn FileSystem>) -> Arc<dyn FileSystem>;

/// How to run a round.
#[derive(Clone)]
pub struct Options {
    pub workload: Workload,
    pub spec: Spec,
    /// Turn on the program's own instrumentation (timing, trace, spans,
    /// contention, lineage) for the measured phase.
    pub traced: bool,
    pub wrap: Option<Arc<Wrap>>,
}

impl Options {
    /// The benchmark's settings for `workload`.
    pub fn new(workload: Workload) -> Options {
        Options {
            workload,
            spec: workload.spec(),
            traced: false,
            wrap: None,
        }
    }

    fn wrapped(&self, fs: Arc<dyn FileSystem>) -> Arc<dyn FileSystem> {
        match &self.wrap {
            Some(w) => w(fs),
            None => fs,
        }
    }
}

/// Host ns per byte a reference host spends on the load generator's set-up work
/// (generating the populated contents and copying them into the shadow).
pub const REF_SETUP_NS_PER_BYTE: f64 = 1.0;

/// Everything one round measured.
#[derive(Debug, Clone)]
pub struct Round {
    pub iterations: u64,
    pub model_elapsed_ns: u64,
    pub ops: [OpStats; ALL_OPS.len()],
    pub tick: TickStats,
    /// Modeled ns of every file system call.
    pub call_model_ns: Vec<u64>,
    /// Modeled and host ns of every workload iteration (the calls of one
    /// filebench flow loop; host time counts only time inside the calls).
    pub iter_model_ns: Vec<u64>,
    pub iter_host_ns: Vec<u64>,
    /// Host ns the load generator spent outside the calls in each iteration.
    pub iter_loadgen_ns: Vec<u64>,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub host_fs_ns: u64,
    pub loadgen_host_ns: u64,
    pub hinfs: hinfs::stats::StatsSnapshot,
    pub dirty_blocks_end: u64,
    pub buffer_blocks: u64,
    pub journal: pmfs::journal::JournalSnapshot,
    pub dev: nvmm::stats::StatsSnapshot,
    pub ledger: ledger::Ledger,
    pub spans: Option<obsv::SpanSnapshot>,
    pub setup_mkfs_ns: u64,
    pub setup_populate_ns: u64,
    /// Host ns of the load generator's own set-up work (contents and shadow) and
    /// the bytes it produced: the speed reference for [`Round::setup_s`].
    pub setup_loadgen_ns: u64,
    pub setup_bytes: u64,
    pub setup_mount_ns: u64,
    pub drain_model_ns: u64,
    pub drain_host_ns: u64,
    pub drain_nvmm_bytes: u64,
}

impl Round {
    /// Set-up seconds (mkfs, populate, unmount and mount) at reference
    /// host speed: the raw host time, scaled by how fast this host ran
    /// the load generator's own set-up work in the same window against
    /// [`REF_SETUP_NS_PER_BYTE`]. On a shared host whose speed drifts
    /// between runs, raw set-up time drifts with it; the scaled time does
    /// not, while work moved into mkfs or mount still shows in full.
    pub fn setup_s(&self) -> f64 {
        let raw = (self.setup_mkfs_ns + self.setup_populate_ns + self.setup_mount_ns) as f64;
        let speed =
            self.setup_bytes as f64 * REF_SETUP_NS_PER_BYTE / self.setup_loadgen_ns.max(1) as f64;
        raw * speed * 1e-9
    }

    /// Bytes the checker sent to the DRAM buffer: the written bytes in
    /// the share of block writes that took the lazy path.
    pub fn lazy_bytes(&self) -> u64 {
        let h = &self.hinfs;
        let all = h.lazy_writes + h.eager_writes + h.sync_writes;
        if all == 0 {
            return 0;
        }
        (self.bytes_written as u128 * h.lazy_writes as u128 / all as u128) as u64
    }

    /// The modeled results that observation must not change.
    fn modeled(&self) -> (u64, u64, &[u64], u64, u64, u64) {
        (
            self.iterations,
            self.model_elapsed_ns,
            &self.call_model_ns,
            self.dev.nvmm_bytes_written,
            self.drain_model_ns,
            self.drain_nvmm_bytes,
        )
    }

    /// Fails unless the traced round `other` modeled exactly what this
    /// untraced round did.
    pub fn check_same_model(&self, other: &Round) -> Result<(), Diverged> {
        if self.modeled() != other.modeled() {
            return Err(Diverged(format!(
                "tracing changed modeled results: untraced {} iterations in {} ns, \
                 {} media bytes, drain {} ns; traced {} iterations in {} ns, {} media bytes, \
                 drain {} ns",
                self.iterations,
                self.model_elapsed_ns,
                self.dev.nvmm_bytes_written,
                self.drain_model_ns,
                other.iterations,
                other.model_elapsed_ns,
                other.dev.nvmm_bytes_written,
                other.drain_model_ns
            )));
        }
        Ok(())
    }
}

fn fs_err(what: &str) -> impl Fn(fskit::FsError) -> Diverged + '_ {
    move |e| Diverged(format!("{what}: {e:?}"))
}

fn audit(fs: &Hinfs, when: &str) -> Result<(), Diverged> {
    let rep = fs.audit();
    match rep.violations.first() {
        None => Ok(()),
        Some(v) => Err(Diverged(format!(
            "audit {when}: {} violations, first {} (ino {} iblk {} got {} want {})",
            rep.violations.len(),
            v.invariant(),
            v.ino,
            v.iblk,
            v.got,
            v.want
        ))),
    }
}

/// A mounted, populated, cold file system ready for the measured phase.
struct Prepared {
    env: Arc<SimEnv>,
    dev: Arc<NvmmDevice>,
    fs: Arc<Hinfs>,
    shadow: Shadow,
    set: Fileset,
    mkfs_ns: u64,
    populate_ns: u64,
    mount_ns: u64,
    populate_loadgen_ns: u64,
}

fn prepare(spec: &Spec, seed: u64, tracked: bool) -> Result<Prepared, Diverged> {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = if tracked {
        NvmmDevice::new_tracked(env.clone(), spec.device_bytes)
    } else {
        NvmmDevice::new(env.clone(), spec.device_bytes)
    };
    let t = Instant::now();
    let fs = Hinfs::mkfs(dev.clone(), spec.pmfs_options(), spec.hinfs_config())
        .map_err(fs_err("mkfs"))?;
    let mkfs_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let mut shadow = Shadow::default();
    let (set, populate_loadgen_ns) =
        Fileset::populate(&*fs, spec, &mut Rng::new(gen::derive(seed, 1)), &mut shadow)
            .map_err(fs_err("populate"))?;
    fs.unmount().map_err(fs_err("unmount after populate"))?;
    let populate_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let fs = Hinfs::mount(dev.clone(), spec.hinfs_config()).map_err(fs_err("mount"))?;
    let mount_ns = t.elapsed().as_nanos() as u64;
    for f in shadow.files.values_mut() {
        f.durable = true;
    }
    // The measured phase starts from an idle device at modeled time 0.
    env.rebase();
    Ok(Prepared {
        env,
        dev,
        fs,
        shadow,
        set,
        mkfs_ns,
        populate_ns,
        mount_ns,
        populate_loadgen_ns,
    })
}

/// What the measured phase produced.
struct Driven {
    /// Modeled time when the last actor finished.
    end: u64,
    iter_model_ns: Vec<u64>,
    iter_host_ns: Vec<u64>,
    iter_loadgen_ns: Vec<u64>,
}

/// Runs the actors until each one's clock passes the run length: the
/// actor with the smallest clock steps next, then background writeback
/// gets its turn at that time.
fn drive(
    w: Workload,
    spec: &Spec,
    seed: u64,
    set: &mut Fileset,
    p: &mut Probe,
    env: &SimEnv,
) -> Result<Driven, Diverged> {
    let mut actors: Vec<Actor> = (0..crate::workload::ACTORS)
        .map(|i| Actor::new(i, seed))
        .collect();
    let mut iter_model_ns = Vec::new();
    let mut iter_host_ns = Vec::new();
    let mut iter_loadgen_ns = Vec::new();
    while let Some(a) = actors
        .iter_mut()
        .filter(|a| a.clock < spec.duration_ns)
        .min_by_key(|a| a.clock)
    {
        env.set_now(a.clock);
        let host0 = p.host_fs_ns();
        let t = Instant::now();
        a.step(w, spec, set, p)?;
        let fs_ns = p.host_fs_ns() - host0;
        iter_host_ns.push(fs_ns);
        iter_loadgen_ns.push((t.elapsed().as_nanos() as u64).saturating_sub(fs_ns));
        iter_model_ns.push(env.now() - a.clock);
        a.clock = env.now();
        p.tick(a.clock);
    }
    for a in &mut actors {
        env.set_now(a.clock);
        a.finish(p);
        a.clock = env.now();
    }
    let end = actors.iter().map(|a| a.clock).max().unwrap_or(0);
    env.set_now(end);
    Ok(Driven {
        end,
        iter_model_ns,
        iter_host_ns,
        iter_loadgen_ns,
    })
}

/// Walks the namespace of `fs` and checks it, and every file's size and
/// bytes, against `shadow`. With `durable_only`, only files whose last
/// change was acknowledged are checked, and extra names are allowed.
fn verify(
    fs: &dyn FileSystem,
    shadow: &Shadow,
    durable_only: bool,
    when: &str,
) -> Result<(), Diverged> {
    let mut files = Vec::new();
    let mut dirs = Vec::new();
    let mut stack = vec![String::from("/")];
    while let Some(dir) = stack.pop() {
        for e in fs
            .readdir(&dir)
            .map_err(fs_err(&format!("{when}: readdir {dir}")))?
        {
            let path = if dir == "/" {
                format!("/{}", e.name)
            } else {
                format!("{dir}/{}", e.name)
            };
            match e.ftype {
                FileType::Dir => {
                    stack.push(path.clone());
                    dirs.push(path);
                }
                FileType::File => files.push(path),
            }
        }
    }
    if !durable_only {
        dirs.sort();
        files.sort();
        let want_dirs: Vec<&String> = shadow.dirs.iter().collect();
        let want_files: Vec<&String> = shadow.files.keys().collect();
        if dirs.iter().collect::<Vec<_>>() != want_dirs {
            return Err(Diverged(format!(
                "{when}: directories differ from the ones created"
            )));
        }
        if let Some(i) = (0..files.len().max(want_files.len()))
            .find(|&i| files.get(i) != want_files.get(i).copied())
        {
            return Err(Diverged(format!(
                "{when}: namespace differs at entry {i}: found {:?}, expected {:?}",
                files.get(i),
                want_files.get(i)
            )));
        }
    }
    let mut buf = Vec::new();
    for (path, f) in &shadow.files {
        if durable_only && !f.durable {
            continue;
        }
        let st = fs
            .stat(path)
            .map_err(fs_err(&format!("{when}: stat {path}")))?;
        if st.size != f.data.len() as u64 {
            return Err(Diverged(format!(
                "{when}: {path} has size {}, expected {}",
                st.size,
                f.data.len()
            )));
        }
        let fd = fs
            .open(path, fskit::OpenFlags::READ)
            .map_err(fs_err(&format!("{when}: open {path}")))?;
        buf.resize(f.data.len(), 0);
        let n = fs
            .read(fd, 0, &mut buf)
            .map_err(fs_err(&format!("{when}: read {path}")))?;
        check_bytes(&format!("{when}: {path}"), 0, &buf[..n], &f.data)?;
        fs.close(fd)
            .map_err(fs_err(&format!("{when}: close {path}")))?;
    }
    Ok(())
}

/// Turns on the instrumentation the program already has.
fn instrument(fs: &Hinfs, dev: &NvmmDevice, env: &SimEnv) {
    fs.obs().set_timing(true);
    fs.obs().set_tracing(true);
    fs.obs().lineage().set_enabled(true);
    dev.spans().set_enabled(true);
    env.contention().set_level(obsv::Level::Full);
}

/// Runs one measured round with input seed `seed`.
pub fn round(opts: &Options, seed: u64) -> Result<Round, Diverged> {
    let spec = &opts.spec;
    let Prepared {
        env,
        dev,
        fs,
        shadow,
        mut set,
        mkfs_ns,
        populate_ns,
        mount_ns,
        populate_loadgen_ns,
    } = prepare(spec, seed, false)?;
    if opts.traced {
        instrument(&fs, &dev, &env);
    }
    let cfg = fs.config().clone();
    let shadow_bytes = shadow.files.values().map(|f| f.data.len() as u64).sum();
    let mut probe = Probe::new(opts.wrapped(fs.clone()), env.clone(), shadow);
    let ledger0 = ledger::snapshot();
    let dev0 = dev.stats().snapshot();
    let journal0 = fs.pmfs().journal().stats().snapshot();
    let hinfs0 = fs.stats().snapshot();
    let spans0 = dev.spans().snapshot();

    let t = Instant::now();
    let driven = drive(opts.workload, spec, seed, &mut set, &mut probe, &env)?;
    let (iterations, end) = (driven.iter_model_ns.len() as u64, driven.end);
    let loop_ns = t.elapsed().as_nanos() as u64;

    let dev1 = dev.stats().snapshot();
    let mut r = Round {
        iterations,
        model_elapsed_ns: end,
        ops: probe.ops,
        tick: probe.tick,
        call_model_ns: std::mem::take(&mut probe.call_model_ns),
        iter_model_ns: driven.iter_model_ns,
        iter_host_ns: driven.iter_host_ns,
        iter_loadgen_ns: driven.iter_loadgen_ns,
        bytes_written: probe.bytes_written,
        bytes_read: probe.bytes_read,
        host_fs_ns: probe.host_fs_ns(),
        loadgen_host_ns: loop_ns.saturating_sub(probe.host_fs_ns()),
        hinfs: fs.stats().snapshot().since(&hinfs0),
        dirty_blocks_end: fs.dirty_blocks() as u64,
        buffer_blocks: fs.buffer_capacity() as u64,
        journal: fs.pmfs().journal().stats().snapshot().since(&journal0),
        dev: dev1.since(&dev0),
        ledger: ledger::snapshot().since(&ledger0),
        spans: opts.traced.then(|| dev.spans().snapshot().since(&spans0)),
        setup_mkfs_ns: mkfs_ns,
        setup_populate_ns: populate_ns,
        setup_loadgen_ns: populate_loadgen_ns,
        setup_bytes: shadow_bytes,
        setup_mount_ns: mount_ns,
        drain_model_ns: 0,
        drain_host_ns: 0,
        drain_nvmm_bytes: 0,
    };
    check_regime(opts.workload, &r)?;
    audit(&fs, "at run end")?;

    // The drain: make every acknowledged byte durable.
    let t = Instant::now();
    fs.sync().map_err(fs_err("sync"))?;
    fs.unmount().map_err(fs_err("unmount"))?;
    r.drain_host_ns = t.elapsed().as_nanos() as u64;
    r.drain_model_ns = env.now() - end;
    r.drain_nvmm_bytes = dev.stats().snapshot().since(&dev1).nvmm_bytes_written;
    let shadow = std::mem::take(&mut probe.shadow);
    drop(probe);
    drop(fs);

    let fs = Hinfs::mount(dev.clone(), cfg).map_err(fs_err("remount for verification"))?;
    audit(&fs, "after remount")?;
    verify(&*fs, &shadow, false, "after remount")?;
    fs.unmount().map_err(fs_err("unmount after verification"))?;
    Ok(r)
}

/// Fails unless the round ran the mechanism its workload exists to
/// measure. Only counters the input forces are gated.
pub fn check_regime(w: Workload, r: &Round) -> Result<(), Diverged> {
    let fail = |what: String| Err(Diverged(format!("{} left its regime: {what}", w.name())));
    match w {
        Workload::Fileserver => {
            let cap = r.buffer_blocks * nvmm::BLOCK_SIZE as u64;
            if r.lazy_bytes() <= cap {
                return fail(format!(
                    "{} lazily written bytes <= buffer {cap}",
                    r.lazy_bytes()
                ));
            }
            if r.hinfs.writeback_blocks == 0 {
                return fail("no buffer block was written back".into());
            }
        }
        Workload::Varmail => {
            if r.hinfs.bbm_evals == 0 {
                return fail("no Buffer Benefit Model evaluation".into());
            }
            if r.journal.commits == 0 {
                return fail("no journal commit".into());
            }
        }
        Workload::Webserver => {
            if r.dev.nvmm_bytes_read * 2 < r.bytes_read {
                return fail(format!(
                    "{} NVMM bytes read for {} user bytes read",
                    r.dev.nvmm_bytes_read, r.bytes_read
                ));
            }
        }
    }
    Ok(())
}

/// The varmail durability check: drive the workload on a tracked device,
/// power-fail it without a sync, remount (running journal recovery) and
/// read back every file whose last change was fsync-acknowledged.
/// Returns how many files it read back.
pub fn crash_pass(opts: &Options, seed: u64) -> Result<u64, Diverged> {
    let spec = &opts.spec;
    let Prepared {
        env,
        dev,
        fs,
        shadow,
        mut set,
        ..
    } = prepare(spec, seed, true)?;
    let cfg = fs.config().clone();
    let mut probe = Probe::new(opts.wrapped(fs.clone()), env.clone(), shadow);
    drive(opts.workload, spec, seed, &mut set, &mut probe, &env)?;
    let shadow = std::mem::take(&mut probe.shadow);
    drop(probe);
    drop(fs);
    dev.crash();
    let fs = Hinfs::mount(dev.clone(), cfg).map_err(fs_err("crash: recovery mount"))?;
    audit(&fs, "after crash recovery")?;
    verify(&*fs, &shadow, true, "after crash recovery")?;
    fs.unmount().map_err(fs_err("crash: unmount"))?;
    Ok(shadow.files.values().filter(|f| f.durable).count() as u64)
}
