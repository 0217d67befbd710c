//! Planted faults the benchmark must catch, plus the agreement between
//! `BENCHMARK.json` and the metrics a run prints.
//!
//! Each fault sits in a wrapper between the probe and HiNFS. Sizes are
//! smaller than the benchmark's so the suite stays quick; run it with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fskit::{DirEntry, Fd, FileSystem, OpenFlags, Result, Stat};
use perfbench::bench::{self, Options};
use perfbench::workload::Workload;

#[derive(Clone, Copy)]
enum Fault {
    /// Flip one byte of the n-th non-empty read.
    FlipRead(u64),
    /// Acknowledge the n-th append without writing it.
    DropAppend(u64),
    /// Open every file `O_SYNC`, so no write is lazy.
    SyncEverything,
    /// Busy-wait this long in every write.
    SlowWrite(Duration),
}

struct Planted {
    inner: Arc<dyn FileSystem>,
    fault: Fault,
    reads: AtomicU64,
    appends: Arc<AtomicU64>,
}

impl Planted {
    fn wrap(fault: Fault, appends: Arc<AtomicU64>) -> Arc<bench::Wrap> {
        Arc::new(move |inner| {
            Arc::new(Planted {
                inner,
                fault,
                reads: AtomicU64::new(0),
                appends: appends.clone(),
            }) as Arc<dyn FileSystem>
        })
    }

    fn slow(&self) {
        if let Fault::SlowWrite(d) = self.fault {
            let t = Instant::now();
            while t.elapsed() < d {
                std::hint::spin_loop();
            }
        }
    }
}

impl FileSystem for Planted {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn open(&self, path: &str, flags: OpenFlags) -> Result<Fd> {
        let flags = match self.fault {
            Fault::SyncEverything => flags | OpenFlags::SYNC,
            _ => flags,
        };
        self.inner.open(path, flags)
    }
    fn close(&self, fd: Fd) -> Result<()> {
        self.inner.close(fd)
    }
    fn read(&self, fd: Fd, off: u64, buf: &mut [u8]) -> Result<usize> {
        let n = self.inner.read(fd, off, buf)?;
        if let Fault::FlipRead(at) = self.fault {
            if n > 0 && self.reads.fetch_add(1, Ordering::Relaxed) == at {
                buf[n / 2] ^= 0x01;
            }
        }
        Ok(n)
    }
    fn write(&self, fd: Fd, off: u64, data: &[u8]) -> Result<usize> {
        let r = self.inner.write(fd, off, data);
        self.slow();
        r
    }
    fn write_vectored(&self, fd: Fd, off: u64, iovs: &[&[u8]]) -> Result<usize> {
        let r = self.inner.write_vectored(fd, off, iovs);
        self.slow();
        r
    }
    fn append(&self, fd: Fd, data: &[u8]) -> Result<u64> {
        let n = self.appends.fetch_add(1, Ordering::Relaxed);
        match self.fault {
            Fault::DropAppend(at) if n == at => Ok(self.inner.fstat(fd)?.size),
            _ => self.inner.append(fd, data),
        }
    }
    fn fsync(&self, fd: Fd) -> Result<()> {
        self.inner.fsync(fd)
    }
    fn truncate(&self, fd: Fd, size: u64) -> Result<()> {
        self.inner.truncate(fd, size)
    }
    fn unlink(&self, path: &str) -> Result<()> {
        self.inner.unlink(path)
    }
    fn mkdir(&self, path: &str) -> Result<()> {
        self.inner.mkdir(path)
    }
    fn rmdir(&self, path: &str) -> Result<()> {
        self.inner.rmdir(path)
    }
    fn readdir(&self, path: &str) -> Result<Vec<DirEntry>> {
        self.inner.readdir(path)
    }
    fn stat(&self, path: &str) -> Result<Stat> {
        self.inner.stat(path)
    }
    fn fstat(&self, fd: Fd) -> Result<Stat> {
        self.inner.fstat(fd)
    }
    fn rename(&self, from: &str, to: &str) -> Result<()> {
        self.inner.rename(from, to)
    }
    fn sync(&self) -> Result<()> {
        self.inner.sync()
    }
    fn unmount(&self) -> Result<()> {
        self.inner.unmount()
    }
    fn tick(&self, now_ns: u64) {
        self.inner.tick(now_ns)
    }
}

/// The benchmark's settings for `w` at test size.
fn small(w: Workload) -> Options {
    let mut o = Options::new(w);
    o.spec.nfiles = 64;
    o.spec.duration_ns = 30_000_000;
    o
}

fn planted(w: Workload, fault: Fault) -> (Options, Arc<AtomicU64>) {
    let appends = Arc::new(AtomicU64::new(0));
    let mut o = small(w);
    o.wrap = Some(Planted::wrap(fault, appends.clone()));
    (o, appends)
}

fn metric(out: &perfbench::Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} not reported"))
        .value
}

/// The `bound` BENCHMARK.json gives end-to-end metric `name`.
fn bound_of(name: &str) -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let at = json
        .find(&format!("\"name\": \"{name}\""))
        .expect("metric listed");
    let rest = &json[at..];
    let b = &rest[rest.find("\"bound\":").expect("bound given") + 8..];
    let end = b.find(['}', ',']).expect("bound value ends");
    b[..end].trim().parse().expect("bound is a number")
}

/// Names of the metrics BENCHMARK.json lists under `section`.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

#[test]
fn clean_runs_pass_and_print_every_listed_metric() {
    for w in [Workload::Fileserver, Workload::Varmail, Workload::Webserver] {
        let e2e = perfbench::run(&small(w), 7, 1, false).expect("clean run passes");
        let names: Vec<String> = e2e.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, listed("end_to_end"), "{}", w.name());
        assert_eq!(e2e.failed, 0);
        assert!(
            e2e.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            e2e.metrics
        );
        // The traced run also checks that tracing changed no modeled bit.
        let layers = perfbench::run(&small(w), 7, 1, true).expect("traced run passes");
        let names: Vec<String> = layers.metrics.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, listed("per_layer"), "{}", w.name());
    }
}

#[test]
fn flipped_read_byte_is_caught() {
    let (o, _) = planted(Workload::Varmail, Fault::FlipRead(100));
    let err = bench::round(&o, 3).expect_err("a flipped byte must fail the run");
    assert!(err.0.contains("byte"), "{err}");
}

#[test]
fn dropped_fsynced_append_is_caught_by_the_crash_check() {
    // Count the crash pass's appends, then drop the last one: no later
    // read sees it, so only the power-fail check can.
    let (o, appends) = planted(Workload::Varmail, Fault::DropAppend(u64::MAX));
    bench::crash_pass(&o, 5).expect("clean crash pass");
    let last = appends.load(Ordering::Relaxed) - 1;
    let (o, _) = planted(Workload::Varmail, Fault::DropAppend(last));
    let err = bench::crash_pass(&o, 5).expect_err("a lost fsynced append must fail");
    assert!(err.0.contains("after crash recovery"), "{err}");
}

#[test]
fn fileserver_without_lazy_writes_leaves_its_regime() {
    let (o, _) = planted(Workload::Fileserver, Fault::SyncEverything);
    let err = bench::round(&o, 11).expect_err("all-eager fileserver is out of regime");
    assert!(err.0.contains("left its regime"), "{err}");
}

#[test]
fn slow_write_moves_host_cost_past_its_bound() {
    let clean = perfbench::run(&small(Workload::Webserver), 9, 1, false).expect("clean run");
    let (o, _) = planted(
        Workload::Webserver,
        Fault::SlowWrite(Duration::from_millis(2)),
    );
    let slow = perfbench::run(&o, 9, 1, false).expect("slow run still correct");
    let (c, s) = (
        metric(&clean, "host_fs_ratio"),
        metric(&slow, "host_fs_ratio"),
    );
    assert!(
        s > c * (1.0 + bound_of("host_fs_ratio")),
        "clean {c} slow {s}"
    );
    // The modeled clock does not see host time.
    assert_eq!(
        metric(&clean, "model_ops_per_s"),
        metric(&slow, "model_ops_per_s")
    );
}

/// At the benchmark's own size the journal fills, and HiNFS's writeback
/// (`flush_slot_locked`) then persists a flushed block's new tree root
/// only if a journal transaction could be opened: such a file reads back
/// as zeros after a clean remount. The clean test's small file sets do
/// not show this; seed 602 at full size does.
#[test]
#[ignore = "fails until hinfs writeback persists the block-tree root when the journal is full"]
fn fileserver_at_full_size_survives_remount() {
    perfbench::run(&Options::new(Workload::Fileserver), 602, 20, false)
        .expect("fileserver passes verification at full size");
}
