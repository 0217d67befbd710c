//! Multicore stress tests.
//!
//! - the PMFS block allocator keeps exact accounting under an 8-thread
//!   alloc/free storm that runs the single free list to exhaustion: no
//!   lost blocks, no double allocations;
//! - an 8-thread HiNFS run in spin mode leaves every online invariant
//!   green and all data readable;
//! - a crash schedule recorded while four threads hammer HiNFS replays
//!   through the faultfs harness with the durability oracle clean at
//!   every sampled boundary.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use faultfs::{FsKind, Harness, Script};
use fskit::{FsError, OpenFlags};
use nvmm::{FaultPlan, TimeMode};
use pmfs::alloc::Allocator;
use pmfs::Layout;
use workloads::filebench::{FilebenchParams, Fileserver, Varmail};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::setups::{build, ObsvOptions, SystemConfig, SystemKind};
use workloads::{Actor, RunLimit, Runner};

/// Eight threads alloc/free against one allocator. Each thread's burst is
/// an eighth of the data area plus headroom, so together they ask for
/// more blocks than exist and the free list keeps running dry mid-storm.
/// A final concurrent drain empties it for certain. Afterwards the books
/// must be exact: every block handed out at most once at any instant, a
/// clean NoSpace at exhaustion, and nothing leaked.
#[test]
fn eight_thread_alloc_storm_no_lost_or_double_blocks() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;

    let layout = Layout::compute(1024, 16, 256).expect("layout");
    let alloc = Arc::new(Allocator::new_empty(&layout));
    let total = alloc.free_blocks();
    let burst = total as usize / THREADS + 16;

    let still_held: Mutex<Vec<u64>> = Mutex::new(Vec::new());
    let double_allocs = AtomicU64::new(0);
    let bad_errors = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let alloc = Arc::clone(&alloc);
            let still_held = &still_held;
            let double_allocs = &double_allocs;
            let bad_errors = &bad_errors;
            scope.spawn(move || {
                let mut mine: Vec<u64> = Vec::new();
                let take = |mine: &mut Vec<u64>, limit: usize| {
                    while mine.len() < limit {
                        match alloc.alloc() {
                            Ok(b) => mine.push(b),
                            Err(FsError::NoSpace) => break, // exhausted
                            Err(_) => {
                                bad_errors.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                };
                for round in 0..ROUNDS {
                    take(&mut mine, burst);
                    // A duplicate inside one thread's live set means the
                    // allocator handed out the same block twice.
                    let set: HashSet<u64> = mine.iter().copied().collect();
                    if set.len() != mine.len() {
                        double_allocs.fetch_add(1, Ordering::Relaxed);
                    }
                    // Free an uneven slice so the threads desynchronize.
                    let keep = (t + round) % mine.len().max(1);
                    for b in mine.drain(keep..) {
                        alloc.free(b);
                    }
                }
                // Drain to exhaustion, all threads at once.
                take(&mut mine, usize::MAX);
                still_held.lock().unwrap().extend(mine.drain(..));
            });
        }
    });

    assert_eq!(
        double_allocs.load(Ordering::Relaxed),
        0,
        "double allocation"
    );
    assert_eq!(bad_errors.load(Ordering::Relaxed), 0, "non-NoSpace error");
    let held = still_held.into_inner().unwrap();
    let distinct: HashSet<u64> = held.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        held.len(),
        "two threads hold the same block"
    );
    assert_eq!(alloc.free_blocks(), 0, "the final drain left free blocks");
    assert_eq!(alloc.alloc().unwrap_err(), FsError::NoSpace);
    assert_eq!(
        held.len() as u64,
        total,
        "blocks lost or conjured: held {} total {total}",
        held.len()
    );
    // Returning everything restores the empty-image free count exactly
    // (free panics on double free, so this also proves ownership).
    for b in held {
        alloc.free(b);
    }
    assert_eq!(alloc.free_blocks(), total);
}

/// Eight fileserver actors on real threads (spin mode) against a HiNFS
/// mount with the online auditor enabled: the run must finish with every
/// invariant green and the mount must unmount cleanly (which flushes the
/// whole buffer pool).
#[test]
fn eight_thread_hinfs_run_keeps_invariants_green() {
    let cfg = SystemConfig {
        device_bytes: 128 << 20,
        mode: TimeMode::Spin,
        buffer_bytes: 4 << 20,
        obsv: ObsvOptions::none().with_audit().with_contention(),
        ..SystemConfig::default()
    };
    let sys = build(SystemKind::Hinfs, &cfg).unwrap();
    let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/d", 64, 6, 16 << 10), 3).unwrap();
    let params = FilebenchParams {
        iosize: 16 << 10,
        append_size: 8 << 10,
    };
    // Half fileserver (buffered churn), half varmail (fsync-heavy, so the
    // in-band auditor fires throughout the run).
    let actors: Vec<Box<dyn Actor>> = (0..8)
        .map(|i| {
            if i % 2 == 0 {
                Box::new(Fileserver::new(Arc::clone(&set), params)) as Box<dyn Actor>
            } else {
                Box::new(Varmail::new(Arc::clone(&set), params)) as Box<dyn Actor>
            }
        })
        .collect();
    Runner::new(sys.env.clone(), sys.fs.clone())
        .with_device(sys.dev.clone())
        .run(actors, RunLimit::steps(25), 42);

    let rep = sys.introspect.as_ref().unwrap().audit();
    assert!(rep.is_clean(), "post-run audit: {rep:?}");
    let obs = sys.obs.as_ref().unwrap();
    assert!(obs.audit_checks() > 0, "the auditor actually ran");
    assert_eq!(obs.audit_violations(), 0);
    sys.fs.unmount().unwrap();
}

/// Records the persistence-boundary schedule of a four-thread HiNFS run
/// (spin mode, real concurrency), then replays crashes at boundaries
/// sampled from that schedule through the faultfs harness: recovery must
/// come up clean and the durability oracle must accept the recovered
/// tree — fsync-acknowledged data survives, no invariant breaks.
#[test]
fn crash_schedule_recorded_under_four_threads_replays_clean() {
    // Phase 1: record. A live FaultPlan counts every persist/flush the
    // four writer threads push through the device, giving the density of
    // crash-eligible boundaries a concurrent run produces.
    let cfg = SystemConfig {
        device_bytes: 64 << 20,
        mode: TimeMode::Spin,
        buffer_bytes: 2 << 20,
        ..SystemConfig::default()
    };
    let sys = build(SystemKind::Hinfs, &cfg).unwrap();
    let plan = FaultPlan::new();
    sys.dev.fault_hook().install(plan.clone());
    plan.start_recording();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let fs = sys.fs.clone();
            scope.spawn(move || {
                let path = format!("/t{t}");
                let fd = fs.open(&path, OpenFlags::RDWR | OpenFlags::CREATE).unwrap();
                for i in 0..12u64 {
                    fs.append(fd, &[(t * 16 + i) as u8; 2048]).unwrap();
                    if i % 3 == 0 {
                        fs.fsync(fd).unwrap();
                    }
                }
                fs.close(fd).unwrap();
            });
        }
    });
    let schedule = plan.stop_recording();
    sys.dev.fault_hook().clear();
    sys.fs.unmount().unwrap();

    let crash_points: Vec<u64> = schedule
        .iter()
        .filter(|b| b.index > 0) // fences are not crash-eligible
        .map(|b| b.index)
        .collect();
    assert!(
        crash_points.len() >= 8,
        "4-thread run recorded only {} crash-eligible boundaries",
        crash_points.len()
    );

    // Phase 2: replay. Crash at a spread of the recorded boundary numbers
    // (first, last, and quartiles) and let the oracle judge recovery.
    let h = Harness::new();
    let script = Script::random(0xC0FFEE, 12);
    for q in 0..=4 {
        let k = crash_points[(crash_points.len() - 1) * q / 4];
        let out = h.crash_run(FsKind::Hinfs, &script, k, None);
        assert!(
            out.violations.is_empty(),
            "crash at recorded boundary {k}: {:#?}",
            out.violations
        );
        assert!(out.checks > 0, "boundary {k}: oracle checked nothing");
    }
}
