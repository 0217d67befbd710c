//! Crash-point enumeration and fault-injection sweeps (tier 1).
//!
//! Property side: random small op scripts, crash at every recorded
//! persistence boundary (plus torn-store variants), remount, and check
//! the durability oracle — across HiNFS, PMFS and EXT4.
//!
//! Deterministic side: each injectable fault (journal-full backpressure,
//! ENOSPC, writeback stall) must surface as a *clean* `FsError` on the
//! right operations — never a panic, never an oracle violation after the
//! fault is lifted and the image is crashed and recovered.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use faultfs::{FsKind, Harness, InjectedFault, Op, Script, SweepConfig};
use fskit::{FileSystem, FsError, OpenFlags};
use nvmm::{CostModel, FaultPlan, NvmmDevice, SimEnv};
use pmfs::{Pmfs, PmfsOptions};
use proptest::prelude::*;

fn sweep_cfg() -> SweepConfig {
    SweepConfig {
        max_points: 16,
        torn_every: 4,
        ..SweepConfig::default()
    }
}

fn sweep_clean(kind: FsKind, seed: u64, n_ops: usize) {
    let h = Harness::new();
    let script = Script::random(seed, n_ops);
    let out = h.sweep(kind, &script, sweep_cfg());
    assert!(
        out.violations.is_empty(),
        "{} seed {seed}: {:#?}",
        kind.label(),
        out.violations
    );
    assert!(out.runs > 0 && out.checks > 0);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    #[test]
    fn crash_every_point_hinfs((seed, n) in (0u64..1 << 32, 6usize..10)) {
        sweep_clean(FsKind::Hinfs, seed, n);
    }

    #[test]
    fn crash_every_point_pmfs((seed, n) in (0u64..1 << 32, 6usize..10)) {
        sweep_clean(FsKind::Pmfs, seed, n);
    }

    #[test]
    fn crash_every_point_ext4((seed, n) in (0u64..1 << 32, 6usize..10)) {
        sweep_clean(FsKind::Ext4, seed, n);
    }
}

/// A script whose tail (inside the fault window) exercises journaled
/// namespace and data paths on a file created before the window opens.
fn faultable_script() -> Script {
    Script {
        ops: vec![
            Op::Create { file: 0 },
            Op::Append {
                file: 0,
                len: 4096,
                fill: 0x5a,
            },
            Op::Fsync { file: 0 },
            // -- fault window starts at index 3 --
            Op::Append {
                file: 0,
                len: 8192,
                fill: 0x6b,
            },
            Op::Fsync { file: 0 },
            Op::Mkdir { dir: 0 },
            Op::Unlink { file: 0 },
            Op::Create { file: 1 },
        ],
    }
}

/// Runs `fault` over the script tail and asserts graceful degradation:
/// no panics, no oracle violations, and (when `expect_errors`) at least
/// one clean error mentioning `needle`.
fn fault_round(kind: FsKind, fault: InjectedFault, expect_errors: bool, needle: &str) {
    let h = Harness::new();
    let script = faultable_script();
    let out = h.fault_run(kind, &script, fault, 3..script.ops.len());
    assert!(
        out.violations.is_empty(),
        "{} under {}: {:#?}",
        kind.label(),
        fault.label(),
        out.violations
    );
    if expect_errors {
        assert!(
            out.clean_errors.iter().any(|(_, e)| e.contains(needle)),
            "{} under {}: expected a clean {needle} error, got {:?}",
            kind.label(),
            fault.label(),
            out.clean_errors
        );
    }
    assert!(h.stats.snapshot().faults_injected > 0 || !expect_errors);
}

#[test]
fn journal_full_is_a_clean_error_on_pmfs() {
    fault_round(
        FsKind::Pmfs,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn journal_full_is_a_clean_error_on_hinfs() {
    fault_round(
        FsKind::Hinfs,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn journal_full_is_a_clean_error_on_ext4() {
    fault_round(
        FsKind::Ext4,
        InjectedFault::JournalFull,
        true,
        "JournalFull",
    );
}

#[test]
fn enospc_is_a_clean_error_everywhere() {
    for kind in FsKind::ALL {
        fault_round(kind, InjectedFault::Enospc, true, "NoSpace");
    }
}

#[test]
fn writeback_stall_degrades_gracefully_on_hinfs() {
    // A stalled writeback actor makes no progress but must not fail
    // foreground operations or break recovery once lifted.
    fault_round(FsKind::Hinfs, InjectedFault::WritebackStall, false, "");
}

/// Heavy sweep for manual soak runs: `cargo test --test fault_sweep -- --ignored`.
#[test]
#[ignore]
fn stress_many_seeds_all_kinds() {
    let h = Harness::new();
    for seed in 0..40u64 {
        for kind in FsKind::ALL {
            let script = Script::random(seed * 7 + 1, 14);
            let cfg = SweepConfig {
                max_points: 48,
                torn_every: 2,
                ..SweepConfig::default()
            };
            let out = h.sweep(kind, &script, cfg);
            assert!(
                out.violations.is_empty(),
                "{} seed {seed}: {:#?}",
                kind.label(),
                out.violations
            );
        }
    }
}

/// Free data blocks left when [`pmfs_near_exhaustion`] stops filling:
/// room for a few more one-block appends (data plus tree nodes), no more.
const EXHAUSTION_HEADROOM: u64 = 12;

/// Mounts a small PMFS and appends to one file until the allocator's free
/// list is down to [`EXHAUSTION_HEADROOM`] blocks. Returns the device,
/// the mounted fs and the open fd.
fn pmfs_near_exhaustion() -> (Arc<NvmmDevice>, Arc<Pmfs>, fskit::Fd) {
    let env = SimEnv::new_virtual(CostModel::default());
    let dev = NvmmDevice::new_tracked(env.clone(), 8 << 20);
    let fs = Pmfs::mkfs(
        dev.clone(),
        PmfsOptions {
            journal_blocks: 64,
            inode_count: 128,
        },
    )
    .unwrap();
    let fd = fs
        .open("/big", OpenFlags::RDWR | OpenFlags::CREATE)
        .unwrap();
    while fs.free_blocks() > EXHAUSTION_HEADROOM {
        fs.append(fd, &[0x42u8; 4096]).unwrap();
    }
    assert!(
        fs.free_blocks() > 4,
        "no headroom left for the exhaustion phase (free {})",
        fs.free_blocks()
    );
    (dev, fs, fd)
}

/// Exact block accounting after a remount: draining the rebuilt allocator
/// yields exactly `free_blocks()` distinct data-area blocks and then a
/// clean NoSpace — so free + reachable == data_blocks, with nothing
/// leaked, nothing double-counted. Freeing the drained blocks restores
/// the count (free panics on double free, proving ownership).
fn assert_exact_accounting(fs: &Pmfs) {
    let free = fs.free_blocks();
    let data = fs.layout().data_blocks();
    assert!(free < data, "the recovered tree must reach some blocks");
    let alloc = fs.allocator();
    let mut got = HashSet::new();
    let mut n = 0u64;
    while let Ok(b) = alloc.alloc() {
        assert!(got.insert(b), "block {b} handed out twice");
        n += 1;
        assert!(n <= free, "allocator over-delivered: {n} > free {free}");
    }
    assert_eq!(n, free, "allocator under-delivered against its own books");
    assert_eq!(alloc.alloc().unwrap_err(), FsError::NoSpace);
    for &b in &got {
        alloc.free(b);
    }
    assert_eq!(fs.free_blocks(), free, "drain+refill must be lossless");
}

/// ENOSPC near allocator exhaustion, injected and then real: the injected
/// fault fails the append with a clean NoSpace (no panic, no leaked
/// reservation); lifting it lets the same append succeed; appending on
/// until the free list runs dry ends in a real, equally clean NoSpace;
/// and after a crash + remount the rebuilt bitmap accounts for every
/// block exactly.
#[test]
fn enospc_at_allocator_exhaustion_is_clean_and_books_stay_exact() {
    let (dev, fs, fd) = pmfs_near_exhaustion();
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.set_fail_alloc(true);
    let free_before = fs.free_blocks();
    let res = catch_unwind(AssertUnwindSafe(|| fs.append(fd, &[0x77u8; 4096])))
        .expect("injected ENOSPC must not panic");
    assert_eq!(res.unwrap_err(), FsError::NoSpace);
    assert_eq!(
        fs.free_blocks(),
        free_before,
        "a failed allocation must not leak blocks"
    );
    // Lifted: the very same append now succeeds.
    plan.set_fail_alloc(false);
    fs.append(fd, &[0x88u8; 4096]).unwrap();
    dev.fault_hook().clear();
    // Real exhaustion: the free list runs dry and the append that finds
    // it empty fails cleanly without touching the acknowledged size.
    let err = loop {
        let acked = fs.stat("/big").unwrap().size;
        match catch_unwind(AssertUnwindSafe(|| fs.append(fd, &[0x99u8; 4096])))
            .expect("real ENOSPC must not panic")
        {
            Ok(_) => continue,
            Err(e) => {
                assert_eq!(fs.stat("/big").unwrap().size, acked);
                break e;
            }
        }
    };
    assert_eq!(err, FsError::NoSpace);
    let size = fs.stat("/big").unwrap().size;

    // Power-fail and remount: PMFS acks are durable, and the recovery
    // walk must rebuild exact accounting.
    drop(fs);
    dev.crash();
    let fs2 = Pmfs::mount(dev.clone()).unwrap();
    assert_eq!(fs2.stat("/big").unwrap().size, size);
    assert!(obsv::Introspect::audit(&*fs2).is_clean());
    assert_exact_accounting(&fs2);
}

/// Power failure in the middle of an append at allocator exhaustion:
/// recovery must roll the open transaction back (the acknowledged size
/// survives, the in-flight append does not), the rebuilt bitmap must
/// account for every block exactly, and a second clean remount must
/// agree with the first.
#[test]
fn crash_at_allocator_exhaustion_rebuilds_exact_accounting() {
    let _quiet = Harness::new(); // installs the quiet CrashSignal panic hook

    // Pass 1 (record): count the persistence boundaries one exhaustion
    // append crosses. The whole setup runs on the virtual clock, so the
    // schedule is identical across builds.
    let n_boundaries = {
        let (dev, fs, fd) = pmfs_near_exhaustion();
        let plan = FaultPlan::new();
        dev.fault_hook().install(plan.clone());
        plan.start_recording();
        fs.append(fd, &[0x99u8; 4096]).unwrap();
        let n = plan.stop_recording().iter().filter(|b| b.index > 0).count() as u64;
        assert!(n >= 3, "an exhaustion append crossed only {n} boundaries");
        n
    };

    // Pass 2 (crash): rebuild the identical regime and power-fail at the
    // second-to-last boundary — inside the append's undo transaction,
    // after its journal entries persisted but before the commit record.
    let (dev, fs, fd) = pmfs_near_exhaustion();
    let size_acked = fs.stat("/big").unwrap().size;
    let plan = FaultPlan::new();
    dev.fault_hook().install(plan.clone());
    plan.arm_crash(n_boundaries - 1);
    let res = catch_unwind(AssertUnwindSafe(|| fs.append(fd, &[0x99u8; 4096])));
    match res {
        Err(payload) => assert!(
            payload.downcast_ref::<nvmm::CrashSignal>().is_some(),
            "foreign panic during the exhaustion append"
        ),
        Ok(_) => panic!("the armed crash must fire inside the append"),
    }
    dev.fault_hook().clear();
    drop(fs);
    dev.crash();

    let fs2 = Pmfs::mount(dev.clone()).unwrap();
    assert!(
        fs2.recovery_stats().txs_undone > 0,
        "the crashed append must have left an open transaction to undo"
    );
    assert_eq!(
        fs2.stat("/big").unwrap().size,
        size_acked,
        "acknowledged size must survive, the crashed append must not"
    );
    assert!(obsv::Introspect::audit(&*fs2).is_clean());
    assert_exact_accounting(&fs2);

    // Clean unmount persists the bitmap; the next mount loads it and must
    // agree with the rebuild to the block.
    let free = fs2.free_blocks();
    fs2.unmount().unwrap();
    let fs3 = Pmfs::mount(dev).unwrap();
    assert_eq!(
        fs3.free_blocks(),
        free,
        "persisted bitmap disagrees with rebuild"
    );
}

#[test]
fn harness_counters_flow_into_obsv() {
    let h = Harness::new();
    let script = Script::random(11, 8);
    let out = h.sweep(FsKind::Pmfs, &script, sweep_cfg());
    assert!(out.violations.is_empty(), "{:#?}", out.violations);
    let snap = h.stats.snapshot();
    assert!(snap.crashes_injected > 0);
    assert!(snap.recoveries > 0);
    assert!(snap.oracle_checks > 0);
    assert_eq!(snap.oracle_violations, 0);
    // The sweep's recovery events landed in the trace ring.
    let tail = h.trace.tail(64);
    assert!(tail
        .iter()
        .any(|r| matches!(r.ev, obsv::TraceEvent::RecoveryBegin { .. })));
}
