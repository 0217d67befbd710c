//! Live file-system state inspector (`fs_top` for the suite).
//!
//! Runs a quick-scale fileserver-style workload on a chosen system and
//! emits the schema-versioned [`obsv::FsSnapshot`] JSON — buffer-pool
//! occupancy against the `Low_f`/`High_f` watermarks, LRW age and
//! dirty-cacheline histograms, Eager/Lazy population, ghost-buffer size,
//! journal fill and reservations, and the NVMM ledger — then verifies
//! that the snapshot agrees with the registry gauges and counters the
//! rest of the suite exports (they are the same collection, so any
//! disagreement is a bug and exits non-zero).
//!
//! ```text
//! cargo run --example fs_inspect                      # one-shot snapshot
//! cargo run --example fs_inspect -- --top             # periodic snapshots over the run
//! cargo run --example fs_inspect -- --audit           # + online invariant audit
//! cargo run --example fs_inspect -- --system pmfs     # pmfs | ext4-dax | ext2 | ext4 | hinfs
//! cargo run --example fs_inspect -- --contention      # + top lock/stall sites by wait time
//! cargo run --example fs_inspect -- --tail            # + p99 tail anatomy and exemplars
//! cargo run --example fs_inspect -- --lag             # + durability lag and per-layer WAF
//! ```
//!
//! Exit status is non-zero when `--audit` finds a violation or when the
//! snapshot and the registry disagree.

use workloads::filebench::{FilebenchParams, Fileserver};
use workloads::fileset::{Fileset, FilesetSpec};
use workloads::runner::{Actor, RunLimit, Runner};
use workloads::setups::{build, SystemConfig, SystemKind};

/// Rounds of the periodic (`--top`) mode.
const TOP_ROUNDS: u32 = 6;
/// Simulated duration of one workload round.
const ROUND_MS: u64 = 10;

fn parse_kind(label: &str) -> SystemKind {
    match label {
        "hinfs" => SystemKind::Hinfs,
        "pmfs" => SystemKind::Pmfs,
        "ext4-dax" => SystemKind::Ext4Dax,
        "ext2" => SystemKind::Ext2Bd,
        "ext4" => SystemKind::Ext4Bd,
        other => {
            eprintln!("unknown --system `{other}` (hinfs|pmfs|ext4-dax|ext2|ext4)");
            std::process::exit(2);
        }
    }
}

/// Registry gauge prefix of the system family (the same prefixes the
/// metric-naming test enforces).
fn prefix(kind: SystemKind) -> &'static str {
    match kind {
        SystemKind::Pmfs => "pmfs_",
        SystemKind::Ext4Dax | SystemKind::Ext2Bd | SystemKind::Ext4Bd => "extfs_",
        _ => "hinfs_",
    }
}

/// Cross-checks the snapshot against the registry exposition; any
/// disagreement between the two views of the same state is returned.
fn agreement_failures(
    snap: &obsv::FsSnapshot,
    reg: &obsv::RegistrySnapshot,
    pre: &str,
) -> Vec<String> {
    let mut fails = Vec::new();
    let mut check = |name: String, snap_v: u64, reg_v: u64| {
        if snap_v != reg_v {
            fails.push(format!("{name}: snapshot {snap_v} != registry {reg_v}"));
        }
    };
    if let Some(b) = &snap.buffer {
        let occupied = b.capacity_blocks - b.free_blocks;
        check(
            format!("{pre}buffer occupancy"),
            occupied,
            reg.gauge(&format!("{pre}buffer_capacity_blocks"))
                - reg.gauge(&format!("{pre}buffer_free_blocks")),
        );
        check(
            format!("{pre}buffer_dirty_blocks"),
            b.dirty_blocks,
            reg.gauge(&format!("{pre}buffer_dirty_blocks")),
        );
        check(
            format!("{pre}buffer_eager_blocks"),
            b.eager_blocks,
            reg.gauge(&format!("{pre}buffer_eager_blocks")),
        );
        check(
            format!("{pre}buffer_lazy_blocks"),
            b.lazy_buffered_blocks,
            reg.gauge(&format!("{pre}buffer_lazy_blocks")),
        );
        check(
            "bbm_evals vs hinfs_bbm_evals counter".into(),
            b.bbm_evals,
            reg.counter("hinfs_bbm_evals"),
        );
    }
    if let Some(j) = &snap.journal {
        check(
            format!("{pre}journal_fill_entries"),
            j.fill_entries,
            reg.gauge(&format!("{pre}journal_fill_entries")),
        );
        check(
            format!("{pre}journal_open_txs"),
            j.open_txs,
            reg.gauge(&format!("{pre}journal_open_txs")),
        );
    }
    if let Some(c) = &snap.cache {
        check(
            format!("{pre}cache_dirty_pages"),
            c.dirty_pages,
            reg.gauge(&format!("{pre}cache_dirty_pages")),
        );
    }
    if let Some(d) = &snap.device {
        check(
            "device bytes_written vs nvmm_bytes_written".into(),
            d.bytes_written,
            reg.counter("nvmm_bytes_written"),
        );
    }
    // The lineage ledger is exported under the shared `obsv_` family (it
    // spans systems), so the snapshot section must agree with those
    // counters regardless of the mount's own prefix.
    if let Some(l) = &snap.lineage {
        for layer in obsv::ALL_LAYERS {
            check(
                format!("obsv_lineage_{}_bytes", layer.label()),
                l.layer(layer),
                reg.counter(&format!("obsv_lineage_{}_bytes", layer.label())),
            );
        }
        check(
            "obsv_lineage_fences".into(),
            l.fences,
            reg.counter("obsv_lineage_fences"),
        );
        check(
            "obsv_lineage_stamps".into(),
            l.stamps,
            reg.counter("obsv_lineage_stamps"),
        );
        check(
            "obsv_lineage_drains_sync".into(),
            l.drains_sync,
            reg.counter("obsv_lineage_drains_sync"),
        );
        check(
            "obsv_lineage_drains_lazy".into(),
            l.drains_lazy,
            reg.counter("obsv_lineage_drains_lazy"),
        );
        check(
            "obsv_lineage_max_lag_ns".into(),
            l.max_lag_ns,
            reg.gauge("obsv_lineage_max_lag_ns"),
        );
    }
    fails
}

/// The system's snapshot merged with the backing device's section.
fn full_snapshot(sys: &workloads::setups::System) -> obsv::FsSnapshot {
    let mut snap = sys
        .introspect
        .as_ref()
        .map(|i| i.snapshot())
        .unwrap_or_default();
    snap.merge(obsv::Introspect::snapshot(&*sys.dev));
    snap
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let top = args.iter().any(|a| a == "--top");
    let audit = args.iter().any(|a| a == "--audit");
    let contention = args.iter().any(|a| a == "--contention");
    let tail = args.iter().any(|a| a == "--tail");
    let lag = args.iter().any(|a| a == "--lag");
    let kind = args
        .iter()
        .position(|a| a == "--system")
        .and_then(|i| args.get(i + 1))
        .map(|s| parse_kind(s))
        .unwrap_or(SystemKind::Hinfs);

    let mut obsv = if tail {
        workloads::ObsvOptions::flight()
    } else {
        workloads::ObsvOptions::none()
    };
    obsv.audit = audit;
    obsv.contention = contention || tail;
    obsv.lineage = obsv.lineage || lag;
    let cfg = SystemConfig {
        obsv,
        ..SystemConfig::small()
    };
    let sys = build(kind, &cfg).expect("build system");
    let set = Fileset::populate(&*sys.fs, FilesetSpec::new("/files", 200, 16, 8 << 10), 7)
        .expect("populate");

    let rounds = if top { TOP_ROUNDS } else { 1 };
    for round in 0..rounds {
        let actors: Vec<Box<dyn Actor>> = vec![Box::new(Fileserver::new(
            set.clone(),
            FilebenchParams::default(),
        ))];
        Runner::new(sys.env.clone(), sys.fs.clone())
            .with_device(sys.dev.clone())
            .run(
                actors,
                RunLimit::duration_ms(ROUND_MS),
                0x1A5 + round as u64,
            );
        if top {
            // fs_top mode: one snapshot line per round, newest state last.
            println!("{}", full_snapshot(&sys).to_json());
        }
    }
    let snap = full_snapshot(&sys);
    if !top {
        println!("{}", snap.to_json());
    }

    if contention {
        let csnap = sys.env.contention().snapshot();
        eprintln!("contention: top sites by wait time");
        for site in csnap.top_by_wait(8) {
            eprintln!(
                "  {:<20} acquisitions={} contended={} wait_ns={} hold_ns={}",
                site.site.label(),
                site.acquisitions,
                site.contended,
                site.wait.sum(),
                site.hold.sum()
            );
        }
    }

    if tail {
        if let Some(obs) = &sys.obs {
            // p99 over every op histogram merged, then the anatomy of
            // the flight-recorder exemplars at or above that bucket.
            let mut merged: Option<obsv::HistoSnapshot> = None;
            for op in obsv::ALL_OPS {
                let s = obs.op_histo(op).snapshot();
                if s.count() == 0 {
                    continue;
                }
                match &mut merged {
                    Some(m) => m.merge(&s),
                    None => merged = Some(s),
                }
            }
            let p99 = merged.map(|m| m.quantile(0.99)).unwrap_or(0);
            let fsnap = obs.flight().snapshot();
            let cohort: Vec<obsv::FlightRecord> = fsnap.cohort(p99).into_iter().copied().collect();
            let anatomy = obsv::TailAnatomy::aggregate(&cohort);
            eprintln!(
                "tail: p99={}ns cohort={} exemplars (of {} recorded ops), seq [{}, {}]",
                p99,
                anatomy.count,
                fsnap.recorded(),
                anatomy.seq_lo,
                anatomy.seq_hi
            );
            for (phase, ns) in anatomy.top_phases(4) {
                eprintln!(
                    "tail:   phase {:<18} {:>10}ns total ({}ns/exemplar)",
                    phase.label(),
                    ns,
                    ns / anatomy.count.max(1)
                );
            }
            for (site, ns) in anatomy.top_waits(4) {
                eprintln!(
                    "tail:   wait  {:<18} {:>10}ns total ({}ns/exemplar)",
                    site.label(),
                    ns,
                    ns / anatomy.count.max(1)
                );
            }
            let mut slowest = cohort.clone();
            slowest.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
            for r in slowest.iter().take(3) {
                eprintln!(
                    "tail:   exemplar {} {}ns at t={}ns batch={} fences={} stalls={} seq [{}, {}]",
                    r.op.label(),
                    r.total_ns,
                    r.at_ns,
                    r.batch,
                    r.fences,
                    r.stall_events,
                    r.seq_start,
                    r.seq_end
                );
            }
        }
    }

    if lag {
        if let Some(obs) = &sys.obs {
            // Durability-lag cohort: how far behind the ack each byte's
            // persistence ran, and which layer multiplied the traffic.
            let l = obs.lineage().snap();
            eprintln!(
                "lag: {} stamps, drains sync={} lazy={}, max_lag={}ns (p50={}ns p99={}ns over {} drains)",
                l.stamps,
                l.drains_sync,
                l.drains_lazy,
                l.max_lag_ns,
                l.lag.quantile(0.50),
                l.lag.quantile(0.99),
                l.lag.count()
            );
            for layer in obsv::ALL_LAYERS {
                eprintln!(
                    "lag:   layer {:<18} {:>12} bytes ({:.2}x logical)",
                    layer.label(),
                    l.layer(layer),
                    l.amplification(layer)
                );
            }
            eprintln!("lag:   fences per logical KiB: {}", l.fences_per_kib());
            for (row, bytes) in l.top_amplifiers(4) {
                eprintln!(
                    "lag:   top persister {:<10} {:>12} persisted+drained bytes",
                    obsv::row_label(row),
                    bytes
                );
            }
        }
    }

    let mut failed = false;
    let reg = sys.registry.snapshot();
    let fails = agreement_failures(&snap, &reg, prefix(kind));
    if fails.is_empty() {
        eprintln!("agreement: snapshot matches registry exposition");
    } else {
        failed = true;
        for f in &fails {
            eprintln!("agreement FAILED: {f}");
        }
    }

    if audit {
        // Exercise the online (fsync-path) auditor too: one write + fsync
        // goes through the fsync core, which self-audits when the mount
        // was built with `ObsvOptions::with_audit()`.
        let fd = sys
            .fs
            .open(
                "/inspect.probe",
                fskit::OpenFlags::RDWR | fskit::OpenFlags::CREATE,
            )
            .expect("open probe");
        sys.fs.write(fd, 0, &[0x5A; 4096]).expect("write probe");
        sys.fs.fsync(fd).expect("fsync probe");
        sys.fs.close(fd).expect("close probe");
        let rep = sys
            .introspect
            .as_ref()
            .expect("system provides introspection")
            .audit();
        eprintln!("audit: {}", rep.to_json());
        if !rep.is_clean() {
            failed = true;
            for v in &rep.violations {
                eprintln!("audit VIOLATION: {v}");
            }
        }
        // The HiNFS mount also self-audits at every fsync/writeback pass
        // when built with `ObsvOptions::with_audit()`; surface those counters too.
        if let Some(obs) = &sys.obs {
            eprintln!(
                "audit: {} online checks, {} violations",
                obs.audit_checks(),
                obs.audit_violations()
            );
            if obs.audit_violations() > 0 {
                failed = true;
            }
        }
    }

    sys.fs.unmount().expect("unmount");
    if failed {
        std::process::exit(1);
    }
}
