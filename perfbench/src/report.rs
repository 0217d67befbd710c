//! Turns rounds into the named metrics the benchmark prints.
//!
//! End-to-end metrics come from untraced rounds only. Per-layer metrics
//! are totals over the traced rounds, except ratios, which are taken over
//! those totals.

use crate::bench::Round;
use crate::probe::ALL_OPS;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The nearest-rank `q` quantile of sorted `v` (0 when empty).
pub fn quantile(v: &[u64], q: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `v`.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Pooled, sorted per-iteration latencies of `rounds`, as `f` selects.
pub fn pooled(rounds: &[Round], f: impl Fn(&Round) -> &[u64]) -> Vec<u64> {
    let mut v: Vec<u64> = rounds.iter().flat_map(|r| f(r).iter().copied()).collect();
    v.sort_unstable();
    v
}

/// Failed calls over attempted calls.
pub fn attempted_failed(rounds: &[Round]) -> (u64, u64) {
    rounds.iter().fold((0, 0), |(a, f), r| {
        let calls: u64 = r.ops.iter().map(|s| s.calls).sum();
        let errors: u64 = r.ops.iter().map(|s| s.errors).sum();
        (a + calls, f + errors)
    })
}

/// Peak resident memory of this process in MiB (0 where unknown).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The end-to-end metrics of untraced `rounds`.
pub fn end_to_end(rounds: &[Round]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Round) -> u64| rounds.iter().map(f).sum::<u64>() as f64;
    let iterations = sum(&|r| r.iterations);
    let model_lat = pooled(rounds, |r| &r.iter_model_ns);
    // Host time is taken relative to the load generator's own host time over the
    // same iterations: the load generator's work (content generation, shadow
    // upkeep, read checks) is fixed by the seed and runs interleaved on
    // the same thread, so a host that runs slower for a while slows both
    // and the ratio stays put.
    let mut host_fs: Vec<f64> = rounds
        .iter()
        .map(|r| ratio(r.host_fs_ns as f64, r.loadgen_host_ns as f64))
        .collect();
    let mut host_p50: Vec<f64> = rounds
        .iter()
        .map(|r| {
            let mut v: Vec<f64> = r
                .iter_host_ns
                .iter()
                .zip(&r.iter_loadgen_ns)
                .map(|(&fs, &lg)| ratio(fs as f64, lg as f64))
                .collect();
            median(&mut v)
        })
        .collect();
    let mut setup: Vec<f64> = rounds.iter().map(Round::setup_s).collect();
    let (attempted, failed) = attempted_failed(rounds);
    let media = sum(&|r| r.dev.nvmm_bytes_written + r.drain_nvmm_bytes);
    vec![
        metric(
            "model_ops_per_s",
            ratio(
                iterations,
                sum(&|r| r.model_elapsed_ns + r.drain_model_ns) * 1e-9,
            ),
            "1/s",
        ),
        metric("model_p50_ns", quantile(&model_lat, 0.5) as f64, "ns"),
        metric("model_p99_ns", quantile(&model_lat, 0.99) as f64, "ns"),
        metric("host_fs_ratio", median(&mut host_fs), "ratio"),
        metric("host_p50_ratio", median(&mut host_p50), "ratio"),
        metric(
            "nvmm_write_amp",
            ratio(media, sum(&|r| r.bytes_written)),
            "ratio",
        ),
        metric(
            "ok_op_ratio",
            1.0 - ratio(failed as f64, attempted as f64),
            "ratio",
        ),
        metric("setup_s", median(&mut setup), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// The per-layer metrics of traced `rounds`, with the host time of the
/// untraced rounds run on the same seeds for the tracing overhead.
pub fn per_layer(traced: &[Round], untraced: &[Round]) -> Vec<Metric> {
    let sum = |f: &dyn Fn(&Round) -> u64| traced.iter().map(f).sum::<u64>() as f64;
    let mut out = Vec::new();
    for (i, op) in ALL_OPS.iter().enumerate() {
        let l = op.label();
        out.push(metric(
            format!("fskit.{l}.calls"),
            sum(&|r| r.ops[i].calls),
            "count",
        ));
        out.push(metric(
            format!("fskit.{l}.model_ns"),
            sum(&|r| r.ops[i].model_ns),
            "ns",
        ));
        out.push(metric(
            format!("fskit.{l}.host_ns"),
            sum(&|r| r.ops[i].host_ns),
            "ns",
        ));
        out.push(metric(
            format!("fskit.{l}.errors"),
            sum(&|r| r.ops[i].errors),
            "count",
        ));
    }
    out.push(metric("hinfs.tick.calls", sum(&|r| r.tick.calls), "count"));
    out.push(metric("hinfs.tick.host_ns", sum(&|r| r.tick.host_ns), "ns"));

    let h = |f: &dyn Fn(&hinfs::stats::StatsSnapshot) -> u64| sum(&|r| f(&r.hinfs));
    let hits = h(&|s| s.buffer_hits);
    let misses = h(&|s| s.buffer_misses);
    out.push(metric(
        "hinfs.buffer.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    out.push(metric("hinfs.buffer.misses", misses, "count"));
    out.push(metric(
        "hinfs.buffer.lazy_writes",
        h(&|s| s.lazy_writes),
        "count",
    ));
    out.push(metric(
        "hinfs.buffer.lazy_bytes",
        sum(&|r| r.lazy_bytes()),
        "bytes",
    ));
    out.push(metric(
        "hinfs.buffer.fetch_lines",
        h(&|s| s.fetch_lines),
        "count",
    ));
    out.push(metric(
        "hinfs.buffer.foreground_stalls",
        h(&|s| s.foreground_stalls),
        "count",
    ));
    out.push(metric(
        "hinfs.buffer.dropped_dirty_blocks",
        h(&|s| s.dropped_dirty_blocks),
        "count",
    ));
    out.push(metric(
        "hinfs.buffer.dirty_blocks_end",
        sum(&|r| r.dirty_blocks_end),
        "count",
    ));
    let wb_blocks = h(&|s| s.writeback_blocks);
    let wb_lines = h(&|s| s.writeback_lines);
    out.push(metric("hinfs.writeback.blocks", wb_blocks, "count"));
    out.push(metric("hinfs.writeback.lines", wb_lines, "count"));
    out.push(metric(
        "hinfs.writeback.lines_per_block",
        ratio(wb_lines, wb_blocks),
        "count",
    ));
    let evals = h(&|s| s.bbm_evals);
    out.push(metric("hinfs.checker.bbm_evals", evals, "count"));
    out.push(metric(
        "hinfs.checker.bbm_accuracy",
        if evals == 0.0 {
            1.0
        } else {
            h(&|s| s.bbm_accurate) / evals
        },
        "ratio",
    ));
    out.push(metric(
        "hinfs.checker.eager_writes",
        h(&|s| s.eager_writes),
        "count",
    ));
    out.push(metric(
        "hinfs.checker.sync_writes",
        h(&|s| s.sync_writes),
        "count",
    ));
    out.push(metric("hinfs.tx.opened", h(&|s| s.txs_opened), "count"));
    out.push(metric(
        "hinfs.tx.committed",
        h(&|s| s.txs_committed),
        "count",
    ));

    let commits = sum(&|r| r.journal.commits);
    out.push(metric(
        "pmfs.journal.begins",
        sum(&|r| r.journal.begins),
        "count",
    ));
    out.push(metric("pmfs.journal.commits", commits, "count"));
    out.push(metric(
        "pmfs.journal.aborts",
        sum(&|r| r.journal.aborts),
        "count",
    ));
    out.push(metric(
        "pmfs.journal.undo_entries",
        sum(&|r| r.journal.undo_entries),
        "count",
    ));
    out.push(metric(
        "pmfs.journal.fences_per_commit",
        ratio(sum(&|r| r.dev.fences), commits),
        "count",
    ));

    out.push(metric(
        "nvmm.bytes_written",
        sum(&|r| r.dev.nvmm_bytes_written),
        "bytes",
    ));
    out.push(metric(
        "nvmm.bytes_read",
        sum(&|r| r.dev.nvmm_bytes_read),
        "bytes",
    ));
    out.push(metric(
        "nvmm.flush_lines",
        sum(&|r| r.dev.flush_lines),
        "count",
    ));
    out.push(metric("nvmm.fences", sum(&|r| r.dev.fences), "count"));
    out.push(metric(
        "nvmm.fences_coalesced",
        sum(&|r| r.dev.fences_coalesced),
        "count",
    ));
    out.push(metric(
        "nvmm.cached_store_bytes",
        sum(&|r| r.dev.cached_store_bytes),
        "bytes",
    ));
    for cat in LEDGER_CATS {
        out.push(metric(
            format!("nvmm.ledger.{}.model_ns", cat.label()),
            sum(&|r| r.ledger.get(cat)),
            "ns",
        ));
    }

    out.push(metric(
        "setup.mkfs.host_ns",
        sum(&|r| r.setup_mkfs_ns),
        "ns",
    ));
    out.push(metric(
        "setup.populate.host_ns",
        sum(&|r| r.setup_populate_ns),
        "ns",
    ));
    out.push(metric(
        "setup.mount.host_ns",
        sum(&|r| r.setup_mount_ns),
        "ns",
    ));
    out.push(metric(
        "drain.unmount.model_ns",
        sum(&|r| r.drain_model_ns),
        "ns",
    ));
    out.push(metric(
        "drain.unmount.host_ns",
        sum(&|r| r.drain_host_ns),
        "ns",
    ));
    out.push(metric(
        "drain.unmount.nvmm_bytes",
        sum(&|r| r.drain_nvmm_bytes),
        "bytes",
    ));

    for phase in obsv::ALL_PHASES {
        out.push(metric(
            format!("obsv.span.{}.model_ns", phase.label()),
            sum(&|r| {
                r.spans.as_ref().map_or(0, |s| {
                    (0..obsv::BG_ROW).map(|row| s.ns[row][phase as usize]).sum()
                })
            }),
            "ns",
        ));
    }
    out.push(metric(
        "obsv.span.bg.model_ns",
        sum(&|r| r.spans.as_ref().map_or(0, |s| s.row_total(obsv::BG_ROW))),
        "ns",
    ));
    let untraced_host: u64 = untraced.iter().map(|r| r.host_fs_ns).sum();
    out.push(metric(
        "obsv.trace_host_overhead",
        ratio(sum(&|r| r.host_fs_ns), untraced_host as f64) - 1.0,
        "ratio",
    ));

    // The untraced rounds' host numbers, without instrumentation cost.
    let host_lat = pooled(untraced, |r| &r.iter_host_ns);
    let untraced_iterations: u64 = untraced.iter().map(|r| r.iterations).sum();
    out.push(metric(
        "host.ops_per_s",
        ratio(untraced_iterations as f64, untraced_host as f64 * 1e-9),
        "1/s",
    ));
    out.push(metric("host.p50_ns", quantile(&host_lat, 0.5) as f64, "ns"));
    out.push(metric(
        "bench.loadgen.host_ns",
        sum(&|r| r.loadgen_host_ns),
        "ns",
    ));
    let lat = pooled(traced, |r| &r.iter_model_ns);
    out.push(metric("bench.latency_samples", lat.len() as f64, "count"));
    out.push(metric("bench.rounds", traced.len() as f64, "count"));
    out
}

/// Ledger categories HiNFS charges. `block-layer` is left out: only the
/// block-device baselines charge it, so it reads 0 on every HiNFS run.
const LEDGER_CATS: [nvmm::Cat; 9] = [
    nvmm::Cat::UserRead,
    nvmm::Cat::UserWrite,
    nvmm::Cat::Fetch,
    nvmm::Cat::Writeback,
    nvmm::Cat::Journal,
    nvmm::Cat::Meta,
    nvmm::Cat::Syscall,
    nvmm::Cat::Fence,
    nvmm::Cat::Other,
];

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
pub fn json_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.999), 999);
        assert_eq!(quantile(&[7], 0.999), 7);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
