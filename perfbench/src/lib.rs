//! A verified benchmark of HiNFS on three filebench workloads.
//!
//! The benchmark drives HiNFS through the public [`fskit::FileSystem`]
//! trait, wrapped in its own timing-and-checking layer ([`probe`]), and
//! reports modeled (virtual-clock) and host (`Instant`) numbers. Every
//! read is checked against a shadow of the written bytes, each round ends
//! with a drain, a remount and a full content check, and varmail also
//! power-fails a tracked device and checks what fsync acknowledged. See
//! `README.md` for the metrics and why each workload is there.

pub mod bench;
pub mod gen;
pub mod probe;
pub mod report;
pub mod workload;

use bench::{crash_pass, round, Options};
use probe::Diverged;
use report::Metric;
use workload::Workload;

/// What one benchmark run prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable notes printed ahead of the result line.
    pub notes: Vec<String>,
}

/// Measured rounds in a run of `seconds`: each round costs about this
/// many host seconds on a 2-core x86-64 host, so the round count, and
/// with it every modeled number, depends only on the arguments.
pub fn rounds_for(w: Workload, seconds: u64) -> usize {
    let per_round_s = match w {
        Workload::Fileserver => 2.6,
        Workload::Varmail => 1.9,
        Workload::Webserver => 1.5,
    };
    ((seconds as f64 / per_round_s).round() as usize).max(1)
}

/// Runs the benchmark: untraced rounds for the end-to-end metrics, or,
/// with `trace`, untraced and traced rounds on the same seeds for the
/// per-layer metrics. Any failed check is an error and yields no metrics.
pub fn run(opts: &Options, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, Diverged> {
    let w = opts.workload;
    let n = rounds_for(w, seconds);
    let n = if trace { n.div_ceil(2) } else { n };
    let traced_opts = Options {
        traced: true,
        ..opts.clone()
    };
    let mut untraced = Vec::with_capacity(n);
    let mut traced = Vec::new();
    for r in 0..n {
        let s = gen::derive(seed, r as u64);
        untraced.push(round(opts, s)?);
        if trace {
            let t = round(&traced_opts, s)?;
            untraced[r].check_same_model(&t)?;
            traced.push(t);
        }
    }
    let mut notes = Vec::new();
    if w == Workload::Varmail {
        let files = crash_pass(opts, gen::derive(seed, 0xc4a5))?;
        notes.push(format!(
            "crash check: {files} fsync-acknowledged files read back intact after power failure"
        ));
    }
    let lat = report::pooled(&untraced, |r| &r.iter_model_ns);
    let p99 = report::quantile(&lat, 0.99);
    notes.push(format!(
        "{} rounds, {} iteration latency samples, {} above p99",
        untraced.len(),
        lat.len(),
        lat.iter().filter(|&&v| v > p99).count()
    ));
    let (attempted, failed) = report::attempted_failed(&untraced);
    let metrics = if trace {
        report::per_layer(&traced, &untraced)
    } else {
        report::end_to_end(&untraced)
    };
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}
