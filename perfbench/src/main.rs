//! Command-line entry point:
//!
//! ```text
//! perfbench --workload <fileserver|varmail|webserver> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Prints notes and a metric table, then one JSON result line. Exits 1
//! without a result when any output check fails, 2 on bad arguments.

use std::process::ExitCode;

use perfbench::bench::Options;
use perfbench::workload::Workload;

fn parse() -> Result<(Workload, u64, u64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [k, v] = pair else {
            return Err(format!("missing value for {}", pair[0]));
        };
        let num = || v.parse::<u64>().map_err(|e| format!("{k} {v}: {e}"));
        match k.as_str() {
            "--workload" => w = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown argument {k}")),
        }
    }
    Ok((
        w.ok_or("--workload is required")?,
        seed.unwrap_or(1),
        seconds.unwrap_or(10),
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let (w, seed, seconds, trace) = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <fileserver|varmail|webserver> --seed <n> \
                 --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match perfbench::run(&Options::new(w), seed, seconds, trace) {
        Ok(out) => {
            for n in &out.notes {
                println!("# {}: {n}", w.name());
            }
            for m in &out.metrics {
                println!("# {:<40} {:>20} {}", m.name, m.value, m.unit);
            }
            println!(
                "{}",
                perfbench::report::json_line(out.attempted, out.failed, &out.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {} FAILED: {e}", w.name());
            ExitCode::FAILURE
        }
    }
}
