//! The ZipServ benchmark: one workload per invocation, its outputs checked,
//! and one JSON result line at the end.
//!
//! ```text
//! zipserv-perfbench --workload <paper_mix_long|tenant_fleet>
//!                   --seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the same
//! workload with timing wrappers and spans installed and prints the
//! per-layer metrics, writing the spans to `<dir>` (default `.bench_out`).
//! `perfbench/run.py` builds this binary and runs it.

mod cpu;
mod report;
mod sims;
mod spans;
mod stats;

use std::process::ExitCode;

use report::{Outcome, END_TO_END, PER_LAYER};
use sims::Sim;
use spans::Tracer;

const USAGE: &str = "usage: zipserv-perfbench --workload <paper_mix_long|tenant_fleet> \
                     --seed <n> --seconds <1-600> --trace <0|1> [--spans-dir <dir>]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_dir: String,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        spans_dir: ".bench_out".into(),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(1.0..=600.0).contains(&args.seconds) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--spans-dir" => args.spans_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let tracer = Tracer::default();
    let mut out = Outcome::default();
    let (seed, seconds, trace) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "paper_mix_long" => sims::run(Sim::PaperMixLong, seed, seconds, trace, &tracer, &mut out),
        "tenant_fleet" => sims::run(Sim::TenantFleet, seed, seconds, trace, &tracer, &mut out),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let catalogue = if trace {
        let mut self_times: Vec<(&str, f64)> = tracer.self_times().into_iter().collect();
        self_times.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (name, s) in self_times {
            println!("# self time {name:<28} {s:.6} s");
        }
        let path = format!(
            "{}/spans_{}_seed{}.tsv",
            args.spans_dir, args.workload, args.seed
        );
        let written = std::fs::create_dir_all(&args.spans_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_tsv()));
        match written {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => out.problem(format!("could not write spans to {path}: {e}")),
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", out.render(&args.workload, catalogue));
    ExitCode::SUCCESS
}
