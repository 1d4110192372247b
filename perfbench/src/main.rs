//! `perfbench`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <mis-tree|edgecol-tree|certify|suite-quick>
//!           --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//! ```
//!
//! The last line of standard output is the JSON result. With `--trace 1`
//! the spans are also written, one JSON object per line, to `--spans`
//! (default `perfbench/spans/<workload>-<seed>.jsonl`). Exit code 0 when
//! every instance passed its checks, 1 when one failed, 2 on bad usage.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use treelocal_perfbench::workloads::Workload;
use treelocal_perfbench::{run, RunOpts};

const USAGE: &str = "usage: perfbench --workload <mis-tree|edgecol-tree|certify|suite-quick> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans <file>]";

fn parse(args: &[String]) -> Result<(RunOpts, Option<PathBuf>), String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                seconds = Some(s).filter(|s| s.is_finite() && *s >= 0.0);
                seconds.ok_or_else(|| bad("a non-negative number"))?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let opts = RunOpts::bench(
        workload,
        seed,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    );
    let spans = spans.or_else(|| {
        opts.trace
            .then(|| PathBuf::from(format!("perfbench/spans/{}-{seed}.jsonl", workload.name())))
    });
    Ok((opts, spans))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, spans) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for e in &report.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    if let (Some(path), Some(tracer)) = (&spans, &report.tracer) {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("perfbench: could not write spans to {}: {e}", path.display());
        }
    }
    print!("{}", report.render());
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
