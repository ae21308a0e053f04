//! `parfact-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`): runs the workload through the public façade
//! and prints the end-to-end metrics. Traced (`--trace 1`): times each
//! layer's public functions from outside and prints the per-layer
//! metrics. Either way the last stdout line is the result object; the
//! line before it is the full record (host fingerprint, seed, and each
//! metric's median, high percentile and sample count).

use parfact_perfbench::report::{self, Outcome};
use parfact_perfbench::stats::Fingerprint;
use parfact_perfbench::workload::{self, Spec};
use parfact_perfbench::{ladder, table};
use std::process::ExitCode;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds takes a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::named(&workload).ok_or(format!(
        "unknown workload {workload} (known: {})",
        workload::NAMES.join(", ")
    ))?;
    Ok(Args {
        spec,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("parfact-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let host = Fingerprint::host();
    let out = if args.trace {
        let l = ladder::run_ladder(&args.spec, args.seed, args.seconds);
        for line in table::gap_table(&l) {
            eprintln!("{line}");
        }
        Outcome::traced(&l)
    } else {
        Outcome::untraced(&workload::run_e2e(&args.spec, args.seed, args.seconds))
    };
    let (name, seed, seconds) = (args.spec.name, args.seed, args.seconds);
    println!(
        "{}",
        report::record(name, seed, seconds, args.trace, &host, &out)
    );
    println!("{}", out.result_line());
    ExitCode::SUCCESS
}
