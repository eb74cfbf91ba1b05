//! Command line of the benchmark:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paths-native|paths-retarget|feed-history|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints, per workload, the context, every metric with its unit and
//! sample count, a JSON report line, and the JSON result line; the last
//! line of the output is a result line. Exits 1 when any answer is wrong,
//! 2 on bad arguments.

use std::path::PathBuf;

use nepal_perfbench::{run, Config, Workload};

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: --workload <paths-native|paths-retarget|feed-history|all> --seed <n> --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::from_name(name).unwrap_or_else(|| usage("unknown workload"))],
                })
            }
            "--seed" => seed = Some(value.parse::<u64>().unwrap_or_else(|_| usage("--seed takes an integer"))),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).unwrap_or_else(|| usage("bad --seconds")))
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let workloads = workload.unwrap_or_else(|| usage("--workload is required"));
    let mut correct = true;
    for workload in workloads {
        let mut cfg = Config::new(workload, seed.unwrap_or(1), seconds.unwrap_or(10.0), trace.unwrap_or(false));
        cfg.span_dir = Some(PathBuf::from(".perfbench"));
        let report = run(&cfg);
        print!("{}", report.text());
        println!("{}", report.json());
        println!("{}", report.result_line());
        correct &= report.correct();
    }
    if !correct {
        std::process::exit(1);
    }
}
