//! The repository's one gated benchmark: six named workloads, nine
//! end-to-end metrics on two clocks (virtual time and host wall clock),
//! per-layer counters and a traced run. See `README.md`.
//!
//! ```text
//! knet-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>]
//!                    [--scale <percent>] [--trace-out <file>]
//! knet-benchmark list
//! knet-benchmark selfcheck [--seed <u64>] [--seconds <s>] [--scale <percent>]
//! ```

mod host;
mod metrics;
mod micro;
mod probe;
mod runner;
mod trace;
mod workloads;

use std::process::ExitCode;

use host::Json;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use runner::{Args, Outcome};

#[global_allocator]
static GLOBAL: host::CountingAlloc = host::CountingAlloc;

const DEFAULT_SEED: u64 = 0x6B6E_6574;
const DEFAULT_SECONDS: f64 = 8.0;

fn usage() -> ExitCode {
    eprintln!(
        "usage: knet-benchmark run --workload <name> --seed <u64> [--seconds <s>] [--trace <0|1>] \
         [--scale <percent>] [--trace-out <file>]\n       knet-benchmark list\n       \
         knet-benchmark selfcheck [--seed <u64>] [--seconds <s>] [--scale <percent>]"
    );
    ExitCode::from(2)
}

/// Parse `--key value` pairs; `None` on anything unknown or malformed.
fn parse(flags: &[String]) -> Option<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: 100,
        trace_out: None,
    };
    let mut it = flags.iter();
    while let Some(flag) = it.next() {
        let value = it.next()?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().ok()?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                }
            }
            "--scale" => args.scale = value.parse().ok().filter(|s| (1..=100).contains(s))?,
            "--trace-out" => args.trace_out = Some(value.into()),
            _ => return None,
        }
    }
    Some(args)
}

fn run_workload(args: &Args) -> Option<Outcome> {
    use workloads::*;
    Some(match args.workload.as_str() {
        "p2p_small" => runner::run::<p2p_small::P2pSmall>(args),
        "bulk_lossy" => runner::run::<bulk_lossy::BulkLossy>(args),
        "orfs_rw" => runner::run::<orfs_rw::OrfsRw>(args),
        "kv_failover" => runner::run::<kv_failover::KvFailover>(args),
        "tenant_mix" => runner::run::<tenant_mix::TenantMix>(args),
        "ring_1k" => runner::run::<ring_1k::Ring1k>(args),
        _ => return None,
    })
}

/// Every metric of a run, by name with its unit, for a person to read.
fn print_table(args: &Args, out: &Outcome) {
    eprintln!("--- {} (seed {}) end to end", args.workload, args.seed);
    for (m, v) in END_TO_END.iter().zip(&out.end_to_end) {
        eprintln!("{:<28} {:>18.6} {}", m.name, v, m.unit);
    }
    eprintln!(
        "--- per layer{}",
        if args.trace {
            ""
        } else {
            " (C and V only: untraced run)"
        }
    );
    for m in PER_LAYER {
        if let Some(v) = out.layer.get(m.name) {
            eprintln!(
                "{:<40} {:>18.6} {:<10} [{}]",
                m.name,
                v,
                m.unit,
                m.source.letter()
            );
        }
    }
    for v in &out.violations {
        eprintln!("CHECK FAILED: {v}");
    }
}

/// The result line: the last line of standard output.
fn result_line(args: &Args, out: &Outcome) -> String {
    let mut j = Json::new();
    j.bool("correct", out.correct)
        .int("attempted", out.attempted.max(1))
        .int("failed", out.broken);
    j.begin("metrics");
    if args.trace {
        for m in PER_LAYER {
            j.metric(m.name, out.layer.value(m.name), m.unit);
        }
    } else {
        for (m, v) in END_TO_END.iter().zip(&out.end_to_end) {
            j.metric(m.name, *v, m.unit);
        }
    }
    j.end();
    j.finish()
}

fn cmd_run(flags: &[String]) -> ExitCode {
    let Some(args) = parse(flags) else {
        return usage();
    };
    let Some(out) = run_workload(&args) else {
        eprintln!("unknown workload {:?}; `list` names them", args.workload);
        return ExitCode::from(2);
    };
    print_table(&args, &out);
    println!("{}", result_line(&args, &out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One line per name, first word the kind — for people, and regular enough
/// for `tests/smoke.rs` to hold `BENCHMARK.json` against it.
fn cmd_list() -> ExitCode {
    println!("# workload <name> <why>");
    for w in WORKLOADS {
        println!("workload {} {}", w.name, w.why);
    }
    println!("# e2e <name> <unit> <better> <bound> <what>   (every workload reports all of them)");
    for m in END_TO_END {
        println!(
            "e2e {} {} {} {} {}",
            m.name, m.unit, m.better, m.bound, m.what
        );
    }
    println!(
        "# layer <name> <unit> <better> <source C|T|M|V> <the end-to-end metric it should move>"
    );
    for m in PER_LAYER {
        println!(
            "layer {} {} {} {} {}",
            m.name,
            m.unit,
            m.better,
            m.source.letter(),
            m.moves
        );
    }
    ExitCode::SUCCESS
}

/// Two sets of runs of the same code must agree: bit for bit on everything
/// virtual, within the bounds on everything the host clock touches.
fn cmd_selfcheck(flags: &[String]) -> ExitCode {
    let Some(base) = parse(flags) else {
        return usage();
    };
    let exact = [
        "virt_op_p50_us",
        "virt_op_p99_us",
        "virt_goodput_mbps",
        "virt_ops_per_s",
        "ok_share",
    ];
    let mut disagreements = 0usize;
    for w in WORKLOADS {
        let args = Args {
            workload: w.name.to_string(),
            trace: false,
            trace_out: None,
            ..base.clone()
        };
        let a = run_workload(&args).expect("listed workload");
        let b = run_workload(&args).expect("listed workload");
        for out in [&a, &b] {
            let row: Vec<String> = END_TO_END
                .iter()
                .zip(&out.end_to_end)
                .map(|(m, v)| format!("{}={v}", m.name))
                .collect();
            println!("{:<12} {}", w.name, row.join(" "));
        }
        let mut complain = |what: String| {
            println!("{:<12} DISAGREES: {what}", w.name);
            disagreements += 1;
        };
        if !(a.correct && b.correct) {
            complain(format!(
                "checks failed: {:?} {:?}",
                a.violations, b.violations
            ));
        }
        for ((m, x), y) in END_TO_END.iter().zip(&a.end_to_end).zip(&b.end_to_end) {
            if exact.contains(&m.name) {
                if x.to_bits() != y.to_bits() {
                    complain(format!("{} is not bit-identical: {x} vs {y}", m.name));
                }
            } else {
                let worse = match m.better {
                    "lower" => (y - x) / x,
                    _ => (x - y) / x,
                };
                // set-up times of a few milliseconds get an absolute floor.
                let floor = if m.name == "setup_s" { 0.05 / x } else { 0.0 };
                if worse.abs() > m.bound.max(floor) {
                    complain(format!(
                        "{} differs by {:.1} %: {x} vs {y}",
                        m.name,
                        worse * 100.0
                    ));
                }
            }
        }
        if a.counters != b.counters {
            for ((name, x), (_, y)) in a.counters.iter().zip(b.counters.iter()) {
                if x != y {
                    complain(format!("counter {name}: {x} vs {y}"));
                }
            }
        }
        if (a.allocs, a.samples, a.attempted) != (b.allocs, b.samples, b.attempted) {
            complain(format!(
                "allocs/samples/attempted: {:?} vs {:?}",
                (a.allocs, a.samples, a.attempted),
                (b.allocs, b.samples, b.attempted)
            ));
        }
    }
    let mut j = Json::new();
    j.bool("agree", disagreements == 0)
        .int("disagreements", disagreements as u64)
        .null("claim");
    println!("{}", j.finish());
    if disagreements == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.split_first() {
        Some((cmd, flags)) if cmd == "run" => cmd_run(flags),
        Some((cmd, [])) if cmd == "list" => cmd_list(),
        Some((cmd, flags)) if cmd == "selfcheck" => cmd_selfcheck(flags),
        _ => usage(),
    }
}
