//! `perfbench`: the end-to-end measurement and the correctness check,
//! on the system allocator. One invocation runs one workload:
//!
//! ```text
//! perfbench measure --workload W --seed N [--budget-ms B]
//! perfbench check   --workload W --seed N [--inject]
//! ```
//!
//! `measure` prepares the workload (set-up), then runs the full
//! population through `FleetRunner::run` until the budget is spent,
//! timing each run's wall and process CPU, and prints one JSON line.
//! `check` runs the full population once on one thread and prints its
//! digest, with the digest recorded for the default seed.

use std::process::ExitCode;
use std::time::Instant;

use mcommerce_core::{FleetRunner, TransactionReport};
use perfbench::digest::digest;
use perfbench::host_stats::{peak_rss_kb, process_cpu_secs};
use perfbench::json::{array, Obj};
use perfbench::workloads::DEFAULT_SEED;
use perfbench::{prepare, Options};

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: perfbench (measure|check) --workload W --seed N");
        return ExitCode::from(2);
    };
    let opts = match Options::parse(rest) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match command.as_str() {
        "measure" => measure(&opts, started),
        "check" => check(&opts),
        other => {
            eprintln!("perfbench: unknown command {other:?}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

fn measure(opts: &Options, started: Instant) {
    let prepared = prepare(opts, started);
    let runner = FleetRunner::new(prepared.scenario)
        .topology(prepared.topology)
        .threads(opts.threads);
    let window = Instant::now();
    let mut reps = Vec::new();
    while reps.is_empty() || window.elapsed().as_millis() < u128::from(opts.budget_ms) {
        let cpu0 = process_cpu_secs();
        let t0 = Instant::now();
        let run = runner.run();
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_s = process_cpu_secs() - cpu0;
        let counters = &run.report.summary.workload.counters;
        reps.push(
            Obj::new()
                .num("wall_s", wall_s)
                .num("cpu_s", cpu_s)
                .int("txns", counters.attempted)
                .str(
                    "digest",
                    &format!("{:016x}", digest(counters, run.contention.as_ref())),
                )
                .int(
                    "unexpected_failures",
                    opts.workload.unexpected_failures(counters),
                )
                .finish(),
        );
    }
    println!(
        "{}",
        Obj::new()
            .num("setup_s", prepared.setup_s)
            .raw("reps", &array(reps))
            .int("expected_attempted", prepared.mix.total())
            .int("peak_rss_kb", peak_rss_kb())
            .int("threads", opts.threads as u64)
            .finish()
    );
}

fn check(opts: &Options) {
    let (scenario, topology) = opts.workload.build(opts.seed, opts.workload.full_islands());
    let run = FleetRunner::new(scenario)
        .topology(topology)
        .threads(1)
        .run();
    let mut counters = run.report.summary.workload.counters.clone();
    if opts.inject {
        counters.record(&TransactionReport::failed("injected by the self-test"));
    }
    let recorded = opts.workload.recorded_digest();
    let obj = Obj::new()
        .str(
            "digest",
            &format!("{:016x}", digest(&counters, run.contention.as_ref())),
        )
        .int("attempted", counters.attempted)
        .raw(
            "failures",
            &counters
                .failures
                .iter()
                .fold(Obj::new(), |obj, (reason, n)| obj.int(reason, *n))
                .finish(),
        );
    let obj = if opts.seed == DEFAULT_SEED {
        obj.str("recorded", &format!("{recorded:016x}"))
    } else {
        obj.raw("recorded", "null")
    };
    println!("{}", obj.finish());
}
