//! The repository benchmark: host throughput, CPU, memory and set-up of
//! the fleet simulator on three workloads, plus a traced replay that
//! attributes host time and allocations to each layer.
//!
//! Two binaries share this library. `perfbench` measures the end-to-end
//! metrics and runs the correctness check on the system allocator;
//! `perfbench-trace` installs [`alloc::CountingAlloc`] and runs the
//! per-layer replay. `run.py` drives both, one workload per process.

pub mod alloc;
pub mod digest;
pub mod host_stats;
pub mod json;
pub mod replay;
pub mod workloads;

use std::time::Instant;

use mcommerce_core::{FleetRunner, Scenario, Topology};

use workloads::{request_mix, RequestMix, Workload};

/// Command-line options shared by both binaries.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Worker threads for fleet runs: the machine's available
    /// parallelism.
    pub threads: usize,
    /// Milliseconds the measured part should last.
    pub budget_ms: u64,
    /// Adds one fabricated transaction before digesting (self-test of
    /// the correctness check).
    pub inject: bool,
}

impl Options {
    /// Parses `--workload W --seed N [--budget-ms B] [--inject]`, or
    /// explains what is wrong.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = workloads::DEFAULT_SEED;
        let mut budget_ms = 2_000;
        let mut inject = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    workload = Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
                "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--budget-ms" => {
                    budget_ms = value()?.parse().map_err(|e| format!("--budget-ms: {e}"))?
                }
                "--inject" => inject = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed,
            threads: mcommerce_core::fleet::default_threads(),
            budget_ms,
            inject,
        })
    }
}

/// A workload's full population, its generated inputs, and the set-up
/// time it took to get them ready for timing.
pub struct Prepared {
    /// The full-population scenario.
    pub scenario: Scenario,
    /// Its topology.
    pub topology: Topology,
    /// The request mix the inputs hold.
    pub mix: RequestMix,
    /// Seconds from `started` to the end of the warm-up.
    pub setup_s: f64,
}

/// Set-up: generates the workload's inputs from the seed, then runs the
/// full population once, untimed, so lazy set-up (process-wide page
/// statics, memo tables, the heap's growth to its working size) is done
/// before any timed window. Without it the first timed run reads slow.
pub fn prepare(opts: &Options, started: Instant) -> Prepared {
    let w = opts.workload;
    let (scenario, topology) = w.build(opts.seed, w.full_islands());
    let mix = request_mix(&scenario);
    std::hint::black_box(
        FleetRunner::new(scenario.clone())
            .topology(topology)
            .threads(opts.threads)
            .run(),
    );
    Prepared {
        scenario,
        topology,
        mix,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`, 0 when empty.
pub fn percentile<T: Copy + Ord + Default>(values: &mut [T], p: f64) -> T {
    if values.is_empty() {
        return T::default();
    }
    values.sort_unstable();
    let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

/// Median of `values`, 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
