//! `perfbench-trace`: the traced per-layer run of one workload.
//!
//! ```text
//! perfbench-trace --workload W --seed N [--budget-ms B]
//! ```
//!
//! 1. Set-up as in the untraced run.
//! 2. The full population once with the layers' own counters switched
//!    on (`traced(true)` with the recorder disabled): cache and memo
//!    counts and the simulated statistics.
//! 3. Replay passes over a scaled copy of the workload (see
//!    `perfbench::replay`) until the budget is spent: one warm-up pass,
//!    then at least two measured passes whose allocation counts must
//!    repeat exactly. Each pass also times the engine itself on the
//!    same population, untraced and traced, on one thread.
//!
//! Prints one JSON line: per-layer metrics with units, the traffic
//! report, and the self-test results.

use std::process::ExitCode;
use std::time::Instant;

use mcommerce_core::{FleetRunner, RecorderKind, Scenario, Topology};
use perfbench::alloc::CountingAlloc;
use perfbench::digest::digest;
use perfbench::json::Obj;
use perfbench::replay::{netpath_ns, replay, Pass};
use perfbench::workloads::DEFAULT_SEED;
use perfbench::{median, percentile, prepare, Options};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Options::parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench-trace: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", trace(&opts, started));
    ExitCode::SUCCESS
}

/// One measured replay pass plus the engine timings on its population.
struct Measured {
    pass: Pass,
    engine_wall_ns: f64,
    traced_wall_ns: f64,
    air_ns: f64,
    wired_ns: f64,
}

fn engine_wall_ns(scenario: &Scenario, topology: &Topology, traced: bool) -> f64 {
    let t0 = Instant::now();
    std::hint::black_box(
        FleetRunner::new(scenario.clone())
            .topology(*topology)
            .threads(1)
            .traced(traced)
            .run(),
    );
    t0.elapsed().as_nanos() as f64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn trace(opts: &Options, started: Instant) -> String {
    let w = opts.workload;
    let prepared = prepare(opts, started);

    // The counts the layers publish, over the full population.
    let full = FleetRunner::new(prepared.scenario.clone())
        .topology(prepared.topology)
        .threads(opts.threads)
        .traced(true)
        .recorder(RecorderKind::Disabled)
        .run();
    let counters = &full.report.summary.workload.counters;
    let published = &full
        .trace
        .as_ref()
        .expect("traced runs carry a trace")
        .metrics;
    let c = |name: &str| published.counter(name);
    let contention = full.contention.clone().unwrap_or_default();
    let mut attempted = counters.attempted;
    let mut failed = w.unexpected_failures(counters);
    // The layers' counters only observe: the traced run must digest to
    // the recorded value.
    let digest_ok = opts.seed != DEFAULT_SEED
        || digest(counters, full.contention.as_ref()) == w.recorded_digest();

    // Replay passes over the scaled population.
    let (scenario, topology) = w.build(opts.seed, w.traced_islands());
    let shards = opts.threads as u64;
    std::hint::black_box(replay(&scenario, &topology, shards));
    let budget = Instant::now();
    let mut passes: Vec<Measured> = Vec::new();
    while passes.len() < 2 || budget.elapsed().as_millis() < u128::from(opts.budget_ms) {
        let pass = replay(&scenario, &topology, shards);
        let (air_ns, wired_ns) = netpath_ns(&scenario, &pass);
        passes.push(Measured {
            engine_wall_ns: engine_wall_ns(&scenario, &topology, false),
            traced_wall_ns: engine_wall_ns(&scenario, &topology, true),
            pass,
            air_ns,
            wired_ns,
        });
    }
    let alloc_repeat = passes
        .iter()
        .all(|m| m.pass.signature() == passes[0].pass.signature());
    for m in &passes {
        attempted += m.pass.counters.attempted;
        failed += w.unexpected_failures(&m.pass.counters);
    }

    // Pooled samples across measured passes.
    let pool = |f: &dyn Fn(&Pass) -> &Vec<u64>| -> Vec<u64> {
        passes
            .iter()
            .flat_map(|m| f(&m.pass).iter().copied())
            .collect()
    };
    let us_p = |mut v: Vec<u64>, p: f64| percentile(&mut v, p) as f64 / 1e3;
    let per_pass = |f: &dyn Fn(&Measured) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let first = &passes[0].pass;
    let users = first.provision_ns.len() as u64;
    let txns = first.txn_ns.len() as u64;
    let mut self_ns: Vec<i64> = passes
        .iter()
        .flat_map(|m| m.pass.txn_self_ns.iter().copied())
        .collect();

    let summary = &full.report.summary.workload;
    let per_txn_ms = |ns: u64| ratio(ns, contention.transactions) / 1e6;
    let share = |k: &str| summary.component_shares.get(k).copied().unwrap_or(0.0);
    let gw_lookups = c("middleware.cache.hits") + c("middleware.cache.misses");
    let page_lookups = c("host.page_cache.hits") + c("host.page_cache.misses");
    let search_lookups = c("host.db_cache.search_hits") + c("host.db_cache.search_misses");
    let evictions = c("middleware.cache.evictions") + c("host.page_cache.evictions");

    let metrics = Obj::new()
        .raw(
            "provision.us_per_user",
            &m(us_p(pool(&|p| &p.provision_ns), 50.0), "us"),
        )
        .raw(
            "provision.allocs_per_user",
            &m(ratio(first.provision_allocs.allocs, users), "count"),
        )
        .raw(
            "engine.self_us_per_txn",
            &m(
                per_pass(&|m| {
                    let children: u64 = m.pass.provision_ns.iter().chain(&m.pass.txn_ns).sum();
                    (m.engine_wall_ns - children as f64) / txns as f64 / 1e3
                }),
                "us",
            ),
        )
        .raw(
            "merge.us_total",
            &m(per_pass(&|m| m.pass.merge_ns as f64 / 1e3), "us"),
        )
        .raw("txn.us_p50", &m(us_p(pool(&|p| &p.txn_ns), 50.0), "us"))
        .raw("txn.us_p99", &m(us_p(pool(&|p| &p.txn_ns), 99.0), "us"))
        .raw(
            "txn.self_us_p50",
            &m(percentile(&mut self_ns, 50.0) as f64 / 1e3, "us"),
        )
        .raw(
            "txn.allocs_per_txn",
            &m(ratio(first.txn_allocs.allocs, txns), "count"),
        )
        .raw(
            "host.us_p50.browse",
            &m(us_p(pool(&|p| &p.host_ns[0]), 50.0), "us"),
        )
        .raw(
            "host.us_p50.search",
            &m(us_p(pool(&|p| &p.host_ns[1]), 50.0), "us"),
        )
        .raw(
            "host.us_p50.buy",
            &m(us_p(pool(&|p| &p.host_ns[2]), 50.0), "us"),
        )
        .raw(
            "host.allocs_per_request",
            &m(
                ratio(first.host_allocs.allocs, first.host_requests),
                "count",
            ),
        )
        .raw(
            "gateway.transcode_us_p50",
            &m(us_p(pool(&|p| &p.transcode_ns), 50.0), "us"),
        )
        .raw(
            "gateway.memo_hit_ratio",
            &m(
                ratio(first.memo.transcode_hits, first.memo.transcode_lookups),
                "ratio",
            ),
        )
        .raw(
            "gateway.cache_hit_ratio",
            &m(ratio(c("middleware.cache.hits"), gw_lookups), "ratio"),
        )
        .raw(
            "station.render_us_p50",
            &m(us_p(pool(&|p| &p.render_ns), 50.0), "us"),
        )
        .raw(
            "station.render_memo_hit_ratio",
            &m(
                ratio(first.memo.render_hits, first.memo.render_lookups),
                "ratio",
            ),
        )
        .raw(
            "netpath.air_ns_per_transfer",
            &m(per_pass(&|m| m.air_ns), "ns"),
        )
        .raw(
            "netpath.wired_ns_per_transfer",
            &m(per_pass(&|m| m.wired_ns), "ns"),
        )
        .raw(
            "host.db.search_memo_hit_ratio",
            &m(
                ratio(c("host.db_cache.search_hits"), search_lookups),
                "ratio",
            ),
        )
        .raw(
            "host.db.invalidations",
            &m(c("host.db_cache.invalidations") as f64, "count"),
        )
        .raw(
            "host.page_cache.hit_ratio",
            &m(ratio(c("host.page_cache.hits"), page_lookups), "ratio"),
        )
        .raw("cache.evictions", &m(evictions as f64, "count"))
        .raw(
            "obs.traced_overhead_ratio",
            &m(per_pass(&|m| m.traced_wall_ns / m.engine_wall_ns), "ratio"),
        )
        .raw(
            "model.sim_p50_ms",
            &m(counters.latency_percentile(50.0) * 1e3, "sim_ms"),
        )
        .raw(
            "model.sim_p99_ms",
            &m(counters.latency_percentile(99.0) * 1e3, "sim_ms"),
        )
        .raw("model.success_ratio", &m(summary.success_rate(), "ratio"))
        .raw(
            "model.cell_wait_ms_per_txn",
            &m(per_txn_ms(contention.cell_wait_ns), "sim_ms"),
        )
        .raw(
            "model.gateway_wait_ms_per_txn",
            &m(per_txn_ms(contention.gateway_wait_ns), "sim_ms"),
        )
        .raw(
            "model.host_wait_ms_per_txn",
            &m(per_txn_ms(contention.host_wait_ns), "sim_ms"),
        )
        .raw("model.share.station", &m(share("station"), "ratio"))
        .raw("model.share.wireless", &m(share("wireless"), "ratio"))
        .raw("model.share.middleware", &m(share("middleware"), "ratio"))
        .raw("model.share.wired", &m(share("wired"), "ratio"))
        .raw("model.share.host", &m(share("host"), "ratio"))
        .finish();

    let mix = prepared.mix;
    let requests = mix.total();
    let traffic = Obj::new()
        .num("browse_share", ratio(mix.browse, requests))
        .num("search_share", ratio(mix.search, requests))
        .num("buy_share", ratio(mix.buy, requests))
        .num(
            "gateway_cacheable_lookup_share",
            ratio(gw_lookups, counters.attempted),
        )
        .num(
            "gateway_cache_hit_share",
            ratio(c("middleware.cache.hits"), counters.attempted),
        )
        .num(
            "host_page_cache_lookup_share",
            ratio(page_lookups, counters.attempted),
        )
        .num(
            "host_page_cache_hit_share",
            ratio(c("host.page_cache.hits"), counters.attempted),
        )
        .int("gateway_cache_evictions", c("middleware.cache.evictions"))
        .int("host_page_cache_evictions", c("host.page_cache.evictions"))
        .num(
            "db_query_cache_hit_ratio",
            ratio(
                c("host.db_cache.hits"),
                c("host.db_cache.hits") + c("host.db_cache.misses"),
            ),
        )
        .num(
            "db_search_memo_hit_ratio",
            ratio(c("host.db_cache.search_hits"), search_lookups),
        )
        .num(
            "transcode_memo_hit_ratio",
            ratio(first.memo.transcode_hits, first.memo.transcode_lookups),
        )
        .num(
            "render_memo_hit_ratio",
            ratio(first.memo.render_hits, first.memo.render_lookups),
        )
        .int(
            "simulated_refusals",
            counters.attempted - counters.succeeded,
        )
        .finish();

    Obj::new()
        .num("setup_s", prepared.setup_s)
        .int("attempted", attempted)
        .int("unexpected_failures", failed)
        .bool("alloc_repeat", alloc_repeat)
        .bool("digest_ok", digest_ok)
        .int("threads", opts.threads as u64)
        .int("passes", passes.len() as u64)
        .int("replay_users", users)
        .int("replay_txns", txns)
        .raw("metrics", &metrics)
        .raw("traffic", &traffic)
        .finish()
}

/// A metric value with its unit.
fn m(value: f64, unit: &str) -> String {
    Obj::new().num("value", value).str("unit", unit).finish()
}
