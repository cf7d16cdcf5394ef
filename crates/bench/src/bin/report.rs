//! Regenerates every table and figure of the paper from the simulation
//! and prints them in paper order.
//!
//! ```text
//! cargo run -p bench --bin report [--quick] [--f4] [--f5] [--f6] [--f7] [--f8] [--f9] [--f10] [--f11] [--f12] [--trace] [--dash]
//! ```
//!
//! `--quick` shrinks every workload for smoke runs; `--f4` runs only the
//! F4 event-engine experiment (and still writes `BENCH_engine.json`);
//! `--f5` runs only the F5 observability-overhead experiment (writes
//! `BENCH_obs.json`); `--f6` runs only the F6 fault-injection experiment
//! (writes `BENCH_faults.json`); `--f7` runs only the F7 caching-hierarchy
//! experiment (writes `BENCH_cache.json`); `--f8` runs only the F8
//! shared-world contention experiment (writes `BENCH_contention.json`);
//! `--f9` runs only the F9 fleet-scale experiment (writes
//! `BENCH_scale.json` — populations × threads with peak-RSS curves, plus
//! a shared-topology column of one-user islands; each cell re-executes
//! this binary via the internal `--f9-cell` mode so its RSS high-water
//! mark is measured in a fresh process).
//! `--f10` runs only the F10 fleet-telemetry experiment (writes
//! `BENCH_telemetry.json`); `--f11` runs only the F11 durable-storage
//! experiment (writes `BENCH_db.json` — WAL group commit × fsync cost,
//! recovery-outage pricing, and the zero-cost identity gate).
//! `--trace` additionally exports the
//! fixed-seed fleet trace as `TRACE_fleet.jsonl` and
//! `TRACE_fleet.trace.json` — open the latter in `chrome://tracing` or
//! <https://ui.perfetto.dev>. `--dash` (with `--f8`) appends the
//! resource dashboard: per-resource peak utilisation, saturation-onset
//! sim-times, the busiest-resource attribution of the p99 knee, and the
//! telemetry artefacts `TELEMETRY_fleet.jsonl` +
//! `TRACE_fleet.counters.trace.json` (spans *and* Perfetto counter
//! tracks).

use bench::ablations;
use bench::cache_experiment;
use bench::contention_experiment;
use bench::db_experiment;
use bench::engine;
use bench::experiments;
use bench::faults_experiment;
use bench::obs_experiment;
use bench::scale_experiment;
use bench::search_experiment;
use bench::tcpx;
use bench::telemetry_experiment;
use mcommerce_core::{fleet, CachePolicy, Category, FleetRunner, Scenario, Topology};
use simnet::SimDuration;

fn heading(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Runs F4 and writes the `BENCH_engine.json` artefact next to the
/// working directory.
fn f4(quick: bool) {
    heading("F4 — event engine: timer-wheel scheduler vs BinaryHeap reference");
    let numbers = engine::run(quick);
    println!("{numbers}");
    let path = "BENCH_engine.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_engine.json");
    println!("\n-> wrote {path}");
}

/// Runs F5, writes `BENCH_obs.json`, and (with `--trace`) exports the
/// fixed-seed fleet trace.
fn f5(quick: bool, trace: bool) {
    heading("F5 — observability: flight-recorder overhead, on and off");
    let numbers = obs_experiment::run(quick);
    println!("{numbers}");
    let path = "BENCH_obs.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_obs.json");
    println!("\n-> wrote {path}");
    if trace {
        let scenario = obs_experiment::trace_scenario(quick);
        let fleet_trace = FleetRunner::new(scenario)
            .threads(fleet::default_threads())
            .traced(true)
            .run()
            .trace
            .expect("traced run carries a trace");
        std::fs::write("TRACE_fleet.jsonl", fleet_trace.to_jsonl()).expect("write trace jsonl");
        std::fs::write("TRACE_fleet.trace.json", fleet_trace.to_chrome_json())
            .expect("write chrome trace");
        println!(
            "-> wrote TRACE_fleet.jsonl + TRACE_fleet.trace.json ({} events, {} dumps); \
             open the .trace.json in chrome://tracing or https://ui.perfetto.dev",
            fleet_trace.events.len(),
            fleet_trace.dumps.len()
        );
        for dump in fleet_trace.dumps.iter().take(3) {
            println!("{dump}");
        }
    }
}

/// Runs F6 and writes the `BENCH_faults.json` artefact.
fn f6(quick: bool) {
    heading("F6 — fault injection: availability + tail latency under storms, MC vs EC");
    let numbers = faults_experiment::run(quick);
    println!("{numbers}");
    let path = "BENCH_faults.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_faults.json");
    println!("\n-> wrote {path}");
}

/// Runs F7 and writes the `BENCH_cache.json` artefact.
fn f7(quick: bool) {
    heading("F7 — caching hierarchy: cold vs warm latency, zero-TTL identity");
    let numbers = cache_experiment::run(quick);
    println!("{numbers}");
    let path = "BENCH_cache.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_cache.json");
    println!("\n-> wrote {path}");
}

/// Runs F8 and writes the `BENCH_contention.json` artefact. With
/// `dash`, appends the telemetry dashboard for the largest knee
/// population and exports the counter-track trace.
fn f8(quick: bool, dash: bool) {
    heading("F8 — shared-world contention: the knee + shared-cache growth");
    let numbers = contention_experiment::run(quick);
    println!("{numbers}");
    let path = "BENCH_contention.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_contention.json");
    println!("\n-> wrote {path}");
    if dash {
        f8_dash(quick);
    }
}

/// The `--f8 --dash` view: reruns the largest knee population with
/// telemetry on, prints per-resource peaks and saturation onsets,
/// attributes the p99 knee to the busiest shared resource, and writes
/// the series + counter-track artefacts (the artefact run adds the
/// long-TTL shared cache so the hit-rate track is live in Perfetto).
fn f8_dash(quick: bool) {
    let users: u64 = if quick { 32 } else { 96 };
    let scenario = Scenario::new("F8")
        .app(Category::Entertainment)
        .users(users)
        .sessions_per_user(6)
        .think_time(2.0)
        .seed(801);
    let knee_run = FleetRunner::new(scenario.clone())
        .topology(Topology::shared())
        .threads(2)
        .telemetry(true)
        .run();
    let telemetry = knee_run.timeseries.as_ref().expect("telemetry on");
    let stats = knee_run.contention.as_ref().expect("shared run");

    println!(
        "\nresource dashboard — {} users, bin {} ms:",
        users,
        telemetry.bin_ns() / 1_000_000
    );
    println!("  {:<28} {:>8}  saturated (>=90%) from", "series", "peak");
    for name in telemetry.names().map(str::to_owned).collect::<Vec<_>>() {
        let kind = telemetry.kind(&name).expect("registered").name();
        let peak = telemetry.peak_milli(&name).unwrap_or(0);
        let onset = telemetry.onset_ns(&name, telemetry_experiment::SATURATION_MILLI);
        println!(
            "  {:<28} {:>8}  {}",
            name,
            telemetry_experiment::peak_display(kind, peak),
            telemetry_experiment::onset_display(kind, onset),
        );
    }

    // Knee attribution: the shared resource that collected the most
    // wait is what bends p99.
    let waits = [
        ("cell airtime", "cell0000.airtime_util", stats.cell_wait_ns),
        ("gateway CPU", "gateway0000.cpu_util", stats.gateway_wait_ns),
        ("host CPU", "host0000.cpu_util", stats.host_wait_ns),
    ];
    let total: u64 = waits.iter().map(|&(_, _, ns)| ns).sum();
    let &(label, series, wait_ns) = waits
        .iter()
        .max_by_key(|&&(_, _, ns)| ns)
        .expect("three resources");
    let onset = telemetry.onset_ns(series, telemetry_experiment::SATURATION_MILLI);
    println!(
        "\n-> p99 knee attribution: {} ({:.1}% of all shared-resource wait; `{}` {})",
        label,
        if total == 0 {
            0.0
        } else {
            wait_ns as f64 / total as f64 * 100.0
        },
        series,
        match onset {
            Some(ns) => format!("first >=90% utilised at {:.1} s sim-time", ns as f64 / 1e9),
            None => format!(
                "peaks at {:.1}%",
                telemetry.peak_milli(series).unwrap_or(0) as f64 / 10.0
            ),
        }
    );

    // Artefacts: the same world with the long-TTL shared cache, traced,
    // so the Perfetto view carries span swim-lanes plus live counter
    // tracks for every resource including the cache hit-rate.
    let artefact_run = FleetRunner::new(
        scenario.cache(CachePolicy::standard().ttl(SimDuration::from_secs(3600))),
    )
    .topology(Topology::shared())
    .threads(2)
    .traced(true)
    .telemetry(true)
    .run();
    let artefact_series = artefact_run.timeseries.as_ref().expect("telemetry on");
    let trace = artefact_run.trace.as_ref().expect("traced run");
    std::fs::write("TELEMETRY_fleet.jsonl", artefact_series.to_jsonl())
        .expect("write telemetry jsonl");
    std::fs::write(
        "TRACE_fleet.counters.trace.json",
        obs::export::to_chrome_trace_with(&trace.events, Some(artefact_series)),
    )
    .expect("write counter trace");
    println!(
        "-> wrote TELEMETRY_fleet.jsonl ({} points) + TRACE_fleet.counters.trace.json \
         ({} span events, {} counter tracks); open the trace in https://ui.perfetto.dev",
        artefact_series.to_jsonl().lines().count(),
        trace.events.len(),
        artefact_series.names().count(),
    );
}

/// Runs F10 and writes the `BENCH_telemetry.json` artefact.
fn f10(quick: bool) {
    heading("F10 — fleet telemetry: cost when off, identity when on");
    let numbers = telemetry_experiment::run(quick);
    println!("{numbers}");
    let path = "BENCH_telemetry.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_telemetry.json");
    println!("\n-> wrote {path}");
}

/// Runs F11 and writes the `BENCH_db.json` artefact.
fn f11(quick: bool) {
    heading("F11 — durable storage: group commit × fsync cost, recovery pricing");
    let numbers = db_experiment::run(quick);
    println!("{numbers}");
    let path = "BENCH_db.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_db.json");
    println!("\n-> wrote {path}");
}

/// Runs F12 and writes the `BENCH_search.json` artefact.
fn f12(quick: bool) {
    heading("F12 — full-text search: cold vs memoized latency, index scaling");
    let numbers = search_experiment::run(quick);
    println!("{numbers}");
    let path = "BENCH_search.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_search.json");
    println!("\n-> wrote {path}");
}

/// Runs F9 and writes the `BENCH_scale.json` artefact.
fn f9(quick: bool) {
    heading("F9 — fleet scale: populations × threads, wall-clock / tps / peak RSS");
    let numbers = scale_experiment::run(quick);
    println!("{numbers}");
    let path = "BENCH_scale.json";
    std::fs::write(path, numbers.to_json()).expect("write BENCH_scale.json");
    println!("\n-> wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Hidden subprocess mode: run exactly one F9 grid cell in this
    // process (fresh RSS high-water mark) and print it as one JSON line.
    if let Some(at) = args.iter().position(|a| a == "--f9-cell") {
        let usage = "--f9-cell <users> <threads> [shared]";
        let users: u64 = args[at + 1].parse().expect(usage);
        let threads: usize = args[at + 2].parse().expect(usage);
        let shared = args.get(at + 3).is_some_and(|a| a == "shared");
        println!("{}", scale_experiment::run_cell(users, threads, shared).to_json());
        return;
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let trace = std::env::args().any(|a| a == "--trace");
    let dash = std::env::args().any(|a| a == "--dash");
    let only_f4 = std::env::args().any(|a| a == "--f4");
    let only_f5 = std::env::args().any(|a| a == "--f5");
    let only_f6 = std::env::args().any(|a| a == "--f6");
    let only_f7 = std::env::args().any(|a| a == "--f7");
    let only_f8 = std::env::args().any(|a| a == "--f8");
    let only_f9 = std::env::args().any(|a| a == "--f9");
    let only_f10 = std::env::args().any(|a| a == "--f10");
    let only_f11 = std::env::args().any(|a| a == "--f11");
    let only_f12 = std::env::args().any(|a| a == "--f12");
    if only_f4 || only_f5 || only_f6 || only_f7 || only_f8 || only_f9 || only_f10 || only_f11 || only_f12
    {
        if only_f4 {
            f4(quick);
        }
        if only_f5 {
            f5(quick, trace);
        }
        if only_f6 {
            f6(quick);
        }
        if only_f7 {
            f7(quick);
        }
        if only_f8 {
            f8(quick, dash);
        }
        if only_f9 {
            f9(quick);
        }
        if only_f10 {
            f10(quick);
        }
        if only_f11 {
            f11(quick);
        }
        if only_f12 {
            f12(quick);
        }
        return;
    }
    let (txns, sessions, t4_bytes, x1_bytes) = if quick {
        (40, 4, 50_000, 150_000)
    } else {
        (300, 12, 200_000, 400_000)
    };

    heading("Figures 1 & 2 — EC (4 components) vs MC (6 components), same workload");
    let (ec, mc) = experiments::fig1_fig2(txns);
    println!("{ec}");
    println!("{mc}");
    println!(
        "\n-> MC adds the mobile middleware and wireless components; both carry\n\
         real latency, and the end-to-end transaction still completes."
    );

    heading("Table 1 — major mobile commerce applications (all 8 categories, measured)");
    for row in experiments::table1(sessions) {
        println!("{row}");
    }

    heading("Table 2 — mobile stations (same workload per device)");
    for row in experiments::table2(sessions) {
        println!("{row}");
    }

    heading("Table 3 — WAP vs i-mode middleware");
    for row in experiments::table3(sessions) {
        println!("{row}");
    }

    heading("Table 4 — WLAN standards: goodput vs distance");
    let rows = experiments::table4(t4_bytes);
    let mut last = String::new();
    for row in rows {
        if row.standard != last {
            println!(
                "--- {} (nominal {} Mbps) ---",
                row.standard,
                row.nominal_bps / 1_000_000
            );
            last = row.standard.clone();
        }
        if row.goodput_bps > 0.0 {
            println!(
                "  {:>5.0} m: {:>8.2} Mbps ({} retx)",
                row.distance_m,
                row.goodput_bps / 1e6,
                row.retransmissions
            );
        } else {
            println!("  {:>5.0} m: out of range", row.distance_m);
        }
    }

    heading("Table 5 — cellular generations (payment transaction per standard)");
    for row in experiments::table5() {
        println!("{row}");
    }

    heading("F3 — fleet engine: users × threads, same merged result, wall-clock only");
    let fleet_users: &[u64] = if quick {
        &[1, 100, 1_000]
    } else {
        &[1, 100, 1_000, 10_000]
    };
    for row in experiments::fleet_scale(fleet_users, &[1, 2, 4, 8]) {
        println!("{row}");
    }
    println!(
        "\n-> the merged FleetSummary is asserted identical at every thread\n\
         count; txns/s varies only with the machine's real parallelism."
    );

    f4(quick);
    f5(quick, trace);
    f6(quick);
    f7(quick);
    f8(quick, dash);
    f9(quick);
    f10(quick);
    f11(quick);
    f12(quick);

    heading("X1 — §5.2: TCP variants over an error-prone wireless hop");
    for row in tcpx::full_sweep(x1_bytes) {
        println!("{row}");
    }

    heading("X2 — §1.1: the five system requirements, checked");
    for report in experiments::independence() {
        println!(
            "requirement {} ({}) — {}\n    {}",
            report.number,
            report.requirement,
            if report.satisfied {
                "SATISFIED"
            } else {
                "NOT SATISFIED"
            },
            report.evidence
        );
    }

    heading("Ablations — what each design choice buys");
    println!("A1 — WBXML binary encoding (GPRS, travel workload):");
    for row in ablations::wbxml_ablation(sessions) {
        println!("  {row}");
    }
    println!("\nA2 — WTLS transport security (payment workload):");
    for row in ablations::security_ablation(sessions) {
        println!("  {row}");
    }
    println!("\nA3 — embedded store vs flat file (§7):");
    for row in ablations::storage_ablation() {
        println!("  {row}");
    }
    println!("\nA4 — gateway deck adaptation vs the Palm i705's 8 KB budget:");
    for row in ablations::pagination_ablation() {
        println!("  {row}");
    }
    println!("\nA5 — battery life per OS (§4.1), same 2 kJ battery and usage:");
    for row in ablations::battery_ablation() {
        println!("  {row}");
    }

    println!("\ndone.");
}
