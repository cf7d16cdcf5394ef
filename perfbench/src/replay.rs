//! The traced per-layer replay.
//!
//! Nothing inside the simulator is instrumented. Instead the replay
//! drives each user of a (scaled) workload through the public pipeline —
//! [`Scenario::system_for_user_in`], then [`McSystem::execute`] for each
//! step — and times every call from here. A *shadow pipeline* receives
//! the same requests and runs each layer's public entry point on its own
//! (`HostComputer::process`, the gateway's markup transforms,
//! `Microbrowser::render_prepared`), so each layer gets its own span. A
//! transaction's self time is its `execute` span minus the shadow spans
//! of the layers it actually ran: a layer whose shard memo answered (the
//! memo's hit count moved) cost only a lookup inside `execute`.
//!
//! On shared topologies the users of one island run in the island
//! engine's order (earliest simulated clock first, user index breaking
//! ties) against the island's one host, swapped into each user's system
//! around the call exactly as the engine does; the shadow host is a
//! second copy of that island host, so both see the same shared traffic.
//! The engine's contention charging is not replayed.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use hostsite::db::Database;
use hostsite::{ContentFormat, HostComputer, HttpRequest, HttpResponse};
use markup::transcode::{html_to_chtml, html_to_wml, WmlOptions};
use markup::{chtml, html, wbxml, Element};
use mcommerce_core::apps::{for_category, Step};
use mcommerce_core::{
    CommerceSystem, FleetMerger, McSystem, MiddlewareKind, Scenario, ShardScratch, Topology,
    TransactionReport, WorkloadCounters,
};
use middleware::MobileRequest;
use simnet::rng::sub_seed;
use simnet::SimDuration;
use station::browser::ContentKind;
use station::Microbrowser;

use crate::alloc::{self, AllocCount};
use crate::workloads::{session_steps, RequestKind};

/// Memo lookups and hits seen by one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoCounts {
    /// Gateway translations that consulted the shard transcode memo.
    pub transcode_lookups: u64,
    /// Of those, answered by the memo.
    pub transcode_hits: u64,
    /// Station renders that consulted the shard render memo.
    pub render_lookups: u64,
    /// Of those, answered by the memo.
    pub render_hits: u64,
}

/// Everything one replay pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host nanoseconds per user provisioning.
    pub provision_ns: Vec<u64>,
    /// Allocations of all provisioning spans.
    pub provision_allocs: AllocCount,
    /// Host nanoseconds per `execute` call.
    pub txn_ns: Vec<u64>,
    /// `execute` minus the shadow spans of the layers it ran.
    pub txn_self_ns: Vec<i64>,
    /// Allocations of all `execute` spans.
    pub txn_allocs: AllocCount,
    /// Shadow host nanoseconds per request, by browse / search / buy.
    pub host_ns: [Vec<u64>; 3],
    /// Requests the shadow host answered for the workload's traffic.
    pub host_requests: u64,
    /// Allocations of all shadow host spans.
    pub host_allocs: AllocCount,
    /// Shadow gateway translation nanoseconds per response.
    pub transcode_ns: Vec<u64>,
    /// Allocations of all shadow translations.
    pub transcode_allocs: AllocCount,
    /// Shadow station render nanoseconds per page.
    pub render_ns: Vec<u64>,
    /// Allocations of all shadow renders.
    pub render_allocs: AllocCount,
    /// Memo behaviour inside `execute`.
    pub memo: MemoCounts,
    /// Payload sizes that crossed the air hop, for the batched netpath
    /// timing.
    pub air_sizes: Vec<usize>,
    /// Payload sizes that crossed the wired hop.
    pub wired_sizes: Vec<usize>,
    /// Nanoseconds to merge the shard counters through [`FleetMerger`].
    pub merge_ns: u64,
    /// The merged counters of every replayed transaction.
    pub counters: WorkloadCounters,
}

impl Pass {
    /// The pass's deterministic work counts: identical on every pass of
    /// the same seed, or the replay is not measuring what it claims.
    pub fn signature(&self) -> Vec<u64> {
        let mut sig = vec![
            self.provision_ns.len() as u64,
            self.txn_ns.len() as u64,
            self.host_requests,
            self.memo.transcode_lookups,
            self.memo.transcode_hits,
            self.memo.render_lookups,
            self.memo.render_hits,
        ];
        for a in [
            self.provision_allocs,
            self.txn_allocs,
            self.host_allocs,
            self.transcode_allocs,
            self.render_allocs,
        ] {
            sig.push(a.allocs);
            sig.push(a.bytes);
        }
        sig
    }
}

/// Runs `f`, returning its value, host nanoseconds and allocations.
fn span<T>(f: impl FnOnce() -> T) -> (T, u64, AllocCount) {
    let a0 = alloc::snapshot();
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    (out, ns, alloc::snapshot() - a0)
}

/// The layers of one world, run on their own.
struct Shadow {
    host: HostComputer,
    browser: Microbrowser,
    middleware: MiddlewareKind,
    wml: WmlOptions,
    cache_enabled: bool,
}

/// A gateway's adapted response: the air payload plus what the station
/// renders it from.
struct Adapted {
    content: Bytes,
    kind: ContentKind,
    deck: Option<Arc<Element>>,
    /// Whether the real gateway consults its shard memo for this body.
    memo_lookup: bool,
}

impl Shadow {
    fn new(scenario: &Scenario, host: HostComputer) -> Self {
        Shadow {
            host,
            browser: Microbrowser::new(scenario.device.clone()),
            middleware: scenario.middleware,
            wml: WmlOptions::default(),
            cache_enabled: scenario.cache.enabled,
        }
    }

    fn accept(&self) -> ContentFormat {
        match self.middleware {
            MiddlewareKind::IMode => ContentFormat::Chtml,
            MiddlewareKind::Wap | MiddlewareKind::WapTextual => ContentFormat::Html,
        }
    }

    /// The gateway's body translation, through the markup crate's public
    /// transforms: HTML → WML → WBXML for WAP, cHTML validation and
    /// filtering for i-mode.
    fn transcode(&self, resp: &HttpResponse) -> Adapted {
        if self.middleware == MiddlewareKind::IMode {
            if resp.format == ContentFormat::Chtml {
                return Adapted {
                    content: resp.body.as_bytes_buf(),
                    kind: ContentKind::Chtml,
                    deck: resp.page.clone(),
                    memo_lookup: false,
                };
            }
            let (content, deck) = match resp.page.as_ref() {
                Some(page) if chtml::validate(page).is_ok() => {
                    (resp.body.as_bytes_buf(), Some(Arc::clone(page)))
                }
                Some(page) => (Bytes::from(html_to_chtml(page).to_markup()), None),
                None => match html::parse_html(resp.body.as_str()) {
                    Ok(doc) if chtml::validate(&doc).is_ok() => {
                        (Bytes::from(doc.to_markup()), Some(Arc::new(doc)))
                    }
                    Ok(doc) => (Bytes::from(html_to_chtml(&doc).to_markup()), None),
                    Err(_) => (Bytes::from(error_page().to_markup()), None),
                },
            };
            return Adapted {
                content,
                kind: ContentKind::Chtml,
                deck,
                memo_lookup: true,
            };
        }
        let deck = match resp.page.as_deref() {
            Some(doc) => html_to_wml(doc, &self.wml),
            None => match html::parse_html(resp.body.as_str()) {
                Ok(doc) => html_to_wml(&doc, &self.wml),
                Err(_) => html_to_wml(&error_page(), &self.wml),
            },
        };
        Adapted {
            content: Bytes::from(wbxml::encode(&deck)),
            kind: ContentKind::WmlBinary,
            deck: Some(Arc::new(deck)),
            memo_lookup: true,
        }
    }
}

fn error_page() -> Element {
    html::page("Error", vec![html::p("content unavailable").into()])
}

/// The HTTP request a gateway forwards for `req`, built from its public
/// fields plus the station's cookie jar.
fn http_request(
    req: &MobileRequest,
    jar: &[(String, String)],
    accept: ContentFormat,
) -> HttpRequest {
    let mut http = match &req.form {
        None => HttpRequest::get(&req.url),
        Some(form) => HttpRequest::post(&req.url, form.iter().cloned()),
    };
    http = http.with_accept(accept);
    for (k, v) in req.cookies.iter().chain(jar) {
        http = http.with_cookie(k, v);
    }
    if let Some((user, password)) = &req.auth {
        http = http.with_auth(user, password);
    }
    http
}

/// Marks `report` failed when the step's expected text is missing from
/// the rendered page, as the fleet engines do.
fn check_expectation(report: &mut TransactionReport, step: &Step) {
    let Some(expect) = step.expect.as_deref().filter(|_| report.success) else {
        return;
    };
    let normalise = |s: &str| s.split_whitespace().collect::<Vec<_>>().join(" ");
    if !normalise(report.page_text().unwrap_or_default()).contains(&normalise(expect)) {
        report.success = false;
        report.failure = Some(format!("expected {expect:?} on page"));
    }
}

/// Replays one step through `system` and the shadow pipeline.
fn replay_step(
    system: &mut McSystem,
    scratch: &ShardScratch,
    shadow: &mut Shadow,
    step: &Step,
    pass: &mut Pass,
    counters: &mut WorkloadCounters,
) {
    let jar: Vec<(String, String)> = system
        .station
        .browser
        .cookies()
        .iter()
        .map(|(k, v)| (k.clone(), v.clone()))
        .collect();
    let now_ns = system.sim_clock_ns();
    let (transcode_hits, render_hits) = (scratch.transcode_hits(), scratch.render_hits());
    let (mut report, txn_ns, allocs) = span(|| system.execute(&step.req));
    pass.txn_ns.push(txn_ns);
    pass.txn_allocs += allocs;
    let transcode_hit = scratch.transcode_hits() > transcode_hits;
    let render_hit = scratch.render_hits() > render_hits;
    check_expectation(&mut report, step);
    counters.record(&report);

    // A gateway-cache hit or an early failure never reached the host;
    // the shadow host must not see that request either, or its state
    // would drift from the real one.
    let mut child_ns = 0;
    if report.breakdown.host_secs > 0.0 {
        let req = http_request(&step.req, &jar, shadow.accept());
        pass.wired_sizes.push(req.wire_size());
        if shadow.cache_enabled {
            shadow.host.web.set_sim_now_ns(now_ns);
        }
        let ((resp, _), host_ns, allocs) = span(|| shadow.host.process(req));
        pass.wired_sizes.push(resp.wire_size());
        pass.host_requests += 1;
        pass.host_allocs += allocs;
        child_ns += host_ns;
        match RequestKind::of(&step.req.url) {
            RequestKind::Browse => pass.host_ns[0].push(host_ns),
            RequestKind::Search => pass.host_ns[1].push(host_ns),
            RequestKind::Buy => pass.host_ns[2].push(host_ns),
            RequestKind::Other => {}
        }

        let (adapted, gw_ns, allocs) = span(|| shadow.transcode(&resp));
        pass.transcode_ns.push(gw_ns);
        pass.transcode_allocs += allocs;
        if adapted.memo_lookup {
            pass.memo.transcode_lookups += 1;
            pass.memo.transcode_hits += u64::from(transcode_hit);
        }
        if !transcode_hit {
            child_ns += gw_ns;
        }

        let (page, render_ns, allocs) = span(|| {
            shadow
                .browser
                .render_prepared(&adapted.content, adapted.kind, adapted.deck.as_deref())
        });
        black_box(page.is_ok());
        pass.render_ns.push(render_ns);
        pass.render_allocs += allocs;
        pass.memo.render_lookups += 1;
        pass.memo.render_hits += u64::from(render_hit);
        if !render_hit {
            child_ns += render_ns;
        }
        pass.air_sizes.push(step.req.url.len());
        pass.air_sizes.push(adapted.content.len());
    }
    pass.txn_self_ns.push(txn_ns as i64 - child_ns as i64);
}

/// Workloads on regular sessions never search, which would leave
/// `host.us_p50.search` without a sample. After such a world's traffic
/// the shadow host answers one probe search, so the search path is timed
/// on every workload. Probes count as no request and no allocation.
fn probe_search(scenario: &Scenario, shadow: &mut Shadow, pass: &mut Pass) {
    if scenario.search_heavy {
        return;
    }
    let req = HttpRequest::get("/shop/search?q=travel+charger").with_accept(shadow.accept());
    let ((resp, _), ns, _) = span(|| shadow.host.process(req));
    black_box(resp.status);
    pass.host_ns[1].push(ns);
}

/// The island engine's shared host for `island`, configured as the
/// engine configures it.
fn island_host(scenario: &Scenario, island: u64) -> HostComputer {
    let mut host = HostComputer::new(
        Database::new(),
        sub_seed(scenario.seed, "fleet.host", island),
    );
    for_category(scenario.app).install(&mut host);
    let cache = scenario.cache;
    if cache.enabled && cache.host_ttl > SimDuration::ZERO {
        host.web
            .configure_page_cache(cache.host_ttl.as_nanos(), cache.byte_budget);
    } else {
        host.web.disable_page_cache();
    }
    host.web.db_mut().set_query_cache(cache.enabled);
    host.web.db_mut().set_durability(scenario.durability);
    host
}

/// One queued unit of a user's work on a shared island.
enum Action {
    Think(f64),
    Txn(Step),
}

/// One replay pass over every user of `scenario` on `topology`, on the
/// calling thread. `shards` is the thread count whose counter merge the
/// isolated replay reproduces.
pub fn replay(scenario: &Scenario, topology: &Topology, shards: u64) -> Pass {
    let mut pass = Pass::default();
    let app = for_category(scenario.app);
    let mut shard_counters = Vec::new();
    if !topology.is_shared() {
        let chunk = scenario.users.div_ceil(shards).max(1);
        for lo in (0..scenario.users).step_by(chunk as usize) {
            let scratch = ShardScratch::new();
            let mut counters = WorkloadCounters::default();
            for user in lo..(lo + chunk).min(scenario.users) {
                let (mut system, ns, allocs) = span(|| scenario.system_for_user_in(user, &scratch));
                pass.provision_ns.push(ns);
                pass.provision_allocs += allocs;
                let mut shadow = Shadow::new(scenario, scenario.system_for_user(user).host);
                for session in 0..scenario.sessions_per_user {
                    if session > 0 && scenario.think_secs > 0.0 {
                        system.idle(scenario.think_secs);
                    }
                    for step in session_steps(scenario, app.as_ref(), user, session) {
                        replay_step(
                            &mut system,
                            &scratch,
                            &mut shadow,
                            &step,
                            &mut pass,
                            &mut counters,
                        );
                    }
                }
                probe_search(scenario, &mut shadow, &mut pass);
            }
            shard_counters.push(counters);
        }
    } else {
        let mut islands: Vec<Vec<u64>> = vec![Vec::new(); topology.host_count() as usize];
        for user in 0..scenario.users {
            islands[topology.island_of_user(user, scenario.users) as usize].push(user);
        }
        for (island, users) in islands.iter().enumerate() {
            let scratch = ShardScratch::new();
            let mut counters = WorkloadCounters::default();
            let mut host = island_host(scenario, island as u64);
            let mut shadow = Shadow::new(scenario, island_host(scenario, island as u64));
            let mut worlds: Vec<(McSystem, VecDeque<Action>)> = Vec::with_capacity(users.len());
            for &user in users {
                let (system, ns, allocs) = span(|| scenario.system_for_user_in(user, &scratch));
                pass.provision_ns.push(ns);
                pass.provision_allocs += allocs;
                let mut actions = VecDeque::new();
                for session in 0..scenario.sessions_per_user {
                    if session > 0 && scenario.think_secs > 0.0 {
                        actions.push_back(Action::Think(scenario.think_secs));
                    }
                    actions.extend(
                        session_steps(scenario, app.as_ref(), user, session)
                            .into_iter()
                            .map(Action::Txn),
                    );
                }
                worlds.push((system, actions));
            }
            // Users are in index order, so the local index breaks ties
            // exactly as the global user index does in the engine.
            let mut queue: BinaryHeap<Reverse<(u64, usize)>> = worlds
                .iter()
                .enumerate()
                .filter(|(_, (_, actions))| !actions.is_empty())
                .map(|(i, (system, _))| Reverse((system.sim_clock_ns(), i)))
                .collect();
            while let Some(Reverse((_, i))) = queue.pop() {
                let (system, actions) = &mut worlds[i];
                match actions.pop_front().expect("queued users have work") {
                    Action::Think(secs) => {
                        system.idle(secs);
                    }
                    Action::Txn(step) => {
                        std::mem::swap(&mut system.host, &mut host);
                        replay_step(
                            system,
                            &scratch,
                            &mut shadow,
                            &step,
                            &mut pass,
                            &mut counters,
                        );
                        std::mem::swap(&mut system.host, &mut host);
                    }
                }
                if !actions.is_empty() {
                    queue.push(Reverse((system.sim_clock_ns(), i)));
                }
            }
            probe_search(scenario, &mut shadow, &mut pass);
            shard_counters.push(counters);
        }
    }

    let t0 = Instant::now();
    let mut merger = FleetMerger::new();
    for (shard, counters) in shard_counters.into_iter().enumerate() {
        merger.push_counters(shard as u64, counters);
    }
    pass.counters = merger.finish();
    pass.merge_ns = t0.elapsed().as_nanos() as u64;
    pass
}

/// Host nanoseconds per air-hop and per wired-hop transfer, timed in
/// batches over the payload sizes a pass saw: one transfer is far below
/// the clock's useful resolution.
pub fn netpath_ns(scenario: &Scenario, pass: &Pass) -> (f64, f64) {
    const MIN_BATCH_NS: u128 = 20_000_000;
    let air = scenario
        .wireless
        .air_link()
        .expect("benchmark workloads have coverage");
    let mut rng = simnet::rng::rng_for(scenario.seed, "perfbench.netpath");
    let air_ns = batched(&pass.air_sizes, MIN_BATCH_NS, |bytes| {
        black_box(air.transfer(bytes, &mut rng).elapsed);
    });
    let wired = scenario.wired;
    let wired_ns = batched(&pass.wired_sizes, MIN_BATCH_NS, |bytes| {
        black_box(wired.transfer(bytes));
    });
    (air_ns, wired_ns)
}

/// Mean nanoseconds per call of `f` over `sizes`, repeated until at
/// least `min_ns` have passed.
fn batched(sizes: &[usize], min_ns: u128, mut f: impl FnMut(usize)) -> f64 {
    if sizes.is_empty() {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed().as_nanos() < min_ns {
        for &bytes in sizes {
            f(black_box(bytes));
        }
        calls += sizes.len() as u64;
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}
