//! The three benchmark workloads, their inputs, and the recorded
//! correctness baselines.
//!
//! Every workload is a [`Scenario`] plus a [`Topology`] built from the
//! seed alone. A workload is described per *island* (the set of users
//! behind one host), so the population can be scaled for the traced replay without changing any per-island ratio.

use mcommerce_core::apps::{for_category, Application, Step};
use mcommerce_core::{
    CachePolicy, Category, DurabilityPolicy, MiddlewareKind, Scenario, Topology, WirelessConfig,
    WorkloadCounters,
};
use wireless::CellularStandard;

/// The seed the recorded digests below belong to.
pub const DEFAULT_SEED: u64 = 1;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Per-user worlds: provisioning plus the transaction pipeline.
    IsolatedStorefront,
    /// Many small shared islands: the island engine's own overheads.
    SharedCells,
    /// Few big shared islands over a hot database: search, WAL, caches.
    SharedSearch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::IsolatedStorefront,
        Workload::SharedCells,
        Workload::SharedSearch,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IsolatedStorefront => "isolated_storefront",
            Workload::SharedCells => "shared_cells",
            Workload::SharedSearch => "shared_search",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Users behind one host. The isolated workload's "island" is one
    /// user's private world.
    fn users_per_island(self) -> u64 {
        match self {
            Workload::IsolatedStorefront => 1,
            Workload::SharedCells => 10,
            Workload::SharedSearch => 100,
        }
    }

    /// Cells behind one host.
    fn cells_per_island(self) -> u64 {
        match self {
            Workload::IsolatedStorefront | Workload::SharedCells => 1,
            Workload::SharedSearch => 16,
        }
    }

    /// Islands in the full population the end-to-end metrics run.
    pub fn full_islands(self) -> u64 {
        match self {
            Workload::IsolatedStorefront => 100_000,
            Workload::SharedCells => 2_000,
            Workload::SharedSearch => 16,
        }
    }

    /// Islands one pass of the traced replay covers.
    pub fn traced_islands(self) -> u64 {
        match self {
            Workload::IsolatedStorefront => 6_000,
            Workload::SharedCells => 300,
            Workload::SharedSearch => 2,
        }
    }

    /// The scenario and topology for `islands` islands under `seed`.
    pub fn build(self, seed: u64, islands: u64) -> (Scenario, Topology) {
        let users = self.users_per_island() * islands;
        let base = Scenario::new(self.name())
            .app(Category::Commerce)
            .users(users)
            .seed(seed);
        match self {
            Workload::IsolatedStorefront => (
                base.middleware(MiddlewareKind::Wap)
                    .sessions_per_user(1)
                    .cache(CachePolicy::disabled())
                    .secure(false),
                Topology::isolated(),
            ),
            Workload::SharedCells => (
                base.middleware(MiddlewareKind::IMode)
                    .wireless(WirelessConfig::Cellular {
                        standard: CellularStandard::Gprs,
                    })
                    .sessions_per_user(2)
                    .think_time(5.0),
                Topology::shared()
                    .cells(islands * self.cells_per_island())
                    .gateways(islands)
                    .hosts(islands),
            ),
            Workload::SharedSearch => (
                base.middleware(MiddlewareKind::Wap)
                    .sessions_per_user(10)
                    .search_heavy(true)
                    .think_time(2.0)
                    .secure(true)
                    .cache(CachePolicy::standard())
                    .durability(DurabilityPolicy::new(8, 250_000)),
                Topology::shared()
                    .cells(islands * self.cells_per_island())
                    .gateways(islands)
                    .hosts(islands),
            ),
        }
    }

    /// Simulated failure reasons that are the correct answer on this
    /// workload rather than a fault: purchases a *shared* host refuses
    /// with a 400, deterministically for a given seed. On `shared_search`
    /// the island's stock sells out and its shared demo account runs dry
    /// (9 920 refusals at seed 1). On `shared_cells` two users of one host
    /// occasionally draw the same 20-bit payment nonce, and the payment
    /// gateway's replay guard refuses the second (one purchase at seeds 7
    /// and 8, none at seed 1). A private per-user host refuses nothing.
    pub fn expected_failure(self, reason: &str) -> bool {
        match self {
            Workload::IsolatedStorefront => false,
            Workload::SharedCells | Workload::SharedSearch => reason == "host returned 400",
        }
    }

    /// Simulated failures in `counters` that are not this workload's
    /// expected refusals.
    pub fn unexpected_failures(self, counters: &WorkloadCounters) -> u64 {
        counters
            .failures
            .iter()
            .filter(|(reason, _)| !self.expected_failure(reason))
            .map(|(_, n)| n)
            .sum()
    }

    /// The digest of the full population under [`DEFAULT_SEED`], as
    /// recorded when the benchmark was defined.
    pub fn recorded_digest(self) -> u64 {
        match self {
            Workload::IsolatedStorefront => 0x587d_36f6_b0d9_3206,
            Workload::SharedCells => 0xa161_d3bd_e324_84d1,
            Workload::SharedSearch => 0x8050_fa12_d300_378b,
        }
    }
}

/// What the workload's generated inputs contain: the request mix the
/// users will issue, derived from the seed the way the engines derive
/// each user's sessions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMix {
    /// `GET /shop` catalogue browses.
    pub browse: u64,
    /// `GET /shop/search?q=…` searches.
    pub search: u64,
    /// `POST /shop/buy` purchases.
    pub buy: u64,
    /// Anything else.
    pub other: u64,
}

impl RequestMix {
    /// Every request the inputs hold: the transactions a run attempts.
    pub fn total(&self) -> u64 {
        self.browse + self.search + self.buy + self.other
    }
}

/// The layer-level kind of one request, keyed by its URL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Catalogue page.
    Browse,
    /// Full-text search.
    Search,
    /// Purchase.
    Buy,
    /// Anything else.
    Other,
}

impl RequestKind {
    /// Classifies a request by its URL.
    pub fn of(url: &str) -> RequestKind {
        if url == "/shop" {
            RequestKind::Browse
        } else if url.starts_with("/shop/search") {
            RequestKind::Search
        } else if url.starts_with("/shop/buy") {
            RequestKind::Buy
        } else {
            RequestKind::Other
        }
    }
}

/// The steps of session `session` of `user`, exactly as the fleet
/// engines generate them.
pub fn session_steps(
    scenario: &Scenario,
    app: &dyn Application,
    user: u64,
    session: u64,
) -> Vec<Step> {
    let session_seed = simnet::rng::sub_seed(scenario.seed, "fleet.session", user);
    if scenario.search_heavy {
        app.search_session(session_seed, session)
    } else {
        app.session(session_seed, session)
    }
}

/// Generates every user's sessions and tallies the request mix.
pub fn request_mix(scenario: &Scenario) -> RequestMix {
    let app = for_category(scenario.app);
    let mut mix = RequestMix::default();
    for user in 0..scenario.users {
        for session in 0..scenario.sessions_per_user {
            for step in session_steps(scenario, app.as_ref(), user, session) {
                match RequestKind::of(&step.req.url) {
                    RequestKind::Browse => mix.browse += 1,
                    RequestKind::Search => mix.search += 1,
                    RequestKind::Buy => mix.buy += 1,
                    RequestKind::Other => mix.other += 1,
                }
            }
        }
    }
    mix
}
