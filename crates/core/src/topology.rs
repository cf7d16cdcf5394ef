//! Topology: how a fleet's stations map onto shared infrastructure.
//!
//! The paper's architecture chains stations through a wireless cell, a
//! WAP gateway and the wired WAN to a host computer. Under light load
//! each user may as well own that whole chain — the isolated per-user
//! world. Under *heavy traffic* (ROADMAP item 1) the chain is shared:
//! many stations contend for one cell's airtime, one gateway transcodes
//! for everyone behind it, one host serves the population.
//!
//! A [`Topology`] describes that sharing declaratively: how many cells,
//! gateways and hosts exist, and how users are placed into cells. The
//! wiring is fixed and canonical — cell *c* uplinks through gateway
//! `c mod gateways`, gateway *g* reaches host `g mod hosts` — so the
//! **island** of a user (the connected component around one host) is a
//! pure function of `(topology, user index, user count)`, never of
//! threads. Islands are the units the fleet driver hands to workers.
//!
//! [`Topology::isolated`] is the degenerate one-user-per-world topology,
//! whose units are blocks of consecutive users instead.

/// How users are assigned to cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// User `u` joins cell `u mod cells` — populations spread evenly.
    #[default]
    RoundRobin,
    /// Users fill cells in contiguous blocks of `ceil(users / cells)` —
    /// user locality, e.g. one office per cell.
    Blocked,
}

/// The infrastructure shape a fleet runs on.
///
/// Built fluently and passed to
/// [`FleetRunner::topology`](crate::fleet::FleetRunner::topology):
///
/// ```
/// use mcommerce_core::{Placement, Topology};
///
/// let topo = Topology::shared()
///     .cells(4)
///     .gateways(2)
///     .hosts(1)
///     .placement(Placement::RoundRobin);
/// assert!(topo.is_shared());
/// assert_eq!(topo.island_of_user(7, 8), 0, "one host ⇒ one island");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    shared: bool,
    cells: u64,
    gateways: u64,
    hosts: u64,
    placement: Placement,
}

impl Default for Topology {
    fn default() -> Self {
        Topology::isolated()
    }
}

impl Topology {
    /// The degenerate topology: every user owns a private world (own
    /// host, own gateway, own cell). This is the default; its users
    /// never queue.
    #[must_use]
    pub fn isolated() -> Self {
        Topology {
            shared: false,
            cells: 1,
            gateways: 1,
            hosts: 1,
            placement: Placement::RoundRobin,
        }
    }

    /// A shared world: one cell, one gateway, one host serving the whole
    /// population, until reshaped by the builder methods.
    #[must_use]
    pub fn shared() -> Self {
        Topology {
            shared: true,
            ..Topology::isolated()
        }
    }

    /// Sets the number of wireless cells (clamped to ≥ 1).
    #[must_use]
    pub fn cells(mut self, cells: u64) -> Self {
        self.cells = cells.max(1);
        self
    }

    /// Sets the number of WAP gateways (clamped to ≥ 1).
    #[must_use]
    pub fn gateways(mut self, gateways: u64) -> Self {
        self.gateways = gateways.max(1);
        self
    }

    /// Sets the number of host computers (clamped to ≥ 1).
    #[must_use]
    pub fn hosts(mut self, hosts: u64) -> Self {
        self.hosts = hosts.max(1);
        self
    }

    /// Sets how users are placed into cells.
    #[must_use]
    pub fn placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Whether this topology shares infrastructure between users.
    pub fn is_shared(&self) -> bool {
        self.shared
    }

    /// Number of cells.
    pub fn cell_count(&self) -> u64 {
        self.cells
    }

    /// Number of gateways.
    pub fn gateway_count(&self) -> u64 {
        self.gateways
    }

    /// Number of hosts — which is also the number of islands the engine
    /// can execute in parallel.
    pub fn host_count(&self) -> u64 {
        self.hosts
    }

    /// The placement policy.
    pub fn placement_policy(&self) -> Placement {
        self.placement
    }

    /// The cell user `user` (of `users` total) is placed in.
    pub fn cell_of_user(&self, user: u64, users: u64) -> u64 {
        match self.placement {
            Placement::RoundRobin => user % self.cells,
            Placement::Blocked => {
                let block = users.div_ceil(self.cells).max(1);
                (user / block).min(self.cells - 1)
            }
        }
    }

    /// The gateway cell `cell` uplinks through.
    pub fn gateway_of_cell(&self, cell: u64) -> u64 {
        cell % self.gateways
    }

    /// The host gateway `gateway` forwards to.
    pub fn host_of_gateway(&self, gateway: u64) -> u64 {
        gateway % self.hosts
    }

    /// The island (connected component, identified by its host index)
    /// user `user` belongs to.
    pub fn island_of_user(&self, user: u64, users: u64) -> u64 {
        self.host_of_gateway(self.gateway_of_cell(self.cell_of_user(user, users)))
    }

    /// Everything island `island` owns, enumerated straight from the
    /// wiring rules instead of filtering every gateway, cell and user:
    /// the gateways `island, island + hosts, …`; the cells `c` with
    /// `c mod gateways` among them; and the users those cells hold under
    /// the placement policy. The cost is proportional to the island's
    /// own members, so walking every island is O(users + cells +
    /// gateways) rather than O(users × islands).
    ///
    /// Every list is ascending by global index, which keeps the engine's
    /// local resource indices canonical.
    pub(crate) fn island_members(&self, island: u64, users: u64) -> IslandMembers {
        let mut members = IslandMembers::default();
        if island >= self.gateways {
            return members;
        }
        members.gateways = (island..self.gateways)
            .step_by(self.hosts as usize)
            .collect();
        // Cells repeat the gateway sequence every `gateways` indices, so
        // each block contributes the island's gateways in order.
        for base in (0..self.cells).step_by(self.gateways as usize) {
            for &g in &members.gateways {
                if base + g >= self.cells {
                    break;
                }
                members.cells.push(base + g);
            }
        }
        if members.cells.is_empty() {
            return members;
        }
        match self.placement {
            Placement::RoundRobin => {
                // User `u` sits in cell `u mod cells`: the same block
                // walk over users, one block per `cells` indices.
                for base in (0..users).step_by(self.cells as usize) {
                    for (local, &c) in members.cells.iter().enumerate() {
                        if base + c >= users {
                            break;
                        }
                        members.users.push((base + c, local));
                    }
                }
            }
            Placement::Blocked => {
                // Cell `c` holds one contiguous block; the last cell also
                // takes whatever `cell_of_user`'s clamp sends it.
                let block = users.div_ceil(self.cells).max(1);
                for (local, &c) in members.cells.iter().enumerate() {
                    let lo = (c * block).min(users);
                    let hi = if c == self.cells - 1 {
                        users
                    } else {
                        ((c + 1) * block).min(users)
                    };
                    members.users.extend((lo..hi).map(|u| (u, local)));
                }
            }
        }
        members
    }
}

/// One island's members, from [`Topology::island_members`]. Each list
/// is ascending by global index; a member's position in its list is its
/// island-local index.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct IslandMembers {
    /// Gateways homed on the island's host (some may serve no cell).
    pub gateways: Vec<u64>,
    /// Cells uplinking through those gateways.
    pub cells: Vec<u64>,
    /// `(user, local cell index)` for every user placed in those cells.
    pub users: Vec<(u64, usize)>,
}

impl IslandMembers {
    /// The island-local index of the gateway serving local cell `cell`:
    /// the island's gateways are `island + k·hosts`, so the local index
    /// is `k`.
    pub fn local_gateway(&self, topology: &Topology, cell: usize) -> usize {
        let gateway = topology.gateway_of_cell(self.cells[cell]);
        ((gateway - self.gateways[0]) / topology.hosts) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_is_the_isolated_legacy_world() {
        assert_eq!(Topology::default(), Topology::isolated());
        assert!(!Topology::isolated().is_shared());
        assert!(Topology::shared().is_shared());
    }

    #[test]
    fn counts_clamp_to_at_least_one() {
        let t = Topology::shared().cells(0).gateways(0).hosts(0);
        assert_eq!(t.cell_count(), 1);
        assert_eq!(t.gateway_count(), 1);
        assert_eq!(t.host_count(), 1);
    }

    #[test]
    fn round_robin_spreads_and_blocked_chunks() {
        let rr = Topology::shared().cells(3);
        let cells: Vec<u64> = (0..6).map(|u| rr.cell_of_user(u, 6)).collect();
        assert_eq!(cells, vec![0, 1, 2, 0, 1, 2]);

        let blocked = rr.placement(Placement::Blocked);
        let cells: Vec<u64> = (0..6).map(|u| blocked.cell_of_user(u, 6)).collect();
        assert_eq!(cells, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn islands_follow_the_modulo_wiring() {
        // 4 cells → 2 gateways → 2 hosts: cells {0,2} land on host 0,
        // cells {1,3} on host 1.
        let t = Topology::shared().cells(4).gateways(2).hosts(2);
        assert_eq!(t.island_of_user(0, 8), 0); // cell 0 → gw 0 → host 0
        assert_eq!(t.island_of_user(1, 8), 1); // cell 1 → gw 1 → host 1
        assert_eq!(t.island_of_user(2, 8), 0); // cell 2 → gw 0 → host 0
        assert_eq!(t.island_of_user(3, 8), 1);
    }

    #[test]
    fn blocked_placement_never_overflows_the_last_cell() {
        let t = Topology::shared().cells(3).placement(Placement::Blocked);
        for u in 0..10 {
            assert!(t.cell_of_user(u, 10) < 3);
        }
    }

    /// Checks [`Topology::island_members`] against the filter
    /// definition of membership: every list equals the filter over the
    /// whole index range, is strictly ascending, and the islands
    /// together partition each range.
    fn check_members(t: Topology, users: u64) {
        let (mut all_gateways, mut all_cells, mut all_users) = (Vec::new(), Vec::new(), Vec::new());
        for island in 0..t.host_count() {
            let m = t.island_members(island, users);
            let gateways: Vec<u64> = (0..t.gateway_count())
                .filter(|&g| t.host_of_gateway(g) == island)
                .collect();
            let cells: Vec<u64> = (0..t.cell_count())
                .filter(|&c| t.host_of_gateway(t.gateway_of_cell(c)) == island)
                .collect();
            let members: Vec<u64> = (0..users)
                .filter(|&u| t.island_of_user(u, users) == island)
                .collect();
            let user_ids: Vec<u64> = m.users.iter().map(|&(u, _)| u).collect();
            assert_eq!(m.gateways, gateways, "{t:?} island {island}: gateways");
            assert_eq!(m.cells, cells, "{t:?} island {island}: cells");
            assert_eq!(user_ids, members, "{t:?} island {island}: users");
            for list in [&m.gateways, &m.cells, &user_ids] {
                assert!(list.windows(2).all(|w| w[0] < w[1]), "{t:?}: not ascending");
            }
            for &(user, cell) in &m.users {
                let global_cell = t.cell_of_user(user, users);
                assert_eq!(
                    m.cells[cell], global_cell,
                    "{t:?}: user {user}'s local cell"
                );
                assert_eq!(
                    m.gateways[m.local_gateway(&t, cell)],
                    t.gateway_of_cell(global_cell),
                    "{t:?}: user {user}'s local gateway"
                );
            }
            all_gateways.extend(m.gateways);
            all_cells.extend(m.cells);
            all_users.extend(user_ids);
        }
        all_gateways.sort_unstable();
        all_cells.sort_unstable();
        all_users.sort_unstable();
        assert_eq!(all_gateways, (0..t.gateway_count()).collect::<Vec<_>>());
        assert_eq!(all_cells, (0..t.cell_count()).collect::<Vec<_>>());
        assert_eq!(all_users, (0..users).collect::<Vec<_>>());
    }

    #[test]
    fn island_members_cover_the_edge_shapes() {
        for placement in [Placement::RoundRobin, Placement::Blocked] {
            for (users, cells, gateways, hosts) in [
                (0, 3, 2, 2),     // no users at all
                (3, 8, 4, 2),     // users < cells: trailing cells stay empty
                (20, 3, 7, 2),    // gateways > cells: some gateways serve no cell
                (20, 6, 3, 5),    // hosts > gateways: islands 3 and 4 are empty
                (10, 10, 10, 10), // one user per island
                (7, 1, 1, 1),     // one island holds everyone
                (11, 4, 6, 9),    // everything at once
            ] {
                let t = Topology::shared()
                    .cells(cells)
                    .gateways(gateways)
                    .hosts(hosts)
                    .placement(placement);
                check_members(t, users);
            }
        }
        // An island whose gateways serve no cell still lists them, so
        // their telemetry series get registered.
        let t = Topology::shared().cells(2).gateways(4).hosts(1);
        assert_eq!(t.island_members(0, 5).gateways, vec![0, 1, 2, 3]);
        // An island with no gateway at all is empty.
        assert_eq!(
            Topology::shared().gateways(2).hosts(3).island_members(2, 5),
            IslandMembers::default()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn island_members_equal_the_filter_definition(
            users in 0u64..300,
            cells in 1u64..40,
            gateways in 1u64..40,
            hosts in 1u64..40,
            blocked in proptest::prelude::any::<bool>(),
        ) {
            let placement = if blocked { Placement::Blocked } else { Placement::RoundRobin };
            check_members(
                Topology::shared()
                    .cells(cells)
                    .gateways(gateways)
                    .hosts(hosts)
                    .placement(placement),
                users,
            );
        }
    }
}
