//! The correctness digest of a fleet run.
//!
//! FNV-1a over every integer field of the merged [`WorkloadCounters`]
//! and [`ContentionStats`], in a fixed order. The latency histogram is
//! left out on purpose: its bucketing may be refined without changing a
//! single simulated transaction, and the digest must only move when the
//! simulation does.

use mcommerce_core::{ContentionStats, WorkloadCounters};

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u128(s.len() as u128);
        self.bytes(s.as_bytes());
    }
}

/// Digest of a run's merged counters and (for shared topologies) its
/// contention statistics.
pub fn digest(counters: &WorkloadCounters, contention: Option<&ContentionStats>) -> u64 {
    let mut h = Fnv::new();
    for v in [
        counters.attempted,
        counters.succeeded,
        counters.retransmissions,
        counters.retries,
    ] {
        h.u128(u128::from(v));
    }
    for v in [counters.latency_ns, counters.air_bytes, counters.energy_nj] {
        h.u128(v);
    }
    for (component, ns) in &counters.component_ns {
        h.str(component);
        h.u128(*ns);
    }
    for (reason, count) in &counters.failures {
        h.str(reason);
        h.u128(u128::from(*count));
    }
    if let Some(s) = contention {
        for v in [
            s.transactions,
            s.contended_transactions,
            s.cell_wait_ns,
            s.gateway_wait_ns,
            s.host_wait_ns,
            s.cell_busy_ns,
            s.gateway_cache_hits,
            s.gateway_cache_misses,
            s.islands,
            s.horizon_ns,
        ] {
            h.u128(u128::from(v));
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcommerce_core::TransactionReport;

    #[test]
    fn one_transaction_moves_the_digest() {
        let mut counters = WorkloadCounters::default();
        let before = digest(&counters, None);
        counters.record(&TransactionReport::failed("x"));
        assert_ne!(before, digest(&counters, None));
    }

    #[test]
    fn the_histogram_is_not_digested() {
        let mut a = WorkloadCounters::default();
        let b = a.clone();
        a.latency_hist.record(1_000);
        assert_eq!(digest(&a, None), digest(&b, None));
    }
}
