//! The gateway content cache.
//!
//! WAP gateway deployments cached adapted decks so repeat visits from
//! the same device class were served without re-contacting the origin
//! host or re-running the WML translation. This cache memoizes whole
//! [`Exchange`]s per (url, device class, middleware kind, cookies): a
//! fresh hit re-serves the adapted payload with zero wired bytes, zero
//! host CPU and a fixed small lookup cost, while the over-the-air legs
//! still run (the station is no closer to the gateway than before).
//!
//! Like the host page cache it is deterministic and sim-time native,
//! and like it, it is a thin adapter over [`TtlLru`]: this module owns
//! only the key, the admission rules, the byte cost (`url + content`)
//! and the hit transform. Lookups hash the borrowed request fields and
//! compare them against stored keys, so they never allocate; an owned
//! [`ContentKey`] (four cloned strings) is built only when an exchange
//! is stored. A hit clones the stored [`Exchange`], whose payload is a
//! refcounted `Bytes`, so re-serving a deck never copies it.
//!
//! Admission policy: only form-free GETs carrying **no credentials** are
//! candidates, and only successful exchanges that set no cookies are
//! stored. Requests with basic-auth credentials are never cached — the
//! gateway must not answer for the host's auth realms, so every authed
//! request travels to the origin where the password is actually checked.
//! Cookied GETs *are* cached, partitioned per cookie set (cookies are
//! part of [`ContentKey`]): sessions never alias, but a session's own
//! revisits hit.

use std::hash::{Hash as _, Hasher as _};

use hostsite::intern::probe_hasher;
use hostsite::TtlLru;
use simnet::SimDuration;

use crate::{Exchange, MobileRequest};

/// What a cached exchange is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ContentKey {
    /// Request URL (path + query).
    pub url: String,
    /// Device class the adaptation targeted (e.g. the device name) —
    /// different screens get different decks.
    pub device_class: String,
    /// Middleware kind that produced the adaptation ("WAP", "i-mode").
    pub middleware_kind: String,
    /// Cookies attached to the request; pages rendered for different
    /// cookie sets never alias.
    pub cookies: Vec<(String, String)>,
}

impl ContentKey {
    /// Builds the key for `req` as adapted by `middleware_kind` for
    /// `device_class`.
    pub fn for_request(req: &MobileRequest, device_class: &str, middleware_kind: &str) -> Self {
        ContentKey {
            url: req.url.clone(),
            device_class: device_class.to_owned(),
            middleware_kind: middleware_kind.to_owned(),
            cookies: req.cookies.clone(),
        }
    }

    /// True when this is the key [`ContentKey::for_request`] would build,
    /// compared borrowed.
    fn matches(&self, req: &MobileRequest, device_class: &str, middleware_kind: &str) -> bool {
        self.url == req.url
            && self.device_class == device_class
            && self.middleware_kind == middleware_kind
            && self.cookies == req.cookies
    }
}

/// Hashes the key fields borrowed, fed identically on every call so
/// probes for equal keys always land in one bucket.
fn hash_fields(req: &MobileRequest, device_class: &str, middleware_kind: &str) -> u64 {
    let mut h = probe_hasher();
    req.url.hash(&mut h);
    device_class.hash(&mut h);
    middleware_kind.hash(&mut h);
    req.cookies.hash(&mut h);
    h.finish()
}

/// Simulated CPU cost of a cache lookup at the gateway — far below any
/// translation cost, but not free.
pub const LOOKUP_COST: SimDuration = SimDuration::from_micros(40);

/// A TTL + LRU cache of adapted exchanges at the middleware gateway,
/// keyed by [`ContentKey`].
#[derive(Debug)]
pub struct ContentCache {
    lru: TtlLru<ContentKey, Exchange>,
}

impl ContentCache {
    /// Creates a cache with the given TTL (simulated nanoseconds) and
    /// byte budget over cached url + payload bytes.
    pub fn new(ttl_ns: u64, byte_budget: usize) -> Self {
        ContentCache {
            lru: TtlLru::new(Some(ttl_ns), byte_budget),
        }
    }

    /// True when `req` is even a candidate for caching: form-free GETs
    /// without credentials. Authed requests must always reach the host's
    /// auth realm — serving (or capturing) protected pages at the
    /// gateway would let a later request with missing or wrong
    /// credentials read them.
    pub fn cacheable_request(req: &MobileRequest) -> bool {
        req.form.is_none() && req.auth.is_none()
    }

    /// True when `ex` may be stored: a successful exchange that set no
    /// cookies (cookie-minting responses are per-client) and was not
    /// marked `no-store` by the host (one-shot search results would
    /// churn the hot pages out of the LRU without ever revisiting).
    pub fn cacheable_exchange(ex: &Exchange) -> bool {
        ex.status.is_success() && ex.set_cookies.is_empty() && !ex.no_store
    }

    /// Returns the re-served exchange when a fresh entry exists for
    /// `req` as adapted by `middleware_kind` for `device_class` at
    /// `now_ns`: same payload and air-side byte counts, but zero wired
    /// bytes, zero host CPU, no extra round trips, and only
    /// [`LOOKUP_COST`] of middleware CPU. Counts a hit or a miss.
    pub fn get(
        &mut self,
        req: &MobileRequest,
        device_class: &str,
        middleware_kind: &str,
        now_ns: u64,
    ) -> Option<Exchange> {
        let hash = hash_fields(req, device_class, middleware_kind);
        let mut ex = self
            .lru
            .get(
                hash,
                |k| k.matches(req, device_class, middleware_kind),
                now_ns,
            )?
            .clone();
        ex.wired_bytes = (0, 0);
        ex.host_cpu = SimDuration::ZERO;
        ex.middleware_cpu = LOOKUP_COST;
        ex.extra_round_trips = 0;
        Some(ex)
    }

    /// Stores `ex` for `req` (call [`ContentCache::cacheable_request`]
    /// and [`ContentCache::cacheable_exchange`] first), evicting LRU
    /// entries until the byte budget holds. Returns the number of
    /// evictions.
    pub fn insert(
        &mut self,
        req: &MobileRequest,
        device_class: &str,
        middleware_kind: &str,
        ex: &Exchange,
        now_ns: u64,
    ) -> usize {
        self.lru.insert(
            hash_fields(req, device_class, middleware_kind),
            |k| k.matches(req, device_class, middleware_kind),
            || ContentKey::for_request(req, device_class, middleware_kind),
            ex.clone(),
            req.url.len() + ex.content.len(),
            now_ns,
        )
    }

    /// Drops every entry (e.g. when the gateway is reconfigured).
    pub fn flush(&mut self) {
        self.lru.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Payload + url bytes currently held.
    pub fn bytes(&self) -> usize {
        self.lru.cost()
    }

    /// Fresh lookups answered from the cache since construction.
    pub fn hits(&self) -> u64 {
        self.lru.hits()
    }

    /// Lookups that found nothing fresh since construction.
    pub fn misses(&self) -> u64 {
        self.lru.misses()
    }

    /// Hit rate over all lookups so far (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits() + self.misses();
        if total == 0 {
            return 0.0;
        }
        self.hits() as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AirFormat;
    use bytes::Bytes;
    use hostsite::Status;

    fn exchange(body: &str) -> Exchange {
        Exchange {
            status: Status::Ok,
            content: Bytes::copy_from_slice(body.as_bytes()),
            format: AirFormat::WmlBinary,
            uplink_bytes: 40,
            downlink_bytes: body.len() + 8,
            wired_bytes: (120, body.len() * 3),
            middleware_cpu: SimDuration::from_micros(450),
            host_cpu: SimDuration::from_micros(2_500),
            extra_round_trips: 1,
            no_store: false,
            set_cookies: Vec::new(),
            deck: None,
        }
    }

    #[test]
    fn hits_zero_the_wired_side_and_keep_the_air_side() {
        let mut cache = ContentCache::new(1_000, 10_000);
        let ex = exchange("deck");
        let req = MobileRequest::get("/shop");
        cache.insert(&req, "iPAQ", "WAP", &ex, 0);
        let hit = cache.get(&req, "iPAQ", "WAP", 500).expect("fresh hit");
        assert_eq!(hit.content, ex.content);
        assert_eq!(hit.downlink_bytes, ex.downlink_bytes);
        assert_eq!(hit.uplink_bytes, ex.uplink_bytes);
        assert_eq!(hit.wired_bytes, (0, 0));
        assert_eq!(hit.host_cpu, SimDuration::ZERO);
        assert_eq!(hit.middleware_cpu, LOOKUP_COST);
        assert_eq!(hit.extra_round_trips, 0);
        // Expired afterwards.
        assert!(cache.get(&req, "iPAQ", "WAP", 1_500).is_none());
        assert!(cache.is_empty());
    }

    #[test]
    fn device_class_and_kind_partition_the_key_space() {
        let mut cache = ContentCache::new(u64::MAX / 2, 10_000);
        let req = MobileRequest::get("/shop");
        cache.insert(&req, "iPAQ", "WAP", &exchange("wap deck"), 0);
        assert!(cache.get(&req, "iPAQ", "i-mode", 1).is_none());
        assert!(cache.get(&req, "P503i", "WAP", 1).is_none());
        let cookied = MobileRequest::get("/shop").with_cookie("sid", "s");
        assert!(cache.get(&cookied, "iPAQ", "WAP", 1).is_none());
        assert!(cache.get(&req, "iPAQ", "WAP", 1).is_some());
        for (device, kind) in [("iPAQ", "i-mode"), ("P503i", "WAP")] {
            cache.insert(&req, device, kind, &exchange("deck"), 2);
        }
        cache.insert(&cookied, "iPAQ", "WAP", &exchange("deck"), 2);
        assert_eq!(cache.len(), 4, "four distinct keys");
    }

    #[test]
    fn cost_is_the_url_plus_the_payload() {
        let mut cache = ContentCache::new(u64::MAX / 2, 10_000);
        let req = MobileRequest::get("/shop?x=1").with_cookie("sid", "s");
        cache.insert(&req, "iPAQ", "WAP", &exchange("0123456789"), 0);
        assert_eq!(cache.bytes(), "/shop?x=1".len() + 10);
    }

    #[test]
    fn only_clean_get_exchanges_are_cacheable() {
        assert!(ContentCache::cacheable_request(&MobileRequest::get("/a")));
        assert!(!ContentCache::cacheable_request(&MobileRequest::post(
            "/a",
            vec![]
        )));
        // Credential-carrying requests never enter the cache: the host's
        // auth realm must see every one of them.
        assert!(!ContentCache::cacheable_request(
            &MobileRequest::get("/ward/patient").with_auth("nurse", "secret")
        ));
        let mut ex = exchange("x");
        assert!(ContentCache::cacheable_exchange(&ex));
        ex.set_cookies.push(("sid".into(), "s".into()));
        assert!(!ContentCache::cacheable_exchange(&ex));
        let mut failed = exchange("x");
        failed.status = Status::NotFound;
        assert!(!ContentCache::cacheable_exchange(&failed));
        // `no_store` responses (search results) bypass admission even
        // when everything else about the exchange is clean.
        let mut search = exchange("x");
        search.no_store = true;
        assert!(!ContentCache::cacheable_exchange(&search));
    }

    #[test]
    fn probes_hold_nothing() {
        // Regression test for the unbounded-interner bug: a lookup never
        // keeps a key, so a high-cardinality query stream leaves the
        // cache exactly as large as the set of exchanges admitted.
        let mut cache = ContentCache::new(u64::MAX / 2, 10_000);
        for i in 0..100_000u64 {
            let req = MobileRequest::get(&format!("/search?q=term{i}"));
            assert!(cache.get(&req, "iPAQ", "WAP", 0).is_none());
        }
        assert!(cache.is_empty(), "probes store nothing");
        assert_eq!(cache.misses(), 100_000);
        let req = MobileRequest::get("/shop");
        cache.insert(&req, "iPAQ", "WAP", &exchange("deck"), 0);
        assert!(cache.get(&req, "iPAQ", "WAP", 1).is_some());
        assert_eq!(cache.len(), 1);
    }
}
