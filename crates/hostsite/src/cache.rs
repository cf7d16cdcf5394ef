//! The host web-server page cache.
//!
//! The paper's host computers "usually store and manage most of the
//! content" — and a production web server in that role fronts its
//! application programs with a page cache. This one is deterministic and
//! sim-time native: entries are keyed by the canonical request (method,
//! path, query, accept format, cookies), expire after a TTL
//! measured in simulated nanoseconds, and are bounded by a byte budget
//! with least-recently-used eviction driven by a logical tick counter —
//! no wall clock anywhere, so fleet runs stay bit-identical at any
//! thread count.
//!
//! The cache itself is a [`TtlLru`]; this adapter owns only what is
//! the page cache's: the canonical key, its admission rules and its
//! byte cost. A lookup hashes the borrowed request fields and
//! equality-checks stored keys by re-rendering into a
//! [`PrefixMatcher`] — no allocation — and the canonical string is
//! built only when a page is stored. A hit clones a response whose body
//! is a refcounted [`Body`] — a pointer bump, not a page copy.
//!
//! Only successful `GET` responses that set no cookies are stored;
//! `POST`s (which mutate the database and session state) always reach
//! the application program. Requests carrying basic-auth credentials
//! bypass the cache entirely — lookup *and* store — so every authed
//! request is re-validated against its auth realm.
//!
//! [`Body`]: crate::http::Body

use std::fmt;
use std::hash::Hasher as _;

use crate::http::{HttpRequest, HttpResponse, Method};
use crate::intern::{probe_hasher, HashWriter, PrefixMatcher};
use crate::ttl_lru::TtlLru;

/// A TTL + LRU page cache over canonical-request keys.
#[derive(Debug)]
pub struct PageCache {
    lru: TtlLru<String, HttpResponse>,
}

/// Counts the bytes a rendering would take without building it.
struct LenWriter(usize);

impl fmt::Write for LenWriter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl PageCache {
    /// Creates a cache holding entries for `ttl_ns` simulated nanoseconds
    /// within a `byte_budget` of key + body bytes.
    pub fn new(ttl_ns: u64, byte_budget: usize) -> Self {
        PageCache {
            lru: TtlLru::new(Some(ttl_ns), byte_budget),
        }
    }

    /// True when `req` is a cache candidate: a credential-free `GET`.
    /// `POST`s mutate database and session state, and authed requests
    /// must reach dispatch's auth-realm password check every time — a
    /// cached protected page would be served to a later request
    /// presenting the wrong password.
    pub fn cacheable_request(req: &HttpRequest) -> bool {
        req.method == Method::Get && req.auth.is_none()
    }

    /// True when `resp` may be stored: a success that mints no cookies
    /// (those are per-client) and is not marked `no_store` (one-shot
    /// search results would churn the LRU without ever revisiting).
    pub fn cacheable_response(resp: &HttpResponse) -> bool {
        resp.status.is_success() && resp.set_cookies.is_empty() && !resp.no_store
    }

    /// Renders the canonical key for `req` into any writer. Query
    /// parameters and cookies live in `BTreeMap`s, so the rendering is
    /// order-stable. The same routine builds keys, hashes requests,
    /// measures them and equality-checks probes, so they can never
    /// drift apart.
    fn render_key(req: &HttpRequest, out: &mut impl fmt::Write) -> fmt::Result {
        write!(out, "{:?} {}", req.method, req.path)?;
        for (name, value) in &req.params {
            write!(out, "&{name}={value}")?;
        }
        write!(out, "|{:?}", req.accept)?;
        for (name, value) in &req.cookies {
            write!(out, ";{name}={value}")?;
        }
        Ok(())
    }

    /// The canonical cache key for a request, as an owned string.
    pub fn key(req: &HttpRequest) -> String {
        let mut key = String::new();
        Self::render_key(req, &mut key).expect("writing to a String cannot fail");
        key
    }

    fn hash(req: &HttpRequest) -> u64 {
        let mut h = probe_hasher();
        Self::render_key(req, &mut HashWriter(&mut h)).expect("hashing cannot fail");
        h.finish()
    }

    fn matches(req: &HttpRequest, key: &str) -> bool {
        let mut m = PrefixMatcher::new(key);
        Self::render_key(req, &mut m).is_ok() && m.matched()
    }

    /// Returns the cached response for `req` when a fresh one exists at
    /// `now_ns`, counting a hit or a miss.
    pub fn get(&mut self, req: &HttpRequest, now_ns: u64) -> Option<HttpResponse> {
        self.lru
            .get(Self::hash(req), |k| Self::matches(req, k), now_ns)
            .cloned()
    }

    /// Stores `resp` for `req`, evicting least-recently-used pages until
    /// the byte budget holds; returns how many were evicted. A page
    /// whose key + body exceed the whole budget is not stored.
    pub fn insert(&mut self, req: &HttpRequest, resp: &HttpResponse, now_ns: u64) -> usize {
        let mut key_len = LenWriter(0);
        Self::render_key(req, &mut key_len).expect("counting cannot fail");
        self.lru.insert(
            Self::hash(req),
            |k| Self::matches(req, k),
            || Self::key(req),
            resp.clone(),
            key_len.0 + resp.body.len(),
            now_ns,
        )
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Body + key bytes currently held.
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
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resp(body: &str) -> HttpResponse {
        HttpResponse::ok(body.to_owned())
    }

    #[test]
    fn keys_are_canonical_over_request_fields() {
        let a = PageCache::key(&HttpRequest::get("/shop?x=1&y=2"));
        let b = PageCache::key(&HttpRequest::get("/shop?y=2&x=1"));
        assert_eq!(a, b, "query order does not change the key");
        let c = PageCache::key(&HttpRequest::get("/shop?x=1&y=3"));
        assert_ne!(a, c);
        let d = PageCache::key(&HttpRequest::get("/shop?x=1&y=2").with_cookie("sid", "s1"));
        assert_ne!(a, d, "cookies partition the key space");
    }

    #[test]
    fn requests_hit_only_their_own_key() {
        let mut cache = PageCache::new(u64::MAX, 10_000);
        let req = HttpRequest::get("/shop?x=1&y=2").with_cookie("sid", "s1");
        cache.insert(&req, &resp("<html>a</html>"), 0);
        assert!(cache
            .get(
                &HttpRequest::get("/shop?y=2&x=1").with_cookie("sid", "s1"),
                1
            )
            .is_some());
        assert!(cache.get(&HttpRequest::get("/shop?x=1&y=2"), 1).is_none());
        assert!(cache
            .get(
                &HttpRequest::get("/shop?x=1&y=3").with_cookie("sid", "s1"),
                1
            )
            .is_none());
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn cost_is_the_rendered_key_plus_the_body() {
        let mut cache = PageCache::new(u64::MAX, 10_000);
        let req = HttpRequest::get("/shop?x=1").with_cookie("sid", "s1");
        cache.insert(&req, &resp("<html>page</html>"), 0);
        assert_eq!(
            cache.bytes(),
            PageCache::key(&req).len() + "<html>page</html>".len()
        );
        let budget = PageCache::key(&req).len() + 3;
        let mut tight = PageCache::new(u64::MAX, budget);
        assert_eq!(tight.insert(&req, &resp("<p>"), 0), 0);
        assert_eq!(tight.len(), 1, "key + body exactly at the budget is stored");
        tight.insert(&req, &resp("<p>x"), 1);
        assert_eq!(
            tight.get(&req, 2).map(|r| r.body.len()),
            Some(3),
            "oversized page not stored"
        );
    }

    #[test]
    fn hits_share_the_body_allocation() {
        let mut cache = PageCache::new(u64::MAX, 10_000);
        let req = HttpRequest::get("/k");
        cache.insert(&req, &resp("<html><body>big page</body></html>"), 0);
        let a = cache.get(&req, 1).expect("hit");
        let b = cache.get(&req, 2).expect("hit");
        // Refcounted bodies: both hits read the same buffer.
        assert_eq!(
            a.body.as_bytes_buf().as_ref().as_ptr(),
            b.body.as_bytes_buf().as_ref().as_ptr()
        );
    }
}
