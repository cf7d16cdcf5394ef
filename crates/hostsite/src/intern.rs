//! Borrowed-field probe hashing for the caching tiers.
//!
//! Cache lookups run once per transaction per tier, so they must not
//! allocate. A cache hashes the *borrowed* request fields with
//! [`probe_hasher`] — or streams its canonical rendering through a
//! [`HashWriter`] — and checks candidates with an equality closure
//! (a [`PrefixMatcher`] compares a rendering against a stored string
//! without building one). [`TtlLru`](crate::ttl_lru::TtlLru) takes that
//! hash and closure, so an owned key is built only when an entry is
//! stored.
//!
//! Determinism: hashes never leave the cache that computed them, and
//! nothing observable depends on their values, so probing cannot
//! perturb fleet byte-identity across thread counts.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::Hasher;

/// A fresh hasher with fixed (process-stable) keys for cache probes.
///
/// `DefaultHasher::new()` is specified to produce the same stream for
/// the same input bytes within a process, which is all a probe needs —
/// hashes never cross process or thread boundaries.
pub fn probe_hasher() -> DefaultHasher {
    DefaultHasher::new()
}

/// A [`fmt::Write`] sink that feeds written text into a [`Hasher`].
///
/// Lets a cache hash its canonical *rendering* of a request without
/// materialising the rendered string: the same render function that
/// would build the key streams through this instead.
pub struct HashWriter<'a, H: Hasher>(pub &'a mut H);

impl<H: Hasher> fmt::Write for HashWriter<'_, H> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.write(s.as_bytes());
        Ok(())
    }
}

/// A [`fmt::Write`] sink that *matches* written text against a stored
/// string instead of building one.
///
/// Rendering a request into a `PrefixMatcher` over a candidate key
/// checks "would this request render to exactly that key" with zero
/// allocation: each written chunk must be the next prefix of the
/// remainder, and [`PrefixMatcher::matched`] requires the remainder to
/// be fully consumed.
pub struct PrefixMatcher<'a> {
    rest: &'a str,
}

impl<'a> PrefixMatcher<'a> {
    /// Starts matching against `candidate`.
    pub fn new(candidate: &'a str) -> Self {
        PrefixMatcher { rest: candidate }
    }

    /// True when everything written so far equals the full candidate.
    pub fn matched(&self) -> bool {
        self.rest.is_empty()
    }
}

impl fmt::Write for PrefixMatcher<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        match self.rest.strip_prefix(s) {
            Some(rest) => {
                self.rest = rest;
                Ok(())
            }
            // Divergence: surface as a fmt error so the render function
            // aborts early instead of walking the whole request.
            None => Err(fmt::Error),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn prefix_matcher_requires_exact_rendering() {
        let mut m = PrefixMatcher::new("GET /shop");
        assert!(write!(m, "GET").is_ok());
        assert!(write!(m, " /shop").is_ok());
        assert!(m.matched());

        let mut m = PrefixMatcher::new("GET /shop");
        assert!(write!(m, "GET /shopping").is_err(), "overlong write diverges");

        let mut m = PrefixMatcher::new("GET /shop");
        assert!(write!(m, "GET ").is_ok());
        assert!(!m.matched(), "unconsumed remainder is not a match");
    }

    #[test]
    fn hash_writer_matches_whole_buffer_hashing() {
        let mut h1 = probe_hasher();
        let mut w = HashWriter(&mut h1);
        let path = "/shop?x=1"; // runtime arg => the write arrives in chunks
        let _ = write!(w, "GET {path}");
        let mut h2 = probe_hasher();
        h2.write(b"GET /shop?x=1");
        assert_eq!(h1.finish(), h2.finish(), "chunked writes hash like one");
    }
}
