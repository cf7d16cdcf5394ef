//! A minimal JSON object writer for the one-line reports the benchmark
//! binaries print.

/// A JSON object under construction, keys in insertion order.
#[derive(Debug, Default)]
pub struct Obj(String);

impl Obj {
    /// An empty object.
    pub fn new() -> Self {
        Obj::default()
    }

    fn key(&mut self, key: &str) {
        self.0.push(if self.0.is_empty() { '{' } else { ',' });
        self.0.push_str(&string(key));
        self.0.push(':');
    }

    /// Adds a float, `null` when not finite.
    pub fn num(mut self, key: &str, v: f64) -> Self {
        self.key(key);
        if v.is_finite() {
            self.0.push_str(&format!("{v:?}"));
        } else {
            self.0.push_str("null");
        }
        self
    }

    /// Adds an unsigned integer.
    pub fn int(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        self.0.push_str(&v.to_string());
        self
    }

    /// Adds a boolean.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key);
        self.0.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a string.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        self.0.push_str(&string(v));
        self
    }

    /// Adds an already-serialised JSON value.
    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.key(key);
        self.0.push_str(json);
        self
    }

    /// The serialised object.
    pub fn finish(self) -> String {
        if self.0.is_empty() {
            "{}".to_owned()
        } else {
            self.0 + "}"
        }
    }
}

/// A JSON string literal.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON array of already-serialised values.
pub fn array(items: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}
