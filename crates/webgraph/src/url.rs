//! A small URL type and synthesis of realistic tracking URLs.
//!
//! The semi-automatic classifier (paper Sect. 3.2) keys on two URL
//! properties: whether the URL string *carries query arguments* (argument
//! passing is how trackers exchange identifiers) and whether it contains
//! *tracking keywords* such as "usermatch", "rtb" or "cookiesync". We model
//! URLs structurally so the classifier can inspect exactly those properties
//! instead of regex-ing opaque strings.

use crate::domain::Domain;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Keywords that mark a URL as tracking-related (paper's empirical list).
pub const TRACKING_KEYWORDS: &[&str] = &[
    "usermatch", "rtb", "cookiesync", "bidder", "pixel", "adsync", "idsync", "retarget",
    "audience", "beacon",
];

/// URL scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// Plain HTTP (port 80).
    Http,
    /// HTTPS (port 443). ~83 % of observed tracking traffic in the paper.
    Https,
}

impl Scheme {
    /// Default TCP port of the scheme.
    pub fn port(&self) -> u16 {
        match self {
            Scheme::Http => 80,
            Scheme::Https => 443,
        }
    }

    /// Scheme string without "://".
    pub fn as_str(&self) -> &'static str {
        match self {
            Scheme::Http => "http",
            Scheme::Https => "https",
        }
    }
}

/// A parsed URL: scheme, host, path, and query arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Url {
    /// Scheme.
    pub scheme: Scheme,
    /// Host domain.
    pub host: Domain,
    /// Path starting with `/`.
    pub path: String,
    /// Query arguments in order of appearance.
    pub query: Vec<(String, String)>,
}

impl Url {
    /// Builds a URL, normalizing the path to start with `/`.
    pub fn new(scheme: Scheme, host: Domain, path: impl Into<String>) -> Self {
        let mut path = path.into();
        if !path.starts_with('/') {
            path.insert(0, '/');
        }
        Url {
            scheme,
            host,
            path,
            query: Vec::new(),
        }
    }

    /// Appends one query argument.
    pub fn with_arg(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.query.push((key.into(), value.into()));
        self
    }

    /// True if the URL carries any query arguments — the first signal of
    /// the semi-automatic classifier.
    pub fn has_args(&self) -> bool {
        !self.query.is_empty()
    }

    /// True if path or any query key/value contains one of
    /// [`TRACKING_KEYWORDS`] — the second signal of the semi-automatic
    /// classifier.
    pub fn has_tracking_keyword(&self) -> bool {
        let lc_path = self.path.to_ascii_lowercase();
        if TRACKING_KEYWORDS.iter().any(|k| lc_path.contains(k)) {
            return true;
        }
        self.query.iter().any(|(k, v)| {
            let k = k.to_ascii_lowercase();
            let v = v.to_ascii_lowercase();
            TRACKING_KEYWORDS.iter().any(|kw| k.contains(kw) || v.contains(kw))
        })
    }

    /// Parses a URL string produced by `Url::to_string`. Not a general
    /// RFC 3986 parser — just enough for round-tripping simulator URLs and
    /// for tests feeding hand-written inputs.
    pub fn parse(s: &str) -> Option<Url> {
        let (scheme, rest) = if let Some(r) = s.strip_prefix("https://") {
            (Scheme::Https, r)
        } else if let Some(r) = s.strip_prefix("http://") {
            (Scheme::Http, r)
        } else {
            return None;
        };
        let (host_part, path_query) = match rest.find('/') {
            Some(i) => (&rest[..i], &rest[i..]),
            None => (rest, "/"),
        };
        if host_part.is_empty() {
            return None;
        }
        let (path, query_str) = match path_query.find('?') {
            Some(i) => (&path_query[..i], &path_query[i + 1..]),
            None => (path_query, ""),
        };
        let mut query = Vec::new();
        if !query_str.is_empty() {
            for pair in query_str.split('&') {
                match pair.split_once('=') {
                    Some((k, v)) => query.push((k.to_owned(), v.to_owned())),
                    None => query.push((pair.to_owned(), String::new())),
                }
            }
        }
        Some(Url {
            scheme,
            host: Domain::new(host_part),
            path: path.to_owned(),
            query,
        })
    }
}

impl std::fmt::Display for Url {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}://{}{}", self.scheme.as_str(), self.host, self.path)?;
        for (i, (k, v)) in self.query.iter().enumerate() {
            write!(f, "{}{k}={v}", if i == 0 { '?' } else { '&' })?;
        }
        Ok(())
    }
}

/// How a service's request URLs look; drives what the classifier can see.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UrlStyle {
    /// Plain content fetch: no arguments (`/js/widget.js`).
    Plain,
    /// Carries identifier arguments but no telltale keywords
    /// (`/collect?uid=..&ev=..`).
    Args,
    /// Carries arguments *and* tracking keywords
    /// (`/usermatch?rtb_id=..`).
    ArgsAndKeywords,
}

/// Token alphabet shared by [`token`] and [`identity_token`].
const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";

/// Deterministic ID-ish token from an RNG, used as argument values.
pub fn token<R: Rng + ?Sized>(rng: &mut R, len: usize) -> String {
    (0..len)
        .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
        .collect()
}

/// Eight token bytes from an RNG — the cache-buster payload, drawn with
/// exactly the same RNG consumption as `token(rng, 8)` but without
/// allocating.
fn token_bytes<R: Rng + ?Sized>(rng: &mut R) -> [u8; 8] {
    let mut out = [0u8; 8];
    for b in &mut out {
        *b = ALPHABET[rng.gen_range(0..ALPHABET.len())];
    }
    out
}

/// Renders a 64-bit identity as a stable token (the per-user cookie id a
/// tracker would echo in its URLs).
pub fn identity_token(identity: u64) -> String {
    let mut s = String::with_capacity(13);
    write_identity_token(identity, &mut s);
    s
}

/// The 13 ASCII bytes of [`identity_token`], on the stack — the shared
/// core of the string writer and the byte-stream visitor.
fn identity_token_bytes(identity: u64) -> [u8; 13] {
    // Splitmix-style scramble so adjacent identities produce unrelated
    // tokens (and identity 0 still yields a non-trivial one).
    let mut x = identity
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x85EB_CA6B);
    x ^= x >> 31;
    let mut out = [0u8; 13];
    for b in &mut out {
        *b = ALPHABET[(x % 36) as usize];
        x /= 36;
    }
    out
}

/// Appends [`identity_token`]'s 13 characters to `buf` without allocating
/// a fresh `String`.
fn write_identity_token(identity: u64, buf: &mut String) {
    for b in identity_token_bytes(identity) {
        buf.push(b as char);
    }
}

/// Event names trackers tag beacons with.
const EVENTS: &[&str] = &["view", "click", "load", "imp", "scroll"];

/// Content paths used by [`UrlStyle::Plain`] URLs.
const PLAIN_PATHS: &[&str] = &["/js/widget.js", "/static/embed.css", "/img/logo.png", "/v2/chat.js"];

/// Beacon paths used by [`UrlStyle::Args`] URLs.
const ARG_PATHS: &[&str] = &["/collect", "/event", "/t", "/imp", "/log"];

/// A synthesized URL in compact, allocation-free form (DESIGN.md §5f).
///
/// The study hot path renders requests as `EncodedUrl`s and materializes
/// the string only at the log-emission boundary (into a reused scratch
/// buffer). [`EncodedUrl::write_into`] emits bytes identical to
/// `Url::to_string()` of [`EncodedUrl::to_url`] (property-pinned below).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodedUrl {
    /// Scheme picked by the https-share coin.
    pub scheme: Scheme,
    /// Style the URL was synthesized in (decides the template).
    pub style: UrlStyle,
    /// Index into the style's path table ([`UrlStyle::Plain`] /
    /// [`UrlStyle::Args`]) or into [`TRACKING_KEYWORDS`]
    /// ([`UrlStyle::ArgsAndKeywords`]).
    pub path_idx: u8,
    /// Index into the event-name table ([`UrlStyle::Args`] only).
    pub event_idx: u8,
    /// The stable per-(user, service) identity echoed in argument tokens.
    pub identity: u64,
    /// Cache-buster token bytes, present on ~30 % of argument-style URLs.
    pub cb: Option<[u8; 8]>,
}

impl EncodedUrl {
    /// Synthesizes a request URL in the given style, in compact form. RNG
    /// draw order is the contract: https coin, then per-style path/keyword
    /// pick, then (Args) event pick, then cache-buster coin and, on a hit,
    /// eight token draws.
    ///
    /// `identity` is the stable per-(user, service) identifier: the same
    /// user revisiting the same tracker produces *recurring* URL strings,
    /// which is why the paper's unique-URL counts (Table 2) sit far below
    /// its total request counts. Cache busters (`cb`) are added to a
    /// fraction of requests only.
    pub fn synth<R: Rng + ?Sized>(
        rng: &mut R,
        style: UrlStyle,
        https_share: f64,
        identity: u64,
    ) -> EncodedUrl {
        let scheme = if rng.gen::<f64>() < https_share {
            Scheme::Https
        } else {
            Scheme::Http
        };
        let mut enc = EncodedUrl {
            scheme,
            style,
            path_idx: 0,
            event_idx: 0,
            identity,
            cb: None,
        };
        match style {
            UrlStyle::Plain => {
                enc.path_idx = rng.gen_range(0..PLAIN_PATHS.len()) as u8;
            }
            UrlStyle::Args => {
                enc.path_idx = rng.gen_range(0..ARG_PATHS.len()) as u8;
                enc.event_idx = rng.gen_range(0..EVENTS.len()) as u8;
                if rng.gen::<f64>() < 0.3 {
                    enc.cb = Some(token_bytes(rng));
                }
            }
            UrlStyle::ArgsAndKeywords => {
                enc.path_idx = rng.gen_range(0..TRACKING_KEYWORDS.len()) as u8;
                if rng.gen::<f64>() < 0.3 {
                    enc.cb = Some(token_bytes(rng));
                }
            }
        }
        enc
    }

    /// Appends the URL string for `host` to `buf` — byte-identical to
    /// `self.to_url(host).to_string()` without any intermediate
    /// allocation.
    pub fn write_into(&self, host: &str, buf: &mut String) {
        buf.push_str(self.scheme.as_str());
        buf.push_str("://");
        buf.push_str(host);
        match self.style {
            UrlStyle::Plain => {
                buf.push_str(PLAIN_PATHS[self.path_idx as usize]);
            }
            UrlStyle::Args => {
                buf.push_str(ARG_PATHS[self.path_idx as usize]);
                buf.push_str("?uid=");
                write_identity_token(self.identity, buf);
                buf.push_str("&ev=");
                buf.push_str(EVENTS[self.event_idx as usize]);
            }
            UrlStyle::ArgsAndKeywords => {
                buf.push('/');
                buf.push_str(TRACKING_KEYWORDS[self.path_idx as usize]);
                buf.push_str("?partner=");
                write_identity_token(self.identity.rotate_left(17), buf);
                buf.push_str("&rtb_id=");
                write_identity_token(self.identity, buf);
            }
        }
        if let Some(cb) = self.cb {
            buf.push_str("&cb=");
            for b in cb {
                buf.push(b as char);
            }
        }
    }

    /// Streams the exact byte sequence [`EncodedUrl::write_into`] would
    /// append — as a series of slices, in order — without materializing
    /// the string. This is the hook the classify engine's token prefilter
    /// uses to screen a deferred URL *before* deciding whether rendering
    /// it is worthwhile at all (DESIGN.md §5h); the byte-for-byte
    /// agreement with `write_into` is property-pinned below.
    pub fn visit_bytes(&self, host: &str, mut sink: impl FnMut(&[u8])) {
        sink(self.scheme.as_str().as_bytes());
        sink(b"://");
        sink(host.as_bytes());
        match self.style {
            UrlStyle::Plain => {
                sink(PLAIN_PATHS[self.path_idx as usize].as_bytes());
            }
            UrlStyle::Args => {
                sink(ARG_PATHS[self.path_idx as usize].as_bytes());
                sink(b"?uid=");
                sink(&identity_token_bytes(self.identity));
                sink(b"&ev=");
                sink(EVENTS[self.event_idx as usize].as_bytes());
            }
            UrlStyle::ArgsAndKeywords => {
                sink(b"/");
                sink(TRACKING_KEYWORDS[self.path_idx as usize].as_bytes());
                sink(b"?partner=");
                sink(&identity_token_bytes(self.identity.rotate_left(17)));
                sink(b"&rtb_id=");
                sink(&identity_token_bytes(self.identity));
            }
        }
        if let Some(cb) = self.cb {
            sink(b"&cb=");
            sink(&cb);
        }
    }

    /// Materializes the structured [`Url`] (the eager path).
    pub fn to_url(&self, host: &Domain) -> Url {
        let mut url = match self.style {
            UrlStyle::Plain => {
                Url::new(self.scheme, host.clone(), PLAIN_PATHS[self.path_idx as usize])
            }
            UrlStyle::Args => {
                Url::new(self.scheme, host.clone(), ARG_PATHS[self.path_idx as usize])
                    .with_arg("uid", identity_token(self.identity))
                    .with_arg("ev", EVENTS[self.event_idx as usize])
            }
            UrlStyle::ArgsAndKeywords => {
                let kw = TRACKING_KEYWORDS[self.path_idx as usize];
                Url::new(self.scheme, host.clone(), format!("/{kw}"))
                    .with_arg("partner", identity_token(self.identity.rotate_left(17)))
                    .with_arg("rtb_id", identity_token(self.identity))
            }
        };
        if let Some(cb) = self.cb {
            let cb = std::str::from_utf8(&cb).expect("token bytes are ASCII").to_owned();
            url = url.with_arg("cb", cb);
        }
        url
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn display_and_parse_roundtrip() {
        let u = Url::new(Scheme::Https, Domain::new("sync.gtrack.com"), "/usermatch")
            .with_arg("partner", "abc")
            .with_arg("rtb_id", "123");
        let s = u.to_string();
        assert_eq!(s, "https://sync.gtrack.com/usermatch?partner=abc&rtb_id=123");
        assert_eq!(Url::parse(&s).unwrap(), u);
    }

    #[test]
    fn parse_without_path_or_query() {
        let u = Url::parse("http://example.com").unwrap();
        assert_eq!(u.path, "/");
        assert!(!u.has_args());
        assert_eq!(u.scheme, Scheme::Http);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Url::parse("ftp://x.com").is_none());
        assert!(Url::parse("nonsense").is_none());
        assert!(Url::parse("https:///path").is_none());
    }

    #[test]
    fn keyword_detection() {
        let u = Url::new(Scheme::Https, Domain::new("x.com"), "/usermatch");
        assert!(u.has_tracking_keyword());
        let u = Url::new(Scheme::Https, Domain::new("x.com"), "/collect").with_arg("rtb_id", "1");
        assert!(u.has_tracking_keyword());
        let u = Url::new(Scheme::Https, Domain::new("x.com"), "/collect").with_arg("uid", "1");
        assert!(!u.has_tracking_keyword());
    }

    #[test]
    fn synth_styles_have_expected_signals() {
        let mut rng = StdRng::seed_from_u64(5);
        let host = Domain::new("t.example.com");
        for i in 0..100u64 {
            let plain = EncodedUrl::synth(&mut rng, UrlStyle::Plain, 0.83, i).to_url(&host);
            assert!(!plain.has_args());
            let args = EncodedUrl::synth(&mut rng, UrlStyle::Args, 0.83, i).to_url(&host);
            assert!(args.has_args() && !args.has_tracking_keyword());
            let kw = EncodedUrl::synth(&mut rng, UrlStyle::ArgsAndKeywords, 0.83, i).to_url(&host);
            assert!(kw.has_args() && kw.has_tracking_keyword());
        }
    }

    #[test]
    fn identity_tokens_are_stable_and_distinct() {
        assert_eq!(identity_token(42), identity_token(42));
        assert_ne!(identity_token(42), identity_token(43));
        assert_eq!(identity_token(7).len(), 13);
    }

    #[test]
    fn same_identity_produces_recurring_urls() {
        // The same user hitting the same tracker must often produce the
        // exact same URL string (no cache buster ~70 % of the time).
        let mut rng = StdRng::seed_from_u64(8);
        let host = Domain::new("t.example.com");
        let mut seen = std::collections::HashSet::new();
        let n = 200;
        for _ in 0..n {
            let url = EncodedUrl::synth(&mut rng, UrlStyle::Args, 1.0, 99).to_url(&host);
            seen.insert(url.to_string());
        }
        assert!(seen.len() < n / 2, "{} unique of {n}", seen.len());
    }

    #[test]
    fn https_share_is_respected() {
        let mut rng = StdRng::seed_from_u64(6);
        let n = 2000;
        let https = (0..n)
            .filter(|_| {
                EncodedUrl::synth(&mut rng, UrlStyle::Args, 0.83, 5).scheme == Scheme::Https
            })
            .count();
        let share = https as f64 / n as f64;
        assert!((share - 0.83).abs() < 0.05, "share {share}");
    }

    #[test]
    fn port_mapping() {
        assert_eq!(Scheme::Http.port(), 80);
        assert_eq!(Scheme::Https.port(), 443);
    }

    #[test]
    fn parse_bare_key_query() {
        let u = Url::parse("https://x.com/p?flag&k=v").unwrap();
        assert_eq!(u.query.len(), 2);
        assert_eq!(u.query[0], ("flag".to_owned(), String::new()));
    }

    #[test]
    fn deferred_materialization_is_byte_identical_to_eager() {
        // The study hot path renders EncodedUrl + write_into; the eager
        // form materializes a Url and Displays it. Both must give the same
        // bytes for every style, identity and cache-buster draw.
        let host = Domain::new("sync.gtrack.com");
        let styles = [UrlStyle::Plain, UrlStyle::Args, UrlStyle::ArgsAndKeywords];
        let mut buf = String::new();
        for seed in 0..50u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            for style in styles {
                for identity in [0u64, 42, u64::MAX, seed.wrapping_mul(0x9E3779B97F4A7C15)] {
                    let enc = EncodedUrl::synth(&mut rng, style, 0.83, identity);
                    buf.clear();
                    enc.write_into(host.as_str(), &mut buf);
                    assert_eq!(buf, enc.to_url(&host).to_string(), "seed {seed} style {style:?}");
                }
            }
        }
    }

    proptest! {
        // Satellite: parse ∘ to_string is the identity on simulator-shaped
        // URLs — multi-arg query ordering, empty values, and the empty
        // path all survive the roundtrip.
        #[test]
        fn display_parse_roundtrip_holds(
            https in any::<bool>(),
            label in "[a-z][a-z0-9-]{0,12}",
            tld in "[a-z]{2,6}",
            path in "[a-z0-9._/-]{0,20}",
            n_args in 0usize..5,
            arg_seed in any::<u64>(),
        ) {
            let scheme = if https { Scheme::Https } else { Scheme::Http };
            let mut u = Url::new(scheme, Domain::new(format!("{label}.{tld}")), path);
            let mut arng = StdRng::seed_from_u64(arg_seed);
            for i in 0..n_args {
                let key = format!("k{i}{}", token(&mut arng, 3));
                // Cover empty values and multi-char values alike.
                let len = arng.gen_range(0..6);
                u = u.with_arg(key, token(&mut arng, len));
            }
            let s = u.to_string();
            let back = Url::parse(&s).expect("simulator URLs must parse");
            prop_assert_eq!(&back, &u, "roundtrip of {}", s);
            // And printing again is a fixed point.
            prop_assert_eq!(back.to_string(), s);
        }

        // Satellite: the deferred writer agrees with the eager Display for
        // every reachable EncodedUrl, not just RNG-synthesized ones.
        #[test]
        fn write_into_matches_display_for_all_encodings(
            https in any::<bool>(),
            style_idx in 0usize..3,
            path_idx in 0u8..4,
            event_idx in 0u8..5,
            identity in any::<u64>(),
            has_cb in any::<bool>(),
            cb_seed in any::<u64>(),
        ) {
            let style = [UrlStyle::Plain, UrlStyle::Args, UrlStyle::ArgsAndKeywords][style_idx];
            // Plain URLs never carry a cache buster.
            let cb = if has_cb && style != UrlStyle::Plain {
                let mut rng = StdRng::seed_from_u64(cb_seed);
                Some(super::token_bytes(&mut rng))
            } else {
                None
            };
            let enc = EncodedUrl {
                scheme: if https { Scheme::Https } else { Scheme::Http },
                style,
                path_idx,
                event_idx,
                identity,
                cb,
            };
            let host = Domain::new("t.example.com");
            let mut buf = String::new();
            enc.write_into(host.as_str(), &mut buf);
            prop_assert_eq!(&buf, &enc.to_url(&host).to_string());

            // PR 8: the byte-stream visitor concatenates to the exact same
            // bytes as the string writer, for every reachable encoding.
            let mut streamed = Vec::new();
            enc.visit_bytes(host.as_str(), |chunk| streamed.extend_from_slice(chunk));
            prop_assert_eq!(streamed, buf.into_bytes());
        }
    }
}
