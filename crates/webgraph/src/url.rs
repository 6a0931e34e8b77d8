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

/// Appends [`identity_token`]'s 13 characters to `buf` without allocating
/// a fresh `String`.
fn write_identity_token(identity: u64, buf: &mut String) {
    // Splitmix-style scramble so adjacent identities produce unrelated
    // tokens (and identity 0 still yields a non-trivial one).
    let mut x = identity
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x85EB_CA6B);
    x ^= x >> 31;
    for _ in 0..13 {
        buf.push(ALPHABET[(x % 36) as usize] as char);
        x /= 36;
    }
}

/// Event names trackers tag beacons with.
const EVENTS: &[&str] = &["view", "click", "load", "imp", "scroll"];

/// Content paths used by [`UrlStyle::Plain`] URLs.
const PLAIN_PATHS: &[&str] = &["/js/widget.js", "/static/embed.css", "/img/logo.png", "/v2/chat.js"];

/// Beacon paths used by [`UrlStyle::Args`] URLs.
const ARG_PATHS: &[&str] = &["/collect", "/event", "/t", "/imp", "/log"];

/// The fields of an [`EncodedUrl`], unchecked: what a decoder reads or a
/// test writes before [`EncodedUrl::try_from`] validates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UrlParts {
    /// Scheme picked by the https-share coin.
    pub scheme: Scheme,
    /// Style the URL was synthesized in (decides the template).
    pub style: UrlStyle,
    /// Index into the style's path table ([`UrlStyle::Plain`] /
    /// [`UrlStyle::Args`]) or into [`TRACKING_KEYWORDS`]
    /// ([`UrlStyle::ArgsAndKeywords`]).
    pub path_idx: u8,
    /// Index into the event-name table ([`UrlStyle::Args`] only, else 0).
    pub event_idx: u8,
    /// The service half of the identity echoed in argument tokens (0 for
    /// [`UrlStyle::Plain`], which carries no identity).
    pub service: u32,
    /// Cache-buster token bytes, from the token alphabet; never on a
    /// [`UrlStyle::Plain`] URL.
    pub cb: Option<[u8; 8]>,
}

/// A synthesized request URL in canonical compact form (DESIGN.md §5f):
/// the log row stores this, not the string, and renders the string on
/// demand with [`EncodedUrl::write_into`].
///
/// The string is `scheme://host` plus a template filled from the path and
/// event tables, the identity `user << 32 | service` and the cache
/// buster. The request's host and user live in its log row; this type
/// holds the rest. It is *canonical*: a field that never reaches the
/// string is zero ([`UrlStyle::Plain`] has no identity, event or cache
/// buster; [`UrlStyle::ArgsAndKeywords`] has no event), and every index is
/// inside its table. Rendering is injective on canonical forms, so for one
/// host two URLs render equal strings exactly when they are equal and,
/// unless they are plain, so are their users — the equality the Table-2
/// unique-URL counts rest on (property-pinned below).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EncodedUrl {
    scheme: Scheme,
    style: UrlStyle,
    path_idx: u8,
    event_idx: u8,
    service: u32,
    cb: Option<[u8; 8]>,
}

impl TryFrom<UrlParts> for EncodedUrl {
    type Error = String;

    /// Accepts exactly the canonical forms: indices inside their tables,
    /// cache-buster bytes from the token alphabet, and zero in every field
    /// the style does not render.
    fn try_from(p: UrlParts) -> Result<EncodedUrl, String> {
        let (paths, events) = match p.style {
            UrlStyle::Plain => (PLAIN_PATHS.len(), 1),
            UrlStyle::Args => (ARG_PATHS.len(), EVENTS.len()),
            UrlStyle::ArgsAndKeywords => (TRACKING_KEYWORDS.len(), 1),
        };
        // Membership in ALPHABET (a–z, 0–9) without a scan per byte.
        let token = |b: &u8| b.is_ascii_lowercase() || b.is_ascii_digit();
        let canonical = (p.path_idx as usize) < paths
            && (p.event_idx as usize) < events
            && (p.style != UrlStyle::Plain || (p.service == 0 && p.cb.is_none()))
            && p.cb.is_none_or(|cb| cb.iter().all(token));
        if !canonical {
            return Err(non_canonical(&p, paths, events));
        }
        Ok(EncodedUrl {
            scheme: p.scheme,
            style: p.style,
            path_idx: p.path_idx,
            event_idx: p.event_idx,
            service: p.service,
            cb: p.cb,
        })
    }
}

/// Why `p` is not canonical (`paths`/`events`: its style's table sizes).
#[cold]
fn non_canonical(p: &UrlParts, paths: usize, events: usize) -> String {
    if p.path_idx as usize >= paths {
        format!("path index {} past the {paths} paths of style {:?}", p.path_idx, p.style)
    } else if p.event_idx as usize >= events {
        format!("event index {} past the {events} events of style {:?}", p.event_idx, p.style)
    } else if p.style == UrlStyle::Plain && (p.service != 0 || p.cb.is_some()) {
        format!("plain URL carries service {} or a cache buster", p.service)
    } else {
        let cb = p.cb.unwrap_or_default();
        let b = cb.iter().find(|b| !ALPHABET.contains(b)).copied().unwrap_or_default();
        format!("cache-buster byte {b:#04x} outside the token alphabet")
    }
}

impl EncodedUrl {
    /// Synthesizes a request URL in the given style, in compact form. RNG
    /// draw order is the contract: https coin, then per-style path/keyword
    /// pick, then (Args) event pick, then cache-buster coin and, on a hit,
    /// eight token draws.
    ///
    /// `service` is the service half of the stable per-(user, service)
    /// identity; the user half is the logging user's id. The same user
    /// revisiting the same tracker produces *recurring* URL strings, which
    /// is why the paper's unique-URL counts (Table 2) sit far below its
    /// total request counts. Cache busters (`cb`) are added to a fraction
    /// of requests only.
    pub fn synth<R: Rng + ?Sized>(
        rng: &mut R,
        style: UrlStyle,
        https_share: f64,
        service: u32,
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
            service,
            cb: None,
        };
        match style {
            UrlStyle::Plain => {
                enc.path_idx = rng.gen_range(0..PLAIN_PATHS.len()) as u8;
                enc.service = 0;
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

    /// The fields, for encoders.
    pub fn parts(&self) -> UrlParts {
        UrlParts {
            scheme: self.scheme,
            style: self.style,
            path_idx: self.path_idx,
            event_idx: self.event_idx,
            service: self.service,
            cb: self.cb,
        }
    }

    /// The URL's scheme.
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// True if the string carries query arguments: every style but
    /// [`UrlStyle::Plain`].
    pub fn has_args(&self) -> bool {
        self.style != UrlStyle::Plain
    }

    /// The part of a logging user's id the string depends on: the user
    /// itself for identity-bearing styles, 0 for a plain URL.
    pub fn rendered_user(&self, user: u32) -> u32 {
        if self.has_args() {
            user
        } else {
            0
        }
    }

    /// Appends the URL string for `host`, as logged by `user`, to `buf` —
    /// byte-identical to `self.to_url(host, user).to_string()` without any
    /// intermediate allocation.
    pub fn write_into(&self, host: &str, user: u32, buf: &mut String) {
        buf.push_str(self.scheme.as_str());
        buf.push_str("://");
        buf.push_str(host);
        let identity = (user as u64) << 32 | self.service as u64;
        match self.style {
            UrlStyle::Plain => {
                buf.push_str(PLAIN_PATHS[self.path_idx as usize]);
            }
            UrlStyle::Args => {
                buf.push_str(ARG_PATHS[self.path_idx as usize]);
                buf.push_str("?uid=");
                write_identity_token(identity, buf);
                buf.push_str("&ev=");
                buf.push_str(EVENTS[self.event_idx as usize]);
            }
            UrlStyle::ArgsAndKeywords => {
                buf.push('/');
                buf.push_str(TRACKING_KEYWORDS[self.path_idx as usize]);
                buf.push_str("?partner=");
                write_identity_token(identity.rotate_left(17), buf);
                buf.push_str("&rtb_id=");
                write_identity_token(identity, buf);
            }
        }
        if let Some(cb) = self.cb {
            buf.push_str("&cb=");
            for b in cb {
                buf.push(b as char);
            }
        }
    }

    /// Materializes the structured [`Url`] (the eager path).
    pub fn to_url(&self, host: &Domain, user: u32) -> Url {
        let identity = (user as u64) << 32 | self.service as u64;
        let mut url = match self.style {
            UrlStyle::Plain => {
                Url::new(self.scheme, host.clone(), PLAIN_PATHS[self.path_idx as usize])
            }
            UrlStyle::Args => {
                Url::new(self.scheme, host.clone(), ARG_PATHS[self.path_idx as usize])
                    .with_arg("uid", identity_token(identity))
                    .with_arg("ev", EVENTS[self.event_idx as usize])
            }
            UrlStyle::ArgsAndKeywords => {
                let kw = TRACKING_KEYWORDS[self.path_idx as usize];
                Url::new(self.scheme, host.clone(), format!("/{kw}"))
                    .with_arg("partner", identity_token(identity.rotate_left(17)))
                    .with_arg("rtb_id", identity_token(identity))
            }
        };
        if let Some(cb) = self.cb {
            let cb = std::str::from_utf8(&cb).expect("token bytes are ASCII").to_owned();
            url = url.with_arg("cb", cb);
        }
        url
    }
}

/// Shape-byte bit of a packed URL ([`pack_url`]): the scheme is HTTPS.
pub const URL_HTTPS: u8 = 1;
/// Shape-byte bits of a packed URL: the style tag, an index into the
/// style table (`Plain`, `Args`, `ArgsAndKeywords`), shifted by one.
pub const URL_STYLE: u8 = 6;
/// Shape-byte bit of a packed URL: it has a cache buster, which the
/// packed formats store apart, as eight bytes.
pub const URL_CB: u8 = 8;

/// The style tags of a URL shape byte.
const STYLES: [UrlStyle; 3] = [UrlStyle::Plain, UrlStyle::Args, UrlStyle::ArgsAndKeywords];

/// The `(shape, index)` bytes of a compact URL's parts, the packed form
/// the checkpoint formats store beside the service half and the cache
/// buster: [`URL_HTTPS`], the style tag and [`URL_CB`] in the shape byte,
/// the path index (low nibble) and event index (high nibble) in the index
/// byte.
#[inline]
pub fn pack_url(p: &UrlParts) -> (u8, u8) {
    let style = STYLES.iter().position(|&s| s == p.style).expect("every style has a tag") as u8;
    let https = if p.scheme == Scheme::Https { URL_HTTPS } else { 0 };
    let cb = if p.cb.is_some() { URL_CB } else { 0 };
    (https | style << 1 | cb, p.path_idx | p.event_idx << 4)
}

/// Reverses [`pack_url`] through [`EncodedUrl::try_from`]: an unknown shape
/// bit, a style tag past the table or a non-canonical URL is an error, not
/// a value.
#[inline]
pub fn unpack_url(
    shape: u8,
    index: u8,
    service: u32,
    cb: Option<[u8; 8]>,
) -> Result<EncodedUrl, String> {
    if shape & !(URL_HTTPS | URL_STYLE | URL_CB) != 0 {
        return Err(format!("URL shape {shape:#04x} sets unknown bits"));
    }
    let tag = ((shape & URL_STYLE) >> 1) as usize;
    let &style = STYLES
        .get(tag)
        .ok_or_else(|| format!("URL style tag {tag} out of range"))?;
    let scheme = if shape & URL_HTTPS != 0 { Scheme::Https } else { Scheme::Http };
    EncodedUrl::try_from(UrlParts {
        scheme,
        style,
        path_idx: index & 0xF,
        event_idx: index >> 4,
        service,
        cb,
    })
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
        for i in 0..100u32 {
            let plain = EncodedUrl::synth(&mut rng, UrlStyle::Plain, 0.83, i).to_url(&host, 0);
            assert!(!plain.has_args());
            let args = EncodedUrl::synth(&mut rng, UrlStyle::Args, 0.83, i).to_url(&host, 0);
            assert!(args.has_args() && !args.has_tracking_keyword());
            let kw =
                EncodedUrl::synth(&mut rng, UrlStyle::ArgsAndKeywords, 0.83, i).to_url(&host, 0);
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
            let url = EncodedUrl::synth(&mut rng, UrlStyle::Args, 1.0, 99).to_url(&host, 3);
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
                EncodedUrl::synth(&mut rng, UrlStyle::Args, 0.83, 5).scheme() == Scheme::Https
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
                for (user, service) in [(0, 0), (0, 42), (u32::MAX, u32::MAX), (seed as u32, 7)] {
                    let enc = EncodedUrl::synth(&mut rng, style, 0.83, service);
                    buf.clear();
                    enc.write_into(host.as_str(), user, &mut buf);
                    assert_eq!(
                        buf,
                        enc.to_url(&host, user).to_string(),
                        "seed {seed} style {style:?}"
                    );
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

        // The deferred writer agrees with the eager Display for every
        // canonical compact URL and identity, and the argument and scheme
        // reads agree with the string.
        #[test]
        fn write_into_matches_display_for_all_encodings(seed in any::<u64>()) {
            let host = Domain::new("t.example.com");
            for (enc, user, s) in drawn_urls(seed, &host) {
                prop_assert_eq!(&s, &enc.to_url(&host, user).to_string());
                prop_assert_eq!(enc.has_args(), s.contains('?'));
                prop_assert_eq!(enc.scheme() == Scheme::Https, s.starts_with("https://"));
            }
        }

        // Two canonical URLs on one host render equal strings exactly when
        // they and, unless plain, their users are equal: the equality the
        // Table-2 unique-URL counts rest on.
        #[test]
        fn canonical_urls_are_equal_exactly_when_their_strings_are(seed in any::<u64>()) {
            let rendered = drawn_urls(seed, &Domain::new("t.example.com"));
            for (ea, ua, sa) in &rendered {
                for (eb, ub, sb) in &rendered {
                    let same = ea == eb && ea.rendered_user(*ua) == eb.rendered_user(*ub);
                    prop_assert_eq!(same, sa == sb, "{} vs {}", sa, sb);
                }
            }
        }
    }

    /// Forty canonical URLs over every style, scheme, cache buster and
    /// identity, with their users and strings on `host`. Half copy an
    /// earlier one with at most one field or the user changed, so equal
    /// and near-equal pairs are common.
    fn drawn_urls(seed: u64, host: &Domain) -> Vec<(EncodedUrl, u32, String)> {
        let rng = &mut StdRng::seed_from_u64(seed);
        let mut drawn: Vec<(UrlParts, u32)> = Vec::new();
        for _ in 0..40 {
            let next = match drawn.len() {
                n if n > 0 && rng.gen_bool(0.5) => {
                    let (mut p, mut user) = drawn[rng.gen_range(0..n)];
                    match rng.gen_range(0..5) {
                        0 => user = draw_user(rng),
                        1 => p.service = draw_service(rng),
                        2 => p.cb = draw_cb(rng),
                        3 => p.scheme = draw_parts(rng).scheme,
                        _ => {}
                    }
                    (canonical(p), user)
                }
                _ => (draw_parts(rng), draw_user(rng)),
            };
            drawn.push(next);
        }
        drawn
            .into_iter()
            .map(|(p, user)| {
                let enc = EncodedUrl::try_from(p).expect("canonical parts");
                let mut buf = String::new();
                enc.write_into(host.as_str(), user, &mut buf);
                (enc, user, buf)
            })
            .collect()
    }

    /// Mostly a few values, so identities coincide; sometimes any value.
    fn draw_user(rng: &mut StdRng) -> u32 {
        if rng.gen_bool(0.75) { rng.gen_range(0..3) } else { rng.gen() }
    }

    fn draw_service(rng: &mut StdRng) -> u32 {
        draw_user(rng)
    }

    fn draw_cb(rng: &mut StdRng) -> Option<[u8; 8]> {
        match rng.gen_range(0..4) {
            0 | 1 => None,
            2 => Some(*b"aaaaaaaa"),
            _ => Some(super::token_bytes(rng)),
        }
    }

    /// Clears what the style does not render and wraps the indices into
    /// the style's tables.
    fn canonical(p: UrlParts) -> UrlParts {
        let (paths, events) = match p.style {
            UrlStyle::Plain => (PLAIN_PATHS.len(), 1),
            UrlStyle::Args => (ARG_PATHS.len(), EVENTS.len()),
            UrlStyle::ArgsAndKeywords => (TRACKING_KEYWORDS.len(), 1),
        };
        let plain = p.style == UrlStyle::Plain;
        UrlParts {
            path_idx: (p.path_idx as usize % paths) as u8,
            event_idx: (p.event_idx as usize % events) as u8,
            service: if plain { 0 } else { p.service },
            cb: if plain { None } else { p.cb },
            ..p
        }
    }

    fn draw_parts(rng: &mut StdRng) -> UrlParts {
        let styles = [UrlStyle::Plain, UrlStyle::Args, UrlStyle::ArgsAndKeywords];
        let style = styles[rng.gen_range(0..3)];
        canonical(UrlParts {
            scheme: if rng.gen() { Scheme::Https } else { Scheme::Http },
            style,
            path_idx: rng.gen(),
            event_idx: rng.gen(),
            service: draw_service(rng),
            cb: draw_cb(rng),
        })
    }

    #[test]
    fn non_canonical_parts_are_refused() {
        let args = UrlParts {
            scheme: Scheme::Https,
            style: UrlStyle::Args,
            path_idx: 0,
            event_idx: 0,
            service: 7,
            cb: Some(*b"abc12345"),
        };
        assert!(EncodedUrl::try_from(args).is_ok());
        let plain = UrlParts { style: UrlStyle::Plain, service: 0, cb: None, ..args };
        assert!(EncodedUrl::try_from(plain).is_ok());
        for (what, bad) in [
            ("path index", UrlParts { path_idx: ARG_PATHS.len() as u8, ..args }),
            ("event index", UrlParts { event_idx: EVENTS.len() as u8, ..args }),
            ("event index", UrlParts { style: UrlStyle::ArgsAndKeywords, event_idx: 1, ..args }),
            ("plain URL", UrlParts { service: 1, ..plain }),
            ("plain URL", UrlParts { cb: Some(*b"abc12345"), ..plain }),
            ("cache-buster byte", UrlParts { cb: Some(*b"abc1234A"), ..args }),
        ] {
            let err = EncodedUrl::try_from(bad).expect_err(what);
            assert!(err.contains(what), "{what}: {err}");
        }
    }
}
