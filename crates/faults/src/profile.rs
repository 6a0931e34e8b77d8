//! The run profile: where one pipeline run spent its time, allocations
//! and bytes, layer by layer.
//!
//! Every driver (batch, the segment driver behind streaming and
//! worldscale, the ISP NetFlow study) books its stages through one scoped
//! call, [`Profile::span`]. Spans nest: a span's layer receives its *self*
//! cost, the cost of the spans opened inside it going to their own layers,
//! so the segment driver's `study` layer is the ingest loop minus the
//! classify, checkpoint and snapshot work it encloses.
//!
//! Like the rest of [`crate::DegradationReport::profile`], a profile is
//! observational and never part of the determinism contract: zero it
//! (`report.profile = Profile::default()`) before comparing reports.
//! Chunk-level reports carry the empty default, which owns no heap.
//!
//! The allocation probe the spans read lives here too: a bench binary
//! that owns a counting `#[global_allocator]` installs it with
//! [`install_alloc_probe`]; without one, spans book zero allocations.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// The layer paths a profile may hold, in report order.
pub const LAYERS: [&str; 8] = [
    "study",
    "classify",
    "completion",
    "geolocate",
    "ingest/checkpoint",
    "ingest/snapshot",
    "netflow/generate",
    "netflow/match",
];

/// One layer's self cost over every call booked to it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Layer {
    /// The layer's path, one of [`LAYERS`].
    pub path: &'static str,
    /// Wall-clock milliseconds, nested spans excluded.
    pub wall_ms: f64,
    /// Spans booked to the layer.
    pub calls: u64,
    /// Heap allocations, nested spans excluded; 0 without a probe.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
    /// Bytes the layer wrote to durable storage.
    pub bytes_written: u64,
    /// Bytes the layer's long-lived state held resident, read once.
    pub resident_bytes: u64,
}

/// An ordered list of [`Layer`]s, each path at most once.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Profile {
    /// The layers booked so far, in [`LAYERS`] order.
    pub layers: Vec<Layer>,
}

impl Profile {
    /// Runs `f` as one call of layer `path` and books its wall clock and,
    /// with a probe installed, its allocations, minus whatever spans
    /// opened inside `f` booked to their own layers.
    pub fn span<R>(&mut self, path: &'static str, f: impl FnOnce(&mut Profile) -> R) -> R {
        let before = self.booked();
        let alloc_before = alloc_snapshot();
        let t = Instant::now();
        let out = f(self);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        let (allocs, alloc_bytes) = match (alloc_before, alloc_snapshot()) {
            (Some((a0, b0)), Some((a1, b1))) => (a1.saturating_sub(a0), b1.saturating_sub(b0)),
            _ => (0, 0),
        };
        let nested = self.booked();
        let layer = self.layer_mut(path);
        layer.calls += 1;
        layer.wall_ms += wall_ms - (nested.wall_ms - before.wall_ms);
        layer.allocs += allocs.saturating_sub(nested.allocs - before.allocs);
        layer.alloc_bytes += alloc_bytes.saturating_sub(nested.alloc_bytes - before.alloc_bytes);
        out
    }

    /// The layer at `path`, if anything was booked to it.
    pub fn layer(&self, path: &str) -> Option<&Layer> {
        self.layers.iter().find(|l| l.path == path)
    }

    /// The layer at `path`, inserted empty in [`LAYERS`] order if absent.
    /// The first insertion reserves room for every layer, so no later one
    /// allocates inside an open span.
    ///
    /// # Panics
    ///
    /// If `path` is not one of [`LAYERS`].
    pub fn layer_mut(&mut self, path: &'static str) -> &mut Layer {
        let rank = |p: &str| {
            LAYERS
                .iter()
                .position(|l| *l == p)
                .unwrap_or_else(|| panic!("{p:?} is not a profile layer"))
        };
        let r = rank(path);
        let at = self.layers.partition_point(|l| rank(l.path) < r);
        if self.layers.get(at).map(|l| l.path) != Some(path) {
            if self.layers.capacity() == 0 {
                self.layers.reserve_exact(LAYERS.len());
            }
            let layer = Layer {
                path,
                ..Layer::default()
            };
            self.layers.insert(at, layer);
        }
        &mut self.layers[at]
    }

    /// Adds every layer of `other` into this profile.
    pub fn absorb(&mut self, other: &Profile) {
        for l in &other.layers {
            let layer = self.layer_mut(l.path);
            layer.wall_ms += l.wall_ms;
            layer.calls += l.calls;
            layer.allocs += l.allocs;
            layer.alloc_bytes += l.alloc_bytes;
            layer.bytes_written += l.bytes_written;
            layer.resident_bytes += l.resident_bytes;
        }
    }

    /// Wall clock and allocations booked over all layers.
    fn booked(&self) -> Layer {
        self.layers.iter().fold(Layer::default(), |acc, l| Layer {
            wall_ms: acc.wall_ms + l.wall_ms,
            allocs: acc.allocs + l.allocs,
            alloc_bytes: acc.alloc_bytes + l.alloc_bytes,
            ..acc
        })
    }
}

/// Cumulative allocation counters read from an installed probe:
/// `(allocation count, bytes requested)` since process start.
pub type AllocSnapshot = (u64, u64);

/// The process-wide allocation probe, if one was installed.
static ALLOC_PROBE: std::sync::OnceLock<fn() -> AllocSnapshot> = std::sync::OnceLock::new();

/// Installs a process-wide allocation probe (typically backed by a counting
/// `#[global_allocator]` in a bench binary). First installation wins;
/// returns `false` if a probe was already installed. Library code stays
/// `forbid(unsafe_code)`-clean: only the reporting plumbing lives here, the
/// counting allocator itself belongs to the binary that owns `main`.
pub fn install_alloc_probe(probe: fn() -> AllocSnapshot) -> bool {
    ALLOC_PROBE.set(probe).is_ok()
}

/// Reads the installed allocation probe, or `None` when no probe exists
/// (the common case outside bench builds — spans then book zeros). The
/// counters are process-wide: a span under a thread budget above one
/// also counts what concurrent threads allocate.
pub fn alloc_snapshot() -> Option<AllocSnapshot> {
    ALLOC_PROBE.get().map(|p| p())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() * 1e3 < ms {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn nested_spans_book_self_time_to_each_layer() {
        let mut p = Profile::default();
        p.span("study", |p| {
            spin(1.0);
            p.span("classify", |_| spin(10.0));
            p.span("classify", |p| p.span("ingest/checkpoint", |_| spin(10.0)));
        });
        let paths: Vec<&str> = p.layers.iter().map(|l| l.path).collect();
        assert_eq!(paths, ["study", "classify", "ingest/checkpoint"]);
        let (study, classify, ckpt) = (p.layers[0], p.layers[1], p.layers[2]);
        assert_eq!((study.calls, classify.calls, ckpt.calls), (1, 2, 1));
        // Inclusive time would put study at 21 ms and classify at 20.
        assert!(study.wall_ms >= 1.0 && study.wall_ms < 11.0, "{study:?}");
        assert!(
            classify.wall_ms >= 10.0 && classify.wall_ms < 20.0,
            "{classify:?}"
        );
        assert!(ckpt.wall_ms >= 10.0, "{ckpt:?}");
        assert!(p.layers.capacity() >= LAYERS.len());
    }

    #[test]
    fn spans_book_self_allocations_from_the_probe() {
        use std::sync::atomic::{AtomicU64, Ordering};
        static FAKE: AtomicU64 = AtomicU64::new(0);
        let bump = |n: u64| FAKE.fetch_add(n, Ordering::Relaxed);
        // The probe reads a counter this test moves by hand; no other test
        // in this crate moves it, so their spans book zero allocations.
        install_alloc_probe(|| {
            (
                FAKE.load(Ordering::Relaxed),
                8 * FAKE.load(Ordering::Relaxed),
            )
        });
        let mut p = Profile::default();
        p.span("study", |p| {
            bump(5);
            p.span("classify", |_| bump(3));
        });
        let (study, classify) = (p.layers[0], p.layers[1]);
        assert_eq!((study.allocs, study.alloc_bytes), (5, 40));
        assert_eq!((classify.allocs, classify.alloc_bytes), (3, 24));
    }

    #[test]
    fn absorb_adds_layers_in_canonical_order() {
        let mut a = Profile::default();
        a.layer_mut("netflow/match").calls = 2;
        let mut b = Profile::default();
        b.layer_mut("netflow/generate").wall_ms = 1.5;
        b.layer_mut("netflow/match").bytes_written = 7;
        a.absorb(&b);
        let paths: Vec<&str> = a.layers.iter().map(|l| l.path).collect();
        assert_eq!(paths, ["netflow/generate", "netflow/match"]);
        let m = a.layer("netflow/match").unwrap();
        assert_eq!((m.calls, m.bytes_written), (2, 7));
        assert_eq!(a.layer("netflow/generate").unwrap().wall_ms, 1.5);
        assert!(a.layer("study").is_none());
    }

    #[test]
    #[should_panic(expected = "is not a profile layer")]
    fn unknown_layers_are_refused() {
        Profile::default().layer_mut("stduy");
    }

    #[test]
    fn profile_serializes_as_a_layer_list() {
        let mut p = Profile::default();
        p.layer_mut("geolocate").calls = 1;
        let v = serde::Serialize::to_value(&p);
        assert_eq!(v.as_array().map(Vec::len), Some(1));
        let back: Profile = serde::Deserialize::from_value(&v).unwrap();
        assert_eq!(back, p);
        assert_eq!(
            serde::Serialize::to_value(&Profile::default())
                .as_array()
                .map(Vec::len),
            Some(0)
        );
    }
}
