//! In-memory span recorder.
//!
//! A span is opened before a call into a layer and closed after it. It
//! records its name, start and end times, the span that encloses it, the
//! run (one workload iteration) it belongs to, the allocations made while
//! it was open, and the counts that crossed the boundary. Spans stay in
//! memory and are written out once, when the benchmark ends. A disabled
//! recorder does nothing, so the same rebuild code runs with tracing off.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// Counts that crossed one span's boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Io {
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes: u64,
}

impl Io {
    pub const NONE: Io = Io {
        rows_in: 0,
        rows_out: 0,
        bytes: 0,
    };

    pub fn rows(rows_in: usize, rows_out: usize) -> Io {
        Io {
            rows_in: rows_in as u64,
            rows_out: rows_out as u64,
            bytes: 0,
        }
    }

    pub fn bytes(bytes: usize) -> Io {
        Io {
            bytes: bytes as u64,
            ..Io::NONE
        }
    }
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub run: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub io: Io,
}

/// Handle of an open span; `None` when the recorder is disabled.
#[must_use = "close the span with Tracer::exit"]
pub struct Open(Option<usize>);

/// Per-name totals over one run, with children's time and allocations
/// taken out of each span's own ("self") figures.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub calls: u64,
    pub self_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub rows_in: u64,
    pub rows_out: u64,
    pub bytes: u64,
}

/// One run's aggregated spans and counters.
#[derive(Debug, Default)]
pub struct Profile {
    pub by_name: BTreeMap<&'static str, Agg>,
    pub counters: BTreeMap<&'static str, f64>,
    /// Summed duration of the run's top-level spans.
    pub root_ns: u64,
}

impl Profile {
    pub fn get(&self, name: &str) -> Agg {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    run: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(u32, &'static str, f64)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            run: 0,
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Starts a new run id; later spans and counters belong to it.
    pub fn begin_run(&mut self) -> u32 {
        self.run += 1;
        self.run
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let (allocs, alloc_bytes) = alloc::snapshot();
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            run: self.run,
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs,
            alloc_bytes,
            io: Io::NONE,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, span: Open, io: Io) {
        let Some(idx) = span.0 else { return };
        let end_ns = self.now_ns();
        let (allocs, alloc_bytes) = alloc::snapshot();
        let popped = self.open.pop();
        assert_eq!(popped, Some(idx), "spans must close innermost first");
        let s = &mut self.spans[idx];
        s.end_ns = end_ns;
        s.allocs = allocs - s.allocs;
        s.alloc_bytes = alloc_bytes - s.alloc_bytes;
        s.io = io;
    }

    /// Records a named count for the current run (a size or ratio that
    /// belongs to no single call).
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.counters.push((self.run, name, value));
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Aggregates one run's spans by name.
    pub fn profile(&self, run: u32) -> Profile {
        let mut p = Profile::default();
        let mut self_ns: Vec<i64> = Vec::new();
        let mut self_allocs: Vec<(i64, i64)> = Vec::new();
        let first = self.spans.partition_point(|s| s.run < run);
        let spans = &self.spans[first..];
        let spans = &spans[..spans.partition_point(|s| s.run == run)];
        for s in spans {
            self_ns.push((s.end_ns - s.start_ns) as i64);
            self_allocs.push((s.allocs as i64, s.alloc_bytes as i64));
        }
        for s in spans {
            let dur = (s.end_ns - s.start_ns) as i64;
            match s.parent {
                Some(parent) => {
                    let j = parent - first;
                    self_ns[j] -= dur;
                    self_allocs[j].0 -= s.allocs as i64;
                    self_allocs[j].1 -= s.alloc_bytes as i64;
                }
                None => p.root_ns += dur as u64,
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let a = p.by_name.entry(s.name).or_default();
            a.calls += 1;
            a.self_ns += self_ns[i].max(0) as u64;
            a.allocs += self_allocs[i].0.max(0) as u64;
            a.alloc_bytes += self_allocs[i].1.max(0) as u64;
            a.rows_in += s.io.rows_in;
            a.rows_out += s.io.rows_out;
            a.bytes += s.io.bytes;
        }
        for &(r, name, v) in &self.counters {
            if r == run {
                *p.counters.entry(name).or_default() += v;
            }
        }
        p
    }

    /// Every span and counter as one JSON document.
    pub fn to_json(&self) -> serde_json::Value {
        let spans: Vec<serde_json::Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                serde_json::json!({
                    "id": id,
                    "parent": s.parent,
                    "run": s.run,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "allocs": s.allocs,
                    "alloc_bytes": s.alloc_bytes,
                    "rows_in": s.io.rows_in,
                    "rows_out": s.io.rows_out,
                    "bytes": s.io.bytes,
                })
            })
            .collect();
        let counters: Vec<serde_json::Value> = self
            .counters
            .iter()
            .map(|(run, name, value)| serde_json::json!({"run": run, "name": name, "value": value}))
            .collect();
        serde_json::json!({"spans": spans, "counters": counters})
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_runs_stay_apart() {
        let mut tr = Tracer::new(true);
        let run = tr.begin_run();
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(20));
        tr.exit(inner, Io::rows(3, 2));
        tr.exit(outer, Io::NONE);
        tr.count("c", 1.5);
        let other = tr.begin_run();
        let s = tr.enter("inner");
        tr.exit(s, Io::NONE);

        let p = tr.profile(run);
        assert!(p.get("inner").self_ns >= 20_000_000);
        assert!(p.get("outer").self_ns < p.get("inner").self_ns);
        assert_eq!(p.get("inner").rows_in, 3);
        assert_eq!(p.counters["c"], 1.5);
        assert_eq!(p.root_ns, p.get("outer").self_ns + p.get("inner").self_ns);
        assert_eq!(tr.profile(other).get("inner").calls, 1);
        assert!(tr.profile(other).counters.is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let run = tr.begin_run();
        let s = tr.enter("x");
        tr.exit(s, Io::NONE);
        tr.count("c", 1.0);
        assert!(tr.profile(run).by_name.is_empty());
    }
}
