//! CI resume smoke (ci.sh), in release mode, for both segment-driver
//! pipelines:
//!
//! 1. crash the streaming pipeline *mid-write* of chunk 2's record —
//!    leaving a torn tail in the checkpoint journal — then resume on the same
//!    checkpoint directory and require bit-identical outputs against the
//!    uninterrupted batch pipeline;
//! 2. crash the streaming pipeline immediately after the first rolling
//!    snapshot is published, and require the same equality;
//! 3. crash a durable worldscale run on a small `WorldConfig::large`
//!    world mid-write of chunk 2's record, resume, and require its
//!    `ScaleOutputs::fingerprint` to equal the uninterrupted in-memory
//!    run's.
//!
//! Exits nonzero on any drift, so a broken recovery path fails the gate
//! rather than warning.

use std::net::IpAddr;
use std::path::Path;
use std::process::ExitCode;
use xborder::pipeline::{run_extension_pipeline_degraded, StudyOutputs};
use xborder::stream::{run_extension_pipeline_streaming, StreamConfig, StreamError};
use xborder::worldscale::{run_worldscale_pipeline, ScaleConfig};
use xborder::{World, WorldConfig};
use xborder_faults::{FaultPlan, KillSwitch};

/// Compact FNV fold over every output surface (mirrors the integration
/// tests' fingerprint): request-log shape, Table-2 counts, the sorted
/// tracker-IP set and all three provider estimate maps.
fn fingerprint(out: &StudyOutputs) -> (usize, usize, u64, u64, usize, usize, u64) {
    let fold = |h: u64, s: &str| {
        s.bytes()
            .fold(h, |h, b| h.wrapping_mul(1_099_511_628_211).wrapping_add(b as u64))
    };
    let mut ips: Vec<IpAddr> = out.tracker_ips.ips.keys().copied().collect();
    ips.sort();
    let mut h = 0u64;
    for ip in &ips {
        h = fold(h, &ip.to_string());
        for map in [
            &out.ipmap_estimates,
            &out.maxmind_estimates,
            &out.ipapi_estimates,
        ] {
            h = match map.get(ip) {
                Some(e) => fold(h, e.country.as_str()),
                None => fold(h, "-"),
            };
        }
    }
    (
        out.dataset.requests.len(),
        out.dataset.visits.len(),
        out.classification.abp.n_total_requests as u64,
        out.classification.semi.n_total_requests as u64,
        out.tracker_ips.len(),
        out.completion.n_added,
        h,
    )
}

fn main() -> ExitCode {
    match scenarios() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("resume_smoke: FAIL — {e}");
            ExitCode::FAILURE
        }
    }
}

/// Kills `run` at the site labelled `label` on a fresh `dir`, resumes it
/// on the same directory, and returns the resumed run's outputs.
fn kill_and_resume<T>(
    what: &str,
    dir: &Path,
    label: &str,
    run: impl Fn(&KillSwitch) -> Result<T, StreamError>,
) -> Result<T, String> {
    let _ = std::fs::remove_dir_all(dir);
    match run(&KillSwitch::at_label(label)) {
        Err(StreamError::Killed { site, label }) => {
            println!("resume_smoke: killed {what} at site {site} ({label})");
        }
        Err(e) => return Err(format!("expected a {what} kill at {label}, got error: {e}")),
        Ok(_) => return Err(format!("{what} run completed without firing {label}")),
    }
    let resumed = run(&KillSwitch::none())
        .map_err(|e| format!("{what} resume after the kill at {label} failed: {e}"));
    let _ = std::fs::remove_dir_all(dir);
    resumed
}

fn scenarios() -> Result<(), String> {
    let seed = 11u64;
    let plan = FaultPlan::aggressive(seed);
    let tmp = |tag: &str| {
        std::env::temp_dir().join(format!("xborder-resume-{tag}-{}", std::process::id()))
    };
    let cfg = || WorldConfig::small(seed).with_threads(2);
    let stream = |stream_cfg: &StreamConfig, kill: &KillSwitch| {
        run_extension_pipeline_streaming(&mut World::build(cfg()), &plan, stream_cfg, kill)
            .map(|(out, _report)| out)
    };
    let (batch_out, _) = run_extension_pipeline_degraded(&mut World::build(cfg()), &plan);
    let want = fingerprint(&batch_out);

    // 1. Crash while chunk 2's record is half-written: chunks 0 and 1 are
    // durable, chunk 2 exists only as a torn tail of the journal, which the
    // resume truncates and appends again.
    let dir = tmp("smoke");
    let durable = StreamConfig::durable(5, &dir);
    let out = kill_and_resume("streaming", &dir, "chunk-2:blob:mid", |kill| {
        stream(&durable, kill)
    })?;
    if fingerprint(&out) != want {
        return Err(format!(
            "resumed outputs drifted from batch:\n  batch:   {want:?}\n  resumed: {:?}",
            fingerprint(&out)
        ));
    }
    println!(
        "resume_smoke: OK — kill at chunk 2 + resume is bit-identical to batch \
         ({} requests, {} trackers)",
        want.0, want.4
    );

    // 2. Rolling snapshots on, crash right after the first window is
    // published, resume, and require batch equality again (the resumed
    // run also re-emits the full snapshot series).
    let dir = tmp("snap");
    let snap = StreamConfig::durable(5, &dir).with_snapshots(4);
    let out = kill_and_resume("streaming", &dir, "snapshot-0:emitted", |kill| {
        stream(&snap, kill)
    })?;
    if fingerprint(&out) != want {
        return Err("snapshot-kill resume drifted from batch".into());
    }
    if out.snapshots.len() != 4 {
        return Err(format!(
            "expected 4 rolling snapshots, got {}",
            out.snapshots.len()
        ));
    }
    println!(
        "resume_smoke: OK — kill after snapshot 0 + resume is bit-identical to batch \
         ({} rolling snapshots re-emitted)",
        out.snapshots.len()
    );

    // 3. The out-of-core driver on a 400-user segmented world in segments
    // of 50, killed mid-write of chunk 2's blob and resumed, must land on
    // the uninterrupted in-memory run's fingerprint.
    let large = || WorldConfig::large(seed, 400).with_threads(2);
    let scale = |scale_cfg: &ScaleConfig, kill: &KillSwitch| {
        run_worldscale_pipeline(&mut World::build(large()), &plan, scale_cfg, kill)
            .map(|(out, _report)| out)
    };
    let want = scale(&ScaleConfig::in_memory(50), &KillSwitch::none())
        .map_err(|e| format!("in-memory worldscale run failed: {e}"))?
        .fingerprint();
    let dir = tmp("scale");
    let durable = ScaleConfig::durable(50, &dir);
    let out = kill_and_resume("worldscale", &dir, "chunk-2:blob:mid", |kill| {
        scale(&durable, kill)
    })?;
    if out.fingerprint() != want {
        return Err(format!(
            "resumed worldscale fingerprint {:#018x} drifted from the in-memory run's {want:#018x}",
            out.fingerprint()
        ));
    }
    println!(
        "resume_smoke: OK — worldscale kill at chunk 2 + resume matches the in-memory run \
         ({} segments, {} trackers)",
        out.n_segments,
        out.tracker_ips.len()
    );
    Ok(())
}
