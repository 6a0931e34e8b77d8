//! Whole-suite commands built on `run`, one child process per run: the
//! two-set self-check against the benchmark's own bounds, and
//! parent-versus-change pairs.

use crate::{opt, opt_num, spec, stats, Metric};
use serde_json::Value;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// One run's metrics by name.
type Metrics = BTreeMap<String, f64>;
/// One run's metrics and the lines it printed before them.
type Run = (Metrics, Vec<String>);

/// Runs `bin run` once and returns its metrics and the lines it printed
/// before them; an incorrect run is an error.
fn run_child(
    bin: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<Run, String> {
    let out = Command::new(bin)
        .args(["run", "--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<String> = stdout.lines().map(str::to_string).collect();
    let last = lines.pop().unwrap_or_default();
    let doc: Value = serde_json::from_str(&last)
        .map_err(|e| format!("{workload} seed {seed}: no result line ({e}): {stdout}"))?;
    if doc.get("correct") != Some(&Value::Bool(true)) || !out.status.success() {
        return Err(format!("{workload} seed {seed}: incorrect run:\n{stdout}"));
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result without metrics")?;
    let metrics = metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok((metrics, lines))
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
fn worse(m: &Metric, a: f64, b: f64) -> f64 {
    let d = (b - a) / a.abs();
    if m.higher_is_better {
        -d
    } else {
        d
    }
}

/// Seeds of a self-check set, one run per seed and workload.
const SELFCHECK_SEEDS: u64 = 10;
/// Where the self-check writes both sets.
const SELFCHECK_OUT: &str = "xbench/results.json";

/// Runs the whole suite twice, at `run_seconds`, on seeds 1..=10, and
/// checks each end-to-end metric the way the benchmark is accepted: the
/// quartile spread of each set within the bound (except `setup_s`), and
/// the second set's median no worse than the first's by more than the
/// bound. Then runs each workload traced once, on seed 1. Writes every
/// run's metrics and printed lines (raw wall times among them).
/// `Ok(passed)`.
pub fn selfcheck() -> Result<bool, String> {
    let spec = spec();
    let seconds = spec.run_seconds;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let names = &spec.workloads;
    let seeds: Vec<u64> = (1..=SELFCHECK_SEEDS).collect();

    // sets[set][workload] = one (metrics, lines) per seed
    let mut sets: Vec<Vec<Vec<Run>>> = Vec::new();
    for set in 0..2 {
        let mut per_workload = Vec::new();
        for w in names {
            let mut runs = Vec::new();
            for &seed in &seeds {
                eprintln!("selfcheck: set {} {w} seed {seed}", set + 1);
                runs.push(run_child(&exe, w, seed, seconds, false)?);
            }
            per_workload.push(runs);
        }
        sets.push(per_workload);
    }
    let mut traced = Vec::new();
    for w in names {
        eprintln!("selfcheck: traced {w} seed 1");
        let (metrics, lines) = run_child(&exe, w, 1, seconds, true)?;
        let entry = serde_json::json!({"metrics": metrics, "lines": lines});
        traced.push((w.clone(), entry));
    }

    let mut passed = true;
    let mut doc_sets = vec![Vec::new(), Vec::new()];
    println!(
        "{:<14} {:<13} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "set 1", "set 2", "worse", "spread1", "spread2", "bound"
    );
    for (wi, w) in names.iter().enumerate() {
        let mut doc_w = [Vec::new(), Vec::new()];
        for m in &spec.end_to_end {
            let values = |set: usize| -> Vec<f64> {
                sets[set][wi]
                    .iter()
                    .filter_map(|(r, _)| r.get(&m.name).copied())
                    .collect()
            };
            let (a, b) = (values(0), values(1));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            let (sa, sb) = (stats::spread(&a), stats::spread(&b));
            let worse_by = worse(m, ma, mb);
            let steady = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let ok = steady && worse_by <= m.bound;
            passed &= ok;
            println!(
                "{w:<14} {:<13} {ma:>14.4} {mb:>14.4} {:>7.2}% {:>7.2}% {:>7.2}% {:>5.0}%  {}",
                m.name,
                worse_by * 100.0,
                sa * 100.0,
                sb * 100.0,
                m.bound * 100.0,
                if ok { "ok" } else { "FAIL" }
            );
            for (set, (vals, med, spr)) in [(a, ma, sa), (b, mb, sb)].into_iter().enumerate() {
                let entry = serde_json::json!({"values": vals, "median": med, "spread": spr});
                doc_w[set].push((m.name.clone(), entry));
            }
        }
        for (set, mut entries) in doc_w.into_iter().enumerate() {
            let lines: Vec<&Vec<String>> = sets[set][wi].iter().map(|(_, l)| l).collect();
            entries.push(("lines".into(), serde_json::json!(lines)));
            doc_sets[set].push((w.clone(), Value::Object(entries)));
        }
    }

    let doc = Value::Object(vec![
        ("host".into(), host_facts()),
        ("run_seconds".into(), serde_json::json!(seconds)),
        ("seeds".into(), serde_json::json!(seeds)),
        ("passed".into(), Value::Bool(passed)),
        (
            "sets".into(),
            Value::Array(doc_sets.into_iter().map(Value::Object).collect()),
        ),
        ("traced".into(), Value::Object(traced)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(SELFCHECK_OUT, text + "\n")
        .map_err(|e| format!("cannot write {SELFCHECK_OUT}: {e}"))?;
    println!(
        "selfcheck: {} (wrote {SELFCHECK_OUT})",
        if passed { "passed" } else { "FAILED" }
    );
    Ok(passed)
}

/// Logical CPUs, CPU model and git revision of the measuring host.
fn host_facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    serde_json::json!({"nproc": nproc, "cpu": cpu, "git_rev": git})
}

/// Alternating parent/change runs, one row per workload and metric.
/// `Ok(false)` when any metric regressed or a run failed.
pub fn pairs(args: &[String]) -> Result<bool, String> {
    let spec = spec();
    let parent = Path::new(opt(args, "--parent").ok_or("pairs needs --parent BIN")?);
    let change = Path::new(opt(args, "--change").ok_or("pairs needs --change BIN")?);
    let n = opt_num(args, "--pairs", 10.0)? as u64;
    let seconds = spec.run_seconds;
    let mut clean = true;
    println!(
        "{:<14} {:<13} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let names = match opt(args, "--workload") {
        Some(w) => vec![w.to_string()],
        None => spec.workloads.clone(),
    };
    for w in names {
        let (mut p, mut c): (Vec<Metrics>, Vec<Metrics>) = (Vec::new(), Vec::new());
        for i in 0..n {
            let seed = i + 1;
            let side = |bin: &Path, runs: &mut Vec<Metrics>| -> Result<(), String> {
                runs.push(run_child(bin, &w, seed, seconds, false)?.0);
                Ok(())
            };
            if i % 2 == 0 {
                side(parent, &mut p)?;
                side(change, &mut c)?;
            } else {
                side(change, &mut c)?;
                side(parent, &mut p)?;
            }
        }
        for m in &spec.end_to_end {
            let get = |runs: &[Metrics]| -> Vec<f64> {
                runs.iter()
                    .map(|r| r.get(&m.name).copied().unwrap_or(f64::NAN))
                    .collect()
            };
            let (pv, cv) = (get(&p), get(&c));
            let wins = pv
                .iter()
                .zip(&cv)
                .filter(|(a, b)| worse(m, **a, **b) < 0.0)
                .count() as u64;
            let (pm, cm) = (stats::median(&pv), stats::median(&cv));
            let (pq, cq) = (stats::quartiles(&pv), stats::quartiles(&cv));
            let every_run_better = cv.iter().all(|b| pv.iter().all(|a| worse(m, *a, *b) < 0.0));
            let verdict =
                if wins * 10 >= 9 * n && (cm - pm).abs() > pq.1 - pq.0 && worse(m, pm, cm) < 0.0 {
                    "gain"
                } else if (stats::spread(&pv) > m.bound || stats::spread(&cv) > m.bound)
                    && !every_run_better
                {
                    "unresolved"
                } else if worse(m, pm, cm) > m.bound {
                    clean = false;
                    "regression"
                } else {
                    "within bound"
                };
            println!(
                "{w:<14} {:<13} {:>12.4} [{:>7.4}, {:>7.4}] {:>12.4} [{:>7.4}, {:>7.4}] {wins:>3}/{n:<3}  {verdict}",
                m.name, pm, pq.0, pq.1, cm, cq.0, cq.1
            );
        }
    }
    Ok(clean)
}
