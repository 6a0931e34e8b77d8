#!/usr/bin/env bash
# Tier-1 gate: release build, lint-clean workspace, full test suite.
# Offline by design — the container vendors every dependency under
# vendor/ and must never reach for the network.
set -euo pipefail
cd "$(dirname "$0")"

# The bench smokes below overwrite the committed BENCH_*.json documents
# with smoke numbers. Stash them up front and put every one back on any
# exit, so a failing gate or step never leaves smoke numbers behind; the
# regression checks read their baselines from the stash.
stash="$(mktemp -d)"
for doc in BENCH_pipeline.json BENCH_netflow.json BENCH_worldscale.json; do
    if [ -f "$doc" ]; then
        cp "$doc" "$stash/"
    fi
done
restore_bench_docs() {
    for doc in "$stash"/*; do
        if [ -f "$doc" ]; then
            cp "$doc" .
        fi
    done
    rm -rf "$stash"
}
trap restore_bench_docs EXIT
# The stashed copy of a committed document, or nothing if it has none.
stashed() {
    if [ -f "$stash/$1" ]; then
        echo "$stash/$1"
    fi
}

echo "== build (release) =="
cargo build --release --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tests =="
cargo test -q --offline

echo "== xbench smoke (every workload's output checks, incl. worldscale = batch) =="
cargo test --offline --release --manifest-path xbench/Cargo.toml

echo "== bench smoke (writes BENCH_pipeline.json) =="
# The stashed committed baseline lets the fresh numbers be compared
# against what the repo last recorded.
baseline="$(stashed BENCH_pipeline.json)"
./target/release/bench_pipeline

echo "== bench output sanity (BENCH_pipeline.json must exist and parse) =="
python3 - BENCH_pipeline.json <<'EOF'
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
except (OSError, ValueError) as e:
    print(f"FATAL: BENCH_pipeline.json missing or unparseable: {e}")
    sys.exit(1)
if not any(r.get("threads") == 1 for r in doc.get("runs", [])):
    print("FATAL: BENCH_pipeline.json has no threads=1 run")
    sys.exit(1)
if "streaming_ckpt_ms" not in doc.get("streaming", {}):
    print("FATAL: BENCH_pipeline.json has no streaming-mode row")
    sys.exit(1)
print("bench output sanity: ok")
EOF

echo "== netflow bench smoke (1e6 records; writes BENCH_netflow.json) =="
# The committed BENCH_netflow.json documents a full 1e8-record run; the
# smoke run's numbers gate against the stashed copy.
nf_baseline="$(stashed BENCH_netflow.json)"
XBORDER_NETFLOW_MAX_RECORDS=1000000 ./target/release/bench_netflow

echo "== netflow bench sanity (BENCH_netflow.json must exist and parse) =="
python3 - BENCH_netflow.json <<'EOF'
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
except (OSError, ValueError) as e:
    print(f"FATAL: BENCH_netflow.json missing or unparseable: {e}")
    sys.exit(1)
if doc.get("netflow_records_per_sec", 0) <= 0:
    print("FATAL: BENCH_netflow.json has no positive netflow_records_per_sec")
    sys.exit(1)
if doc.get("oracle", {}).get("speedup_vs_oracle", 0) < 5.0:
    print("FATAL: interval-set join under the 5x oracle floor")
    sys.exit(1)
print("netflow bench sanity: ok")
EOF

if [ -n "$nf_baseline" ]; then
    echo "== netflow regression check (records/sec vs committed baseline) =="
    python3 - "$nf_baseline" BENCH_netflow.json <<'EOF'
import json, sys

def load(path):
    try:
        return json.load(open(path))
    except (OSError, ValueError) as e:
        print(f"FATAL: {path} missing or unparseable: {e}")
        sys.exit(1)

old_doc, new_doc = load(sys.argv[1]), load(sys.argv[2])
# The headline is the 1e6-record threads=1 row in both docs, so the smoke
# run compares like-for-like against the committed full-scale document.
o = old_doc.get("netflow_records_per_sec")
n = new_doc.get("netflow_records_per_sec")
if not o or not n:
    print("netflow check: no comparable netflow_records_per_sec; skipping")
elif n < o * 0.80:
    print(f"WARNING: netflow_records_per_sec regressed >20%: "
          f"{o:,.0f} -> {n:,.0f} ({n / o - 1:+.0%})")
else:
    print(f"netflow check: netflow_records_per_sec {o:,.0f} -> {n:,.0f} "
          f"({n / o - 1:+.0%}), within the 20% budget")
EOF
fi

echo "== worldscale bench smoke (1e5 users; writes BENCH_worldscale.json) =="
# The committed BENCH_worldscale.json documents a full 1e6-user run; the
# smoke run's numbers gate against the stashed copy. The binary itself
# asserts fingerprint equality across segment sizes, so a smoke pass is
# also a determinism pass; the sanity block below gates each row's
# process high-water mark (VmHWM) against the baseline.
ws_baseline="$(stashed BENCH_worldscale.json)"
XBORDER_WORLDSCALE_MAX_USERS=100000 ./target/release/bench_worldscale

echo "== worldscale bench sanity (BENCH_worldscale.json must exist and parse; VmHWM gate) =="
# Every row must carry its own positive VmHWM, and no row may exceed the
# committed baseline's row at the same (users, segment_users) by >20%.
python3 - BENCH_worldscale.json "$ws_baseline" <<'EOF'
import json, sys
try:
    doc = json.load(open(sys.argv[1]))
except (OSError, ValueError) as e:
    print(f"FATAL: BENCH_worldscale.json missing or unparseable: {e}")
    sys.exit(1)
if doc.get("worldscale_users_per_sec", 0) <= 0:
    print("FATAL: BENCH_worldscale.json has no positive worldscale_users_per_sec")
    sys.exit(1)
runs = doc.get("runs", [])
if not runs:
    print("FATAL: BENCH_worldscale.json has no runs")
    sys.exit(1)
missing = [(r["users"], r["segment_users"]) for r in runs
           if not (r.get("vm_hwm_bytes") or 0) > 0]
if missing:
    print(f"FATAL: row(s) without a positive vm_hwm_bytes: {missing}")
    sys.exit(1)
if sys.argv[2]:
    try:
        base = json.load(open(sys.argv[2]))
    except (OSError, ValueError) as e:
        print(f"FATAL: committed BENCH_worldscale.json unparseable: {e}")
        sys.exit(1)
    base_hwm = {(r["users"], r["segment_users"]): r.get("vm_hwm_bytes")
                for r in base.get("runs", [])}
    for r in runs:
        key = (r["users"], r["segment_users"])
        o, n = base_hwm.get(key), r["vm_hwm_bytes"]
        if not o:
            print(f"worldscale VmHWM at {key}: no baseline row; skipping")
        elif n > o * 1.20:
            print(f"FATAL: VmHWM at {key} over the baseline by >20%: "
                  f"{o / 2**20:,.0f} -> {n / 2**20:,.0f} MiB ({n / o - 1:+.0%})")
            sys.exit(1)
        else:
            print(f"worldscale VmHWM at {key}: {o / 2**20:,.0f} -> {n / 2**20:,.0f} MiB "
                  f"({n / o - 1:+.0%}), within the 20% budget")
print("worldscale bench sanity: ok")
EOF

if [ -n "$ws_baseline" ]; then
    echo "== worldscale regression check (users/sec vs committed baseline) =="
    python3 - "$ws_baseline" BENCH_worldscale.json <<'EOF'
import json, sys

def load(path):
    try:
        return json.load(open(path))
    except (OSError, ValueError) as e:
        print(f"FATAL: {path} missing or unparseable: {e}")
        sys.exit(1)

old_doc, new_doc = load(sys.argv[1]), load(sys.argv[2])
# The committed doc goes up to 1e6 users, the smoke run stops at 1e5:
# compare like-for-like on the largest (users, segment) row both share.
def rows(doc):
    return {(r["users"], r["segment_users"]): r.get("users_per_sec")
            for r in doc.get("runs", [])}
common = sorted(set(rows(old_doc)) & set(rows(new_doc)))
if not common:
    print("worldscale check: no comparable runs; skipping")
else:
    key = common[-1]
    o, n = rows(old_doc)[key], rows(new_doc)[key]
    if not o or not n:
        print("worldscale check: no comparable users_per_sec; skipping")
    elif n < o * 0.80:
        print(f"WARNING: users_per_sec at {key} regressed >20%: "
              f"{o:,.0f} -> {n:,.0f} ({n / o - 1:+.0%})")
    else:
        print(f"worldscale check: users_per_sec at {key} {o:,.0f} -> {n:,.0f} "
              f"({n / o - 1:+.0%}), within the 20% budget")
EOF
fi

if [ -n "$baseline" ]; then
    echo "== bench regression check (study/geolocate/total/allocs/streaming vs committed baseline) =="
    # An unparseable baseline or fresh bench doc fails the gate; a >20%
    # wall-clock regression warns (CI boxes are noisy), a >20% rise in
    # study_allocs fails it (the count is deterministic).
    python3 - "$baseline" BENCH_pipeline.json <<'EOF'
import json, sys

def load(path):
    try:
        return json.load(open(path))
    except (OSError, ValueError) as e:
        print(f"FATAL: {path} missing or unparseable: {e}")
        sys.exit(1)

def seq_run(doc):
    for run in doc.get("runs", []):
        if run.get("threads") == 1:
            return run
    return {}

old_doc, new_doc = load(sys.argv[1]), load(sys.argv[2])
old, new = seq_run(old_doc), seq_run(new_doc)
# study_allocs is deterministic (counting allocator over a fixed workload),
# so a >20% jump there means an allocation crept back into the hot path.
o, n = old.get("study_allocs"), new.get("study_allocs")
if not o or n is None:
    print("bench check: no comparable study_allocs in baseline; skipping")
elif n > o * 1.20:
    print(f"FATAL: study_allocs rose >20%: {o:,} -> {n:,} ({n / o - 1:+.0%})")
    sys.exit(1)
else:
    print(f"bench check: study_allocs {o:,} -> {n:,} ({n / o - 1:+.0%}), "
          f"within the 20% budget")
pairs = [(stage, old.get(stage), new.get(stage))
         for stage in ("study_ms", "classify_ms", "geolocate_ms", "total_ms",
                       "netflow_generate_ms", "netflow_match_ms")]
# The streaming row rides the same gate: the chunked driver, the
# checkpointed variant, the incremental classifier and the rolling
# snapshot emission must all stay within the budget.
old_s, new_s = old_doc.get("streaming", {}), new_doc.get("streaming", {})
pairs += [(f"streaming.{key}", old_s.get(key), new_s.get(key))
          for key in ("streaming_ms", "streaming_ckpt_ms",
                      "incremental_classify_ms", "snapshot_ms",
                      "classify_overhead_vs_batch_pct",
                      "checkpoint_overhead_ms")]
# The compiled rule engine's build and match costs are microbenched on a
# synthetic URL-dependent rule set, so they gate like any other stage.
old_e, new_e = old_doc.get("rule_engine", {}), new_doc.get("rule_engine", {})
pairs += [(f"rule_engine.{key}", old_e.get(key), new_e.get(key))
          for key in ("build_ms", "engine_match_ms")]
for stage, o, n in pairs:
    if o is None or n is None or o <= 0:
        print(f"bench check: no comparable {stage} in baseline; skipping")
    elif n > o * 1.20:
        print(f"WARNING: {stage} regressed >20%: {o:,.1f} -> {n:,.1f} "
              f"({n / o - 1:+.0%})")
    else:
        print(f"bench check: {stage} {o:,.1f} -> {n:,.1f} "
              f"({n / o - 1:+.0%}), within the 20% budget")
EOF
fi

echo "== resume smoke (streaming and worldscale: kill at chunk 2 mid-write, resume, fingerprint vs uninterrupted run) =="
./target/release/resume_smoke

echo "ci.sh: all green"
