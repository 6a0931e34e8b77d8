#!/usr/bin/env bash
# Tier-1 gate: release build, lint-clean workspace and docs, full test suite.
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

echo "== build (release) =="
cargo build --release --offline --workspace

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (deny warnings: no doc link may point at a deleted item) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "== tests =="
cargo test -q --offline

echo "== xbench smoke (every workload's output checks, incl. worldscale = batch) =="
cargo test --offline --release --manifest-path xbench/Cargo.toml


echo "== bench smokes (write BENCH_pipeline.json, BENCH_netflow.json, BENCH_worldscale.json) =="
# The committed BENCH_netflow.json and BENCH_worldscale.json document
# full 1e8-record and 1e6-user runs; the smokes stop at 1e6 records and
# 1e5 users, and the gate compares like-for-like rows. bench_worldscale
# asserts fingerprint equality across segment sizes, so a smoke pass is
# also a determinism pass.
./target/release/bench_pipeline
XBORDER_NETFLOW_MAX_RECORDS=1000000 ./target/release/bench_netflow
XBORDER_WORLDSCALE_MAX_USERS=100000 ./target/release/bench_worldscale

echo "== bench gate (fresh docs against the rule table and the stashed baselines) =="
# Fatal: an unparseable doc, a missing threads=1 or streaming row, a
# non-positive rate or VmHWM, the netflow 5x oracle floor, a >20% rise of
# study allocs (deterministic) or of any row's VmHWM. Wall clock only
# warns at 20% (CI boxes are noisy), printing its spread over repeats.
python3 bench_gate.py . "$stash"

echo "== bench gate self-test (doctored docs fail; a pre-fold baseline passes) =="
# Each case doctors one copy of the fresh docs, as the fresh side or as the
# baseline. A case with a needle breaks one fatal check and must print it;
# the undoctored docs (case None) and a baseline that predates the fold
# layer (its rule skips) must pass.
python3 - <<'EOF'
import copy, json, os, subprocess, sys, tempfile
from bench_gate import NETFLOW, PIPE, SEQ, WORLD, get, rows

def scale(row, path, factor):
    head, _, last = path.rpartition(".")
    get(row, head)[last] = round(get(row, path) * factor)

def drop_layer(doc, layer):
    for run in doc["runs"]:
        run["profile"] = [l for l in run["profile"] if l["path"] != layer]

fresh = {name: json.load(open(name)) for name in (PIPE, NETFLOW, WORLD)}
cases = {  # (FATAL line it must print or None to pass, edit, doctored side)
    "threads=1 study allocs +25%": ("profile.study.allocs", lambda d: scale(
        rows(d[PIPE], SEQ)[0][1], "profile.study.allocs", 1.25), "fresh"),
    "one worldscale VmHWM +25%": ("vm_hwm_bytes", lambda d: scale(
        d[WORLD]["runs"][0], "vm_hwm_bytes", 1.25), "fresh"),
    "netflow oracle speedup 4.9": ("speedup_vs_oracle", lambda d: d[NETFLOW]["oracle"].update(
        speedup_vs_oracle=4.9), "fresh"),
    "threads=1 row missing": (SEQ, lambda d: d[PIPE].update(
        runs=[r for r in d[PIPE]["runs"] if r["threads"] != 1]), "fresh"),
    "streaming row missing": ("streaming", lambda d: d[PIPE].pop("streaming"), "fresh"),
    "baseline without a fold layer": (None, lambda d: drop_layer(d[PIPE], "fold"), "baseline"),
    None: (None, lambda d: None, "fresh"),
}
for case, (needle, doctor, side) in cases.items():
    docs = copy.deepcopy(fresh)
    doctor(docs)
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in docs.items():
            with open(os.path.join(tmp, name), "w") as f:
                json.dump(doc, f)
        dirs = [tmp, "."] if side == "fresh" else [".", tmp]
        gate = subprocess.run([sys.executable, "bench_gate.py", *dirs],
                              capture_output=True, text=True)
    fatal = [line for line in gate.stdout.splitlines() if line.startswith("FATAL")]
    if (gate.returncode != 0) != (needle is not None) or any(needle not in f for f in fatal):
        sys.exit(f"FATAL: bench gate exits {gate.returncode} on {case or 'the undoctored docs'}:"
                 f"\n{gate.stdout}")
    print(f"bench gate self-test: {case or 'undoctored docs'}: exit {gate.returncode}")
EOF

echo "== resume smoke (streaming and worldscale: kill at chunk 2 mid-write, resume, fingerprint vs uninterrupted run) =="
./target/release/resume_smoke

echo "ci.sh: all green"
