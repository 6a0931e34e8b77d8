#!/usr/bin/env python3
# The bench gate: checks fresh BENCH_*.json documents against one rule
# table, comparing values with the committed baselines where a rule does.
#
#   python3 bench_gate.py FRESH_DIR [BASELINE_DIR]
#
# Prints one line per check and exits 1 if any check is fatal; a missing
# baseline document skips its comparisons. Rule kinds:
#   exists      the value must be present (fatal)
#   floor       the value must be at least the limit (fatal)
#   fatal-rise  a rise over the baseline by more than the limit is fatal
#   warn-rise   a rise over the baseline by more than the limit warns
#   warn-fall   a fall under the baseline by more than the limit warns
# Rows: "" or a dotted path picks one object of the document,
# "runs[threads=1]" the run with that field value, "runs[*]" every run and
# "runs[last]" the largest run both documents share; runs pair with the
# baseline's by (threads, users, segment_users). Values are dotted paths
# into a row; inside a profile, a step names a layer ("profile.study").
# A warning prints the value's spread over its repeats, which a row keeps
# under "spread" by the value's path.
import json
import math
import os
import sys

POSITIVE = math.ulp(0.0)  # a floor at the smallest float: the value is > 0
PIPE, NETFLOW, WORLD = "BENCH_pipeline.json", "BENCH_netflow.json", "BENCH_worldscale.json"
SEQ = "runs[threads=1]"
RULES = [
    (PIPE, SEQ, "", "exists", None),
    (PIPE, "streaming", "streaming_ckpt_ms", "exists", None),
    (PIPE, SEQ, "profile.study.allocs", "fatal-rise", 0.20),
    (PIPE, SEQ, "pipeline_ms", "warn-rise", 0.20),
    *[(PIPE, SEQ, f"profile.{layer}.wall_ms", "warn-rise", 0.20)
      for layer in ("study", "classify", "geolocate", "netflow/generate", "netflow/match")],
    *[(PIPE, "streaming", value, "warn-rise", 0.20)
      for value in ("streaming_ms", "streaming_ckpt_ms", "incremental_classify_ms",
                    "profile.ingest/snapshot.wall_ms", "classify_overhead_vs_batch_pct",
                    "checkpoint_overhead_ms")],
    (PIPE, "rule_engine", "build_ms", "warn-rise", 0.20),
    (PIPE, "rule_engine", "engine_match_ms", "warn-rise", 0.20),
    (NETFLOW, "", "netflow_records_per_sec", "floor", POSITIVE),
    (NETFLOW, "", "oracle.speedup_vs_oracle", "floor", 5.0),
    (NETFLOW, "", "netflow_records_per_sec", "warn-fall", 0.20),
    (WORLD, "", "worldscale_users_per_sec", "floor", POSITIVE),
    (WORLD, "runs[*]", "vm_hwm_bytes", "floor", POSITIVE),
    (WORLD, "runs[*]", "vm_hwm_bytes", "fatal-rise", 0.20),
    (WORLD, "runs[last]", "users_per_sec", "warn-fall", 0.20),
]


def get(node, path):
    for step in filter(None, path.split(".")):
        if isinstance(node, list):
            node = next((n for n in node if isinstance(n, dict) and n.get("path") == step), None)
        else:
            node = node.get(step) if isinstance(node, dict) else None
    return node


def rows(doc, sel):
    if not sel.startswith("runs["):
        row = get(doc, sel)
        return [(sel, row)] if isinstance(row, dict) else []
    runs = [r for r in get(doc, "runs") or [] if isinstance(r, dict)]
    keyed = sorted(((tuple(r.get(k) or 0 for k in ("threads", "users", "segment_users")), r)
                    for r in runs), key=lambda kr: kr[0])
    field, _, value = sel[5:-1].partition("=")
    return [kr for kr in keyed if not value or str(kr[1].get(field)) == value]


def show(x):
    return f"{x:,}" if isinstance(x, int) else f"{x:,.1f}"


def check(docs, bases):
    fatal = []
    for name, sel, path, kind, limit in RULES:
        doc, base = docs[name], bases.get(name)
        picked, base_rows = rows(doc, sel), dict(rows(base, sel)) if base else {}
        if sel == "runs[last]":
            picked = [kr for kr in picked if kr[0] in base_rows][-1:]
        if not picked and kind in ("exists", "floor"):
            fatal.append(f"{name}: no {sel or 'document'} rows")
        for key, row in picked:
            at = f"@{key}" if sel in ("runs[*]", "runs[last]") else ""
            label = " ".join(filter(None, (name, sel + at, path)))
            n = get(row, path)
            if kind in ("exists", "floor"):
                below = kind == "floor" and not (isinstance(n, (int, float)) and n >= limit)
                if n is None or below:
                    fatal.append(f"{label}: {n!r} fails {kind} {limit if below else ''}")
                continue
            o = get(base_rows.get(key), path)
            if o is None or n is None or o <= 0:
                print(f"bench gate: {label}: no comparable baseline; skipping")
                continue
            change = n / o - 1
            if (change > limit) if kind.endswith("rise") else (change < -limit):
                spreads = [get(r, "spread") or {} for r in (base_rows.get(key), row)]
                spread = " / ".join("..".join(map(show, s.get(path, []))) or "n/a"
                                    for s in spreads)
                line = f"{label} moved >{limit:.0%}: {show(o)} -> {show(n)} ({change:+.0%})"
                if kind.startswith("fatal"):
                    fatal.append(line)
                else:
                    print(f"WARNING: {line}; spread over repeats baseline / fresh: {spread}")
            else:
                print(f"bench gate: {label} {show(o)} -> {show(n)} ({change:+.0%}), "
                      f"within the {limit:.0%} budget")
    return fatal


def main(fresh_dir, base_dir=None):
    docs, bases, fatal = {}, {}, []
    for name in (PIPE, NETFLOW, WORLD):
        paths = [(docs, os.path.join(fresh_dir, name))]
        if base_dir and os.path.exists(os.path.join(base_dir, name)):
            paths.append((bases, os.path.join(base_dir, name)))
        for into, path in paths:
            try:
                with open(path) as f:
                    into[name] = json.load(f)
            except (OSError, ValueError) as e:
                fatal.append(f"{path} missing or unparseable: {e}")
    fatal = fatal or check(docs, bases)
    for line in fatal:
        print(f"FATAL: {line}")
    print("bench gate: " + ("FAILED" if fatal else "ok"))
    return 1 if fatal else 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:3]))
