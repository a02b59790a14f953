#!/bin/sh
# Tier-1 check: compile sweep, tracked-bytecode guard, full test suite,
# then the static verification gate (protocol model checker + structural
# checks + simulation-safety linter; see docs/VERIFY.md).
#
# Usage: scripts/check.sh [extra pytest args]
# e.g.:  scripts/check.sh -m telemetry
set -eu
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src examples benchmarks

echo "== no tracked bytecode =="
if git ls-files | grep -E '(__pycache__|\.py[co]$)' >/dev/null 2>&1; then
    echo "error: compiled bytecode is tracked by git:" >&2
    git ls-files | grep -E '(__pycache__|\.py[co]$)' >&2
    echo "run: git rm -r --cached <paths> (see .gitignore)" >&2
    exit 1
fi

echo "== pytest =="
python -m pytest -x -q "$@"

echo "== static verification (firefly-sim verify) =="
python -m repro.cli verify --all-protocols

echo "== bench smoke + overhead gate (firefly-sim bench --jobs 2) =="
# Quick suite with two parallel workers into a scratch dir: proves the
# deterministic trial executor end-to-end and enforces the <=2%
# disabled-telemetry overhead budget (no --skip-overhead: a breach
# fails this script).  Nothing touches BENCH_*.json at the repo root.
BENCH_TMP=$(mktemp -d)
trap 'rm -rf "$BENCH_TMP"' EXIT
python -m repro.cli bench --quick --trials 1 --jobs 2 \
    --scenario exerciser-1cpu --scenario table1-sweep \
    --scenario core-microbench \
    --out-dir "$BENCH_TMP"

echo "== bench regression gate vs committed baseline =="
# The scheduler-only microbenchmark compared against the newest
# committed BENCH_*.json at the repo root.  Its 328 processes are always
# queued behind one another, so no wake-up there is ever the next event
# and direct dispatch never fires: this guards the event core's heap
# path only (the machine scenarios cover the direct path).  The
# committed baselines are full-mode runs from a different host, so the
# threshold is deliberately loose (the noise-aware margin widens it
# further) — it catches order-of-magnitude scheduler breakage, not
# single-digit host drift.
python -m repro.cli bench --quick --trials 1 \
    --scenario core-microbench \
    --skip-overhead --out-dir "$BENCH_TMP" \
    --baseline-dir . --compare --threshold 0.6

echo "== chaos smoke (firefly-sim chaos --jobs 2) =="
# One quick seeded fault campaign: proves every recovery path end to
# end (see docs/FAULTS.md); exits nonzero if any scenario fails.  Run
# twice at different job counts and require byte-identical reports:
# both job counts go through the one scenario executor, in-process at
# --jobs 1 and over worker processes at --jobs 2.
python -m repro.cli chaos --quick --scenario bus-parity \
    --scenario cpu-offline --jobs 2 --json "$BENCH_TMP/chaos-j2.json"
python -m repro.cli chaos --quick --scenario bus-parity \
    --scenario cpu-offline --jobs 1 --json "$BENCH_TMP/chaos-j1.json" \
    >/dev/null
cmp "$BENCH_TMP/chaos-j2.json" "$BENCH_TMP/chaos-j1.json"

echo "== serve smoke + SLO gate (firefly-sim serve --jobs 2) =="
# One quick open-loop serving scenario under the resilience layer: the
# SLO gate exits nonzero on a p99 or success-rate breach (see
# docs/SERVING.md).  Run twice at different job counts and require
# byte-identical reports — the serving layer's determinism contract.
SERVE_TMP=$(mktemp -d)
trap 'rm -rf "$BENCH_TMP" "$SERVE_TMP"' EXIT
SERVE_OUT="${ARTIFACTS_DIR:-$SERVE_TMP}/serve.json"
python -m repro.cli serve --quick --scenario steady-poisson \
    --jobs 2 --json "$SERVE_OUT" --force
python -m repro.cli serve --quick --scenario steady-poisson \
    --jobs 1 --json "$SERVE_TMP/serve-j1.json" --force >/dev/null
cmp "$SERVE_OUT" "$SERVE_TMP/serve-j1.json"

echo "== campaign smoke (firefly-sim campaign run + report) =="
# The quick example campaign through the resumable ledger into a
# scratch store (golden digests included — drift exits nonzero), then
# the HTML dashboard over the committed BENCH trajectory plus that
# ledger (see docs/CAMPAIGNS.md).
CAMPAIGN_TMP=$(mktemp -d)
trap 'rm -rf "$BENCH_TMP" "$SERVE_TMP" "$CAMPAIGN_TMP"' EXIT
python -m repro.cli campaign run examples/campaigns/quick.yaml \
    --jobs 2 --store-dir "$CAMPAIGN_TMP/store" \
    --report "$CAMPAIGN_TMP/report.json"
python -m repro.cli campaign report --bench-dir . \
    --store-dir "$CAMPAIGN_TMP/store" --out "$CAMPAIGN_TMP/dashboard.html"

echo "== postmortem smoke (firefly-sim postmortem) =="
# Induce the pinned AB/BA deadlock, capture the firefly-crash/1 report
# and render it (see docs/CAUSAL.md).  The grep pins the acceptance
# criterion: the postmortem names the exact wait-for cycle.  The crash
# JSON lands in ARTIFACTS_DIR when CI exports one (kept as an artifact),
# else in the scratch dir.
CRASH_OUT="${ARTIFACTS_DIR:-$CAMPAIGN_TMP}/crash.json"
python -m repro.cli postmortem --scenario deadlock \
    --json "$CRASH_OUT" --force | tee "$CAMPAIGN_TMP/postmortem.txt"
grep -q "wait-for cycle" "$CAMPAIGN_TMP/postmortem.txt"
grep -q "left-fork waits on lock:fork-b held by right-fork" \
    "$CAMPAIGN_TMP/postmortem.txt"
python -m repro.cli postmortem "$CRASH_OUT" >/dev/null
