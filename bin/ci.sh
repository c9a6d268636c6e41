#!/bin/sh
# One-command tier-1 verification: build, tests, and (when the formatter is
# installed) formatting. CI and pre-commit hooks should run exactly this.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build"
dune build

echo "== dune runtest"
# Includes the Gc ground-truth oracle (test_model_hot "gc oracle"): the
# SA070 static verdict and the measured minor-heap words must agree, in
# both directions, or the suite fails.
dune runtest

echo "== lint (srclint source scan over lib/, bin/ and bench/)"
dune exec bin/lint_src.exe -- lib bin bench

echo "== sunstone check --src (the same scan through the CLI, JSON path)"
dune exec bin/sunstone_cli.exe -- check --src --json >/dev/null

echo "== srclint injection (every daemon-era and hot-path rule must fire on its fixture)"
# The linter itself is gated the same way as the audit oracles: each
# deliberately-bad fixture must turn the exit code non-zero, or the rule
# is vacuous. The fixtures are never compiled, only lexed by the linter.
for fixture in sa060_block sa061_fd sa062_signal sa063_det sa064_swallow \
  sa070_hot sa071_io sa072_rec sa073_unresolved sa074_stale; do
  if dune exec bin/lint_src.exe -- --unscoped "test/fixtures/srclint/$fixture.ml" >/dev/null 2>&1; then
    echo "srclint injection: $fixture.ml did not fail the lint" >&2
    exit 1
  fi
done
echo "srclint injection: ok (all 10 injected faults detected)"

echo "== srclint cross-module (interprocedural passes see across files)"
# The whole point of the project-graph passes: the root file of each pair
# is provably clean on its own (the old per-file analysis finds nothing)
# and the hazard only appears when the directory scan resolves the dotted
# call into the sibling module.
for pair in sa060_cross:feeder sa070_cross:ticker; do
  dir=${pair%%:*}
  root=${pair##*:}
  if ! dune exec bin/lint_src.exe -- --unscoped "test/fixtures/srclint/$dir/$root.ml" >/dev/null 2>&1; then
    echo "srclint cross-module: $dir/$root.ml alone was flagged (single-file scan should be clean)" >&2
    exit 1
  fi
  if dune exec bin/lint_src.exe -- --unscoped "test/fixtures/srclint/$dir" >/dev/null 2>&1; then
    echo "srclint cross-module: $dir did not fail the whole-directory lint" >&2
    exit 1
  fi
done
echo "srclint cross-module: ok (both pairs clean alone, caught together)"

echo "== sunstone check (static analysis over the registry)"
dune exec bin/sunstone_cli.exe -- check --admissibility

echo "== sunstone audit (differential pruning oracles + unit lint)"
dune exec bin/sunstone_cli.exe -- audit --kernels 3

echo "== audit injection (a broken pruning rule must fail the audit)"
# The auditor itself is gated: deliberately breaking a pruning rule through
# the test hook must turn the exit code non-zero, or the oracle is vacuous.
for rule in order frontier; do
  if dune exec bin/sunstone_cli.exe -- audit --kernels 1 --inject "$rule" >/dev/null 2>&1; then
    echo "audit injection: --inject $rule did not fail the audit" >&2
    exit 1
  fi
done
echo "audit injection: ok (both injected faults detected)"

echo "== batch --jobs parity (sequential vs 4 workers, mixed fixture)"
# The parallel pipeline must produce byte-identical, order-preserving
# responses: same bytes as --jobs 1 on the mixed valid/illegal/malformed
# fixture, modulo the inherently nondeterministic wall_s timings.
PARITY_TMP=$(mktemp -d)
trap 'rm -rf "$PARITY_TMP"' EXIT
set +e
dune exec bin/sunstone_cli.exe -- batch -i test/fixtures/batch_mixed.jsonl \
  -o "$PARITY_TMP/seq.jsonl" --cache-dir "$PARITY_TMP/cache-seq" --jobs 1 2>/dev/null
seq_rc=$?
dune exec bin/sunstone_cli.exe -- batch -i test/fixtures/batch_mixed.jsonl \
  -o "$PARITY_TMP/par.jsonl" --cache-dir "$PARITY_TMP/cache-par" --jobs 4 2>/dev/null
par_rc=$?
set -e
if [ "$seq_rc" -ne "$par_rc" ]; then
  echo "batch parity: exit codes differ (--jobs 1: $seq_rc, --jobs 4: $par_rc)" >&2
  exit 1
fi
sed -E 's/"wall_s":[-+0-9.eE]+/"wall_s":0/g' "$PARITY_TMP/seq.jsonl" >"$PARITY_TMP/seq.norm"
sed -E 's/"wall_s":[-+0-9.eE]+/"wall_s":0/g' "$PARITY_TMP/par.jsonl" >"$PARITY_TMP/par.norm"
if ! diff -u "$PARITY_TMP/seq.norm" "$PARITY_TMP/par.norm"; then
  echo "batch parity: --jobs 4 output differs from --jobs 1" >&2
  exit 1
fi
echo "batch parity: ok ($(wc -l <"$PARITY_TMP/seq.norm" | tr -d ' ') responses identical)"

echo "== telemetry counter parity (--metrics at --jobs 1 vs --jobs 4)"
# Workers ship their telemetry back as snapshots merged by the parent, so
# the optimizer/model/serve counter totals must not depend on the worker
# count. parpool.* (parent-only, no pool at --jobs 1) and histograms
# (deferred requests re-classify in parallel mode) are excluded by the grep.
set +e
dune exec bin/sunstone_cli.exe -- batch -i test/fixtures/batch_mixed.jsonl \
  -o /dev/null --cache-dir "$PARITY_TMP/cache-tel-seq" --jobs 1 \
  --metrics "$PARITY_TMP/seq-metrics.json" 2>/dev/null
dune exec bin/sunstone_cli.exe -- batch -i test/fixtures/batch_mixed.jsonl \
  -o /dev/null --cache-dir "$PARITY_TMP/cache-tel-par" --jobs 4 \
  --metrics "$PARITY_TMP/par-metrics.json" 2>/dev/null
set -e
# counter lines are `"name": N`; histogram lines carry a `{` payload
grep -E '"(optimizer|model|serve)\.' "$PARITY_TMP/seq-metrics.json" | grep -v '{' >"$PARITY_TMP/seq-counters"
grep -E '"(optimizer|model|serve)\.' "$PARITY_TMP/par-metrics.json" | grep -v '{' >"$PARITY_TMP/par-counters"
if ! diff -u "$PARITY_TMP/seq-counters" "$PARITY_TMP/par-counters"; then
  echo "telemetry parity: --jobs 4 counter totals differ from --jobs 1" >&2
  exit 1
fi
echo "telemetry parity: ok ($(wc -l <"$PARITY_TMP/seq-counters" | tr -d ' ') counters identical)"

echo "== serve daemon (live replay parity, warm cache, SIGHUP, SIGTERM drain)"
# The daemon must answer a cold replay of the mixed fixture byte-identically
# (modulo wall_s) to batch --jobs 1, serve the second replay entirely from
# the warm cache, re-open its metrics file on SIGHUP, and drain cleanly on
# SIGTERM: exit 0 with a final metrics snapshot written.
SUNSTONE=_build/default/bin/sunstone_cli.exe
SOCK="$PARITY_TMP/sunstone.sock"
"$SUNSTONE" serve --listen "unix:$SOCK" --jobs 2 \
  --cache-dir "$PARITY_TMP/cache-daemon" \
  --metrics "$PARITY_TMP/daemon-metrics.json" 2>"$PARITY_TMP/daemon.log" &
DAEMON_PID=$!
trap 'kill "$DAEMON_PID" 2>/dev/null; rm -rf "$PARITY_TMP"' EXIT
i=0
while ! [ -S "$SOCK" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve daemon: socket never appeared" >&2
    cat "$PARITY_TMP/daemon.log" >&2
    exit 1
  fi
  sleep 0.05
done
"$SUNSTONE" client --connect "unix:$SOCK" \
  -i test/fixtures/batch_mixed.jsonl -o "$PARITY_TMP/daemon.jsonl"
sed -E 's/"wall_s":[-+0-9.eE]+/"wall_s":0/g' "$PARITY_TMP/daemon.jsonl" >"$PARITY_TMP/daemon.norm"
if ! diff -u "$PARITY_TMP/seq.norm" "$PARITY_TMP/daemon.norm"; then
  echo "serve daemon: cold replay differs from batch --jobs 1" >&2
  exit 1
fi
"$SUNSTONE" client --connect "unix:$SOCK" \
  -i test/fixtures/batch_mixed.jsonl -o "$PARITY_TMP/daemon2.jsonl"
if grep -q '"status":"computed"' "$PARITY_TMP/daemon2.jsonl"; then
  echo "serve daemon: second replay recomputed instead of hitting the warm cache" >&2
  exit 1
fi
rm -f "$PARITY_TMP/daemon-metrics.json"
kill -HUP "$DAEMON_PID"
i=0
while ! [ -s "$PARITY_TMP/daemon-metrics.json" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "serve daemon: SIGHUP did not re-create the metrics file" >&2
    exit 1
  fi
  sleep 0.05
done
kill -TERM "$DAEMON_PID"
set +e
wait "$DAEMON_PID"
daemon_rc=$?
set -e
trap 'rm -rf "$PARITY_TMP"' EXIT
if [ "$daemon_rc" -ne 0 ]; then
  echo "serve daemon: SIGTERM drain exited $daemon_rc, want 0" >&2
  cat "$PARITY_TMP/daemon.log" >&2
  exit 1
fi
if ! [ -s "$PARITY_TMP/daemon-metrics.json" ]; then
  echo "serve daemon: no final metrics snapshot after drain" >&2
  exit 1
fi
echo "serve daemon: ok (parity, warm replay, SIGHUP re-open, clean drain)"

echo "== transfer-off parity (SUNSTONE_TRANSFER=off vs committed golden fixture)"
# The warm-start kill switch must restore pre-transfer behavior exactly:
# with SUNSTONE_TRANSFER=off the batch pipeline's responses are pinned
# byte-identical (modulo wall_s) to the golden fixture generated before
# the transfer subsystem existed. Any drift in the cold path — seeded
# bounds, margins, refine changes leaking into unseeded searches — fails
# here.
set +e
SUNSTONE_TRANSFER=off dune exec bin/sunstone_cli.exe -- batch \
  -i test/fixtures/batch_mixed.jsonl \
  -o "$PARITY_TMP/transfer-off.jsonl" --cache-dir "$PARITY_TMP/cache-transfer-off" --jobs 1 2>/dev/null
set -e
sed -E 's/"wall_s":[-+0-9.eE]+/"wall_s":0/g' "$PARITY_TMP/transfer-off.jsonl" >"$PARITY_TMP/transfer-off.norm"
sed -E 's/"wall_s":[-+0-9.eE]+/"wall_s":0/g' test/fixtures/batch_mixed_expected.jsonl >"$PARITY_TMP/transfer-golden.norm"
if ! diff -u "$PARITY_TMP/transfer-golden.norm" "$PARITY_TMP/transfer-off.norm"; then
  echo "transfer-off parity: responses drifted from the pre-transfer golden fixture" >&2
  exit 1
fi
echo "transfer-off parity: ok ($(wc -l <"$PARITY_TMP/transfer-off.norm" | tr -d ' ') responses identical)"

echo "== srclint SA063 scope (lib/cost in, lib/arch out)"
# The hashtbl-order rule covers lib/serve and lib/cost. The same fixture
# must trip the scoped scanner under a lib/cost path and pass under
# lib/arch, proving the scope extension neither over- nor under-reaches.
mkdir -p "$PARITY_TMP/scope/lib/cost" "$PARITY_TMP/scope2/lib/arch"
cp test/fixtures/srclint/sa063_cost.ml "$PARITY_TMP/scope/lib/cost/"
cp test/fixtures/srclint/sa063_cost.ml "$PARITY_TMP/scope2/lib/arch/"
if dune exec bin/lint_src.exe -- "$PARITY_TMP/scope/lib" >/dev/null 2>&1; then
  echo "srclint scope: SA063 fixture under lib/cost was NOT flagged" >&2
  exit 1
fi
if ! dune exec bin/lint_src.exe -- "$PARITY_TMP/scope2/lib" >/dev/null 2>&1; then
  echo "srclint scope: SA063 fixture under lib/arch was flagged (overreach)" >&2
  exit 1
fi
echo "srclint scope: ok (SA063 fires in lib/cost, silent in lib/arch)"

# The correctness steps above this line run before the timing-bound bench
# steps below: a bench whose budget the host's noise breaks must not stop
# `set -eu` before the byte-parity and lint-scope checks have run.

echo "== bench serve-daemon (latency percentiles + warm hit rate)"
dune exec bench/main.exe -- serve-daemon

echo "== bench telemetry (overhead budget)"
dune exec bench/main.exe -- telemetry

echo "== bench lint (scan throughput >= 0.5x committed baseline, clean-tree gate)"
dune exec bench/main.exe -- lint

echo "== bench evaluate (cost-model hot path, >=2x gate on hardest kernel)"
dune exec bench/main.exe -- evaluate
if ! [ -s BENCH_evaluate.json ]; then
  echo "bench evaluate: BENCH_evaluate.json missing or empty" >&2
  exit 1
fi

echo "== bench transfer (warm >= 25% fewer evaluations, EDP equal-or-better per layer)"
# Cold vs steady-state warm over the ResNet-18 and Inception-v3 catalogs.
# The bench itself enforces the two acceptance gates (>= 25% fewer
# mappings evaluated on ResNet-18, per-layer warm EDP never worse than
# cold) and exits non-zero on either violation.
dune exec bench/main.exe -- transfer
if ! [ -s BENCH_transfer.json ]; then
  echo "bench transfer: BENCH_transfer.json missing or empty" >&2
  exit 1
fi

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

echo "== ok"
