#!/usr/bin/env bash
# Distributed-null smoke test: scatter a cold permutation null across two
# real `sigrule serve` workers over loopback TCP and prove the merged
# answer is byte-identical to a single-process run.
#
# Usage:
#   scripts/distributed_smoke.sh [binary]   # default: target/release/sigrule
#
# Exercised end to end: ephemeral-port workers (ready-line parsing), the
# coordinator's dataset-load replay, the perm_shard scatter and merge (at
# the default thread count and pinned to one local thread), the
# worker-side registry_stats counters proving remote shards actually ran,
# and a clean shutdown drain on both workers.  The JSON reports are
# compared byte for byte after normalising the wall-clock fields (summary
# load_ms/mine_ms and the table's trailing time_ms cells) — every
# statistic, count and p-value must match exactly.  Healthy workers must
# never be reported lost.

set -euo pipefail

BIN="${1:-target/release/sigrule}"
FIXTURE="tests/fixtures/retail_toy.basket"
WORKDIR="$(mktemp -d)"
W1_PID=""
W2_PID=""
trap 'kill "$W1_PID" "$W2_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

[ -x "$BIN" ] || { echo "error: $BIN not built (cargo build --release)"; exit 1; }

# Spawns one worker on an ephemeral port and echoes its bound address
# (parsed from the machine-readable ready line).
await_ready() { # <ready-file>
  for _ in $(seq 1 100); do
    [ -s "$1" ] && break
    sleep 0.1
  done
  sed -nE 's/.*"listening":"([^"]+)".*/\1/p' "$1" | head -n1
}

"$BIN" serve --listen tcp:127.0.0.1:0 >"$WORKDIR/w1.out" 2>"$WORKDIR/w1.err" &
W1_PID=$!
"$BIN" serve --listen tcp:127.0.0.1:0 >"$WORKDIR/w2.out" 2>"$WORKDIR/w2.err" &
W2_PID=$!
W1_ADDR="$(await_ready "$WORKDIR/w1.out")"
W2_ADDR="$(await_ready "$WORKDIR/w2.out")"
[ -n "$W1_ADDR" ] && [ -n "$W2_ADDR" ] || { echo "error: workers never became ready"; exit 1; }
echo "workers: $W1_ADDR $W2_ADDR"

ARGS=(correct --input "$FIXTURE" --min-sup 8 --permutations 400 --seed 17 --format json)
"$BIN" "${ARGS[@]}" --workers "$W1_ADDR,$W2_ADDR" \
  >"$WORKDIR/dist.json" 2>"$WORKDIR/dist.err"
# The one-local-thread shape: the local share runs on the calling thread.
"$BIN" "${ARGS[@]}" --threads 1 --workers "$W1_ADDR,$W2_ADDR" \
  >"$WORKDIR/dist1.json" 2>"$WORKDIR/dist1.err"
"$BIN" "${ARGS[@]}" >"$WORKDIR/plain.json"

# Both workers are healthy: no range may have been lost or re-dispatched.
for ERR in "$WORKDIR/dist.err" "$WORKDIR/dist1.err"; do
  if grep -E 'lost|re-dispatched' "$ERR"; then
    echo "error: a healthy worker was reported lost ($ERR)"
    exit 1
  fi
done

# Timings are the only permitted difference: summary load_ms/mine_ms and
# the comparison table's trailing per-method time_ms cell (always the last
# cell of a row, always a plain decimal — cutoffs use e-notation and are
# untouched).
normalize() {
  sed -E 's/"(load|mine)_ms":"[0-9.]+"/"\1_ms":"-"/g; s/,"[0-9]+\.[0-9]+"\]/,"-"]/g' "$1"
}
normalize "$WORKDIR/plain.json" >"$WORKDIR/plain.norm"
for RUN in dist dist1; do
  normalize "$WORKDIR/$RUN.json" >"$WORKDIR/$RUN.norm"
  if ! diff -u "$WORKDIR/plain.norm" "$WORKDIR/$RUN.norm"; then
    echo "error: distributed answer ($RUN) diverged from the single-process run"
    exit 1
  fi
done

# At least one shard must have actually run remotely: perm_shard mines the
# replayed dataset on the worker, ticking its mine_misses counter.
MISSES=0
for ADDR in "$W1_ADDR" "$W2_ADDR"; do
  M=$(printf '%s\n' '{"cmd":"registry_stats"}' | "$BIN" client --connect "$ADDR" \
    | tr ',' '\n' | sed -nE 's/.*"mine_misses":([0-9]+).*/\1/p' \
    | awk '{s+=$1} END {print s+0}')
  echo "worker $ADDR mine_misses=$M"
  MISSES=$((MISSES + M))
done
if [ "$MISSES" -lt 1 ]; then
  echo "error: no shard ran on any worker (mine_misses=$MISSES)"
  exit 1
fi

# Clean drain: both workers acknowledge shutdown and exit 0.
for ADDR in "$W1_ADDR" "$W2_ADDR"; do
  printf '%s\n' '{"cmd":"shutdown"}' | "$BIN" client --connect "$ADDR" >/dev/null
done
wait "$W1_PID"
wait "$W2_PID"
W1_PID=""
W2_PID=""

echo "distributed smoke OK: byte-identical answers, $MISSES remote mine(s), clean drain"
