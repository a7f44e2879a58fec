#!/usr/bin/env bash
# Metrics smoke test + exposition validator.
#
# Usage:
#   scripts/check_metrics.sh [binary] [tcp:HOST:PORT|unix:PATH]
#
# With no address: spawns its own `sigrule serve` (ephemeral loopback
# port, --slow-query-ms 0 so every query logs a slow-query record), runs
# one cold permutation `correct`, scrapes `{"cmd":"metrics"}`, validates
# the Prometheus exposition, asserts the structured slow-query record
# appeared on stderr, cross-checks the scrape against the `stats` and
# `registry_stats` counters, and drains the server.  With an address: validates
# a scrape of that already-running server instead (no session driven).
#
# Exposition checks: every required family has exactly one HELP line and
# a TYPE line with a valid kind, every sample belongs to a declared
# family, and every histogram series ends its buckets at le="+Inf".

set -euo pipefail

BIN="target/release/sigrule"
ADDR=""
for arg in "$@"; do
  case "$arg" in
    tcp:* | unix:*) ADDR="$arg" ;;
    *) BIN="$arg" ;;
  esac
done

FIXTURE="tests/fixtures/retail_toy.basket"
WORKDIR="$(mktemp -d)"
SRV_PID=""
trap 'kill "$SRV_PID" 2>/dev/null || true; rm -rf "$WORKDIR"' EXIT

[ -x "$BIN" ] || { echo "error: $BIN not built (cargo build --release)"; exit 1; }

if [ -z "$ADDR" ]; then
  SIGRULE_LOG=warn "$BIN" serve --listen tcp:127.0.0.1:0 --slow-query-ms 0 \
    >"$WORKDIR/srv.out" 2>"$WORKDIR/srv.err" &
  SRV_PID=$!
  for _ in $(seq 1 100); do
    [ -s "$WORKDIR/srv.out" ] && break
    sleep 0.1
  done
  ADDR="$(sed -nE 's/.*"listening":"([^"]+)".*/\1/p' "$WORKDIR/srv.out" | head -n1)"
  [ -n "$ADDR" ] || { echo "error: server never became ready"; exit 1; }
  echo "server: $ADDR"

  # One cold permutation correct so the scrape has cache misses, phase
  # histograms and kernel sweeps to show.
  "$BIN" client --connect "$ADDR" >"$WORKDIR/session.out" <<EOF
{"id":1,"cmd":"load","path":"$FIXTURE","name":"ci"}
{"id":2,"cmd":"correct","dataset":"ci","min_sup":8,"correction":"permutation","permutations":80,"seed":17,"top":3}
EOF
  grep -q '"id":2,.*"ok":true' "$WORKDIR/session.out" \
    || { echo "error: cold correct failed"; cat "$WORKDIR/session.out"; exit 1; }
fi

printf '%s\n' '{"cmd":"metrics"}' | "$BIN" client --connect "$ADDR" \
  >"$WORKDIR/metrics.out"
grep -q '"ok":true' "$WORKDIR/metrics.out" \
  || { echo "error: metrics request failed"; cat "$WORKDIR/metrics.out"; exit 1; }

# Pull the exposition out of the response line (the body string, with
# JSON escapes intact) and unescape it.
sed -E 's/.*"body":"(([^"\\]|\\.)*)".*/\1/' "$WORKDIR/metrics.out" \
  | sed 's/\\n/\n/g; s/\\"/"/g' >"$WORKDIR/exposition.txt"

awk '
  /^# HELP / {
    fam = $3
    if (fam in help) { print "error: duplicate HELP for " fam; bad = 1 }
    help[fam] = 1; next
  }
  /^# TYPE / {
    fam = $3; kind = $4
    if (!(fam in help)) { print "error: TYPE before HELP for " fam; bad = 1 }
    if (fam in type) { print "error: duplicate TYPE for " fam; bad = 1 }
    if (kind != "counter" && kind != "gauge" && kind != "histogram") {
      print "error: bad kind " kind " for " fam; bad = 1
    }
    type[fam] = kind; next
  }
  /^#/ { next }
  /le="\+Inf"/ { b = $1; sub(/\{.*/, "", b); sub(/_bucket$/, "", b); inf[b] = 1 }
  NF {
    name = $1; sub(/\{.*/, "", name)
    base = name
    sub(/_(bucket|sum|count)$/, "", base)
    if (!(name in type) && !(base in type && type[base] == "histogram")) {
      print "error: sample " name " has no declared family"; bad = 1
    }
    samples[name in type ? name : base] = 1
  }
  END {
    n = split("sigrule_queries_total sigrule_cache_hits_total " \
              "sigrule_cache_misses_total sigrule_cache_evictions_total " \
              "sigrule_query_phase_seconds sigrule_cache_resident_bytes " \
              "sigrule_shards_total sigrule_kernel_sweeps_total", req, " ")
    for (i = 1; i <= n; i++) {
      if (!(req[i] in help)) { print "error: missing family " req[i]; bad = 1 }
      if (!(req[i] in samples)) { print "error: no samples for " req[i]; bad = 1 }
    }
    for (fam in type) {
      if (type[fam] == "histogram" && !inf[fam]) {
        print "error: histogram " fam " has no +Inf bucket"; bad = 1
      }
    }
    exit bad
  }
' "$WORKDIR/exposition.txt" || { echo "error: exposition invalid"; exit 1; }

FAMILIES=$(grep -c '^# HELP ' "$WORKDIR/exposition.txt")
echo "exposition OK: $FAMILIES families"

if [ -n "$SRV_PID" ]; then
  # The scrape renders the same atomics the stats surfaces read, so on the
  # quiet self-spawned server each pair below must agree exactly.
  "$BIN" client --connect "$ADDR" >"$WORKDIR/stats.out" <<EOF
{"id":"s","cmd":"stats","dataset":"ci"}
{"id":"r","cmd":"registry_stats"}
EOF
  field() { # field ID NAME: a numeric field of the response with that id
    grep "\"id\":\"$1\"" "$WORKDIR/stats.out" | sed -nE "s/.*\"$2\":([0-9]+).*/\1/p"
  }
  sample() { # sample SERIES: the value of one exposition sample
    grep -F "$1 " "$WORKDIR/exposition.txt" | awk '{ print $2 }'
  }
  same() { # same WHAT SCRAPED REPORTED
    [ -n "$2" ] && [ "$2" = "$3" ] \
      || { echo "error: $1: scrape says '$2', stats says '$3'"; exit 1; }
  }
  same queries "$(sample 'sigrule_queries_total{dataset="ci"}')" "$(field s queries)"
  same null_misses "$(sample 'sigrule_cache_misses_total{cache="null",dataset="ci"}')" \
    "$(field s null_misses)"
  SWEEPS="$(field r batched_sweeps)"
  same batched_sweeps "$(sample 'sigrule_kernel_sweeps_total{mode="batched"}')" "$SWEEPS"
  [ "$SWEEPS" -gt 0 ] || { echo "error: no batched sweeps counted"; exit 1; }
  echo "scrape matches stats OK (queries, null_misses, batched_sweeps=$SWEEPS)"

  # --slow-query-ms 0 means the cold correct must have logged one
  # structured slow-query record (warn passes the default filter).
  grep -q '"target":"sigrule::serve::slow","msg":"slow query"' "$WORKDIR/srv.err" \
    || { echo "error: no slow-query record on stderr"; cat "$WORKDIR/srv.err"; exit 1; }
  echo "slow-query record OK"

  printf '%s\n' '{"cmd":"shutdown"}' | "$BIN" client --connect "$ADDR" >/dev/null
  wait "$SRV_PID"
  SRV_PID=""
fi

echo "metrics check OK"
