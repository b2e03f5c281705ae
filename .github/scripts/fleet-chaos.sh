#!/usr/bin/env bash
# fleet-chaos: the CI gate for the sharded fleet's survival story.
#
# Boots a router plus a 3-replica fleet — every listener on an
# ephemeral port (-addr :0), discovered from the "listening on" stdout
# line — drives the churny workload through the proxy tier with the
# binary-transport fleet driver, then kill -9's the replica that owns
# the scenario's deployment mid-run. The load run must exit 0: the
# router's health loop re-shards, pushes the deployment's snapshot to
# a survivor, and the driver's retry-with-remap loop masks the outage,
# so a single failed request fails this script. Afterwards the
# wasn_fleet_* exposition contract is gated with -check-metrics -fleet,
# the control-plane journal must show the leave/reshard/restore, and a
# short steady run of the plain http driver through the router's proxy
# tier must also finish without a request error.
#
# Usage: fleet-chaos.sh [path-to-wasnd]   (default ./wasnd)
set -euo pipefail

WASND=${1:-./wasnd}
DEPLOYMENT=FA-300-42 # -model fa -n 300 -seed 42 below
LOGDIR=fleet-chaos-logs
rm -rf "$LOGDIR"
mkdir -p "$LOGDIR"

cleanup() {
  # shellcheck disable=SC2046
  kill $(jobs -p) 2>/dev/null || true
}
trap cleanup EXIT

wait_for() { # wait_for <tries> <sleep> <desc> <cmd...>
  local tries=$1 pause=$2 desc=$3
  shift 3
  for _ in $(seq 1 "$tries"); do
    if "$@" >/dev/null 2>&1; then return 0; fi
    sleep "$pause"
  done
  echo "FAIL: timed out waiting for $desc" >&2
  return 1
}

listen_addr() { # parse the ":0 prints the chosen port" stdout contract
  sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$1" | head -1
}

# --- router ---------------------------------------------------------
"$WASND" -router -addr 127.0.0.1:0 \
  >"$LOGDIR/router.out" 2>"$LOGDIR/router.log" &
wait_for 100 0.1 "router listen line" grep -q 'listening on' "$LOGDIR/router.out"
ROUTER="http://$(listen_addr "$LOGDIR/router.out")"
echo "router: $ROUTER"

# --- 3 replicas, each with its own snapshot dir and binary port -----
declare -A REPLICA_PID
for r in r1 r2 r3; do
  mkdir -p "$LOGDIR/$r.snap"
  "$WASND" -addr 127.0.0.1:0 -join "$ROUTER" -replica-id "$r" \
    -snapshot-dir "$LOGDIR/$r.snap" -binary-port 0 \
    >"$LOGDIR/$r.out" 2>"$LOGDIR/$r.log" &
  REPLICA_PID[$r]=$!
done
three_alive() {
  [ "$(curl -sf "$ROUTER/stats" | grep -o '"alive":true' | wc -l)" = 3 ]
}
wait_for 100 0.1 "3 replicas joined" three_alive
echo "fleet up: $(curl -sf "$ROUTER/stats")"

# --- churny load through the fleet driver (binary transport) --------
"$WASND" -load -preset churn-storm -model fa -n 300 -seed 42 \
  -rate 600 -duration 12000 \
  -driver fleet -target "$ROUTER" -progress \
  >"$LOGDIR/load.out" 2>&1 &
LOAD_PID=$!

# Let the run deploy and settle, then murder the owning replica.
wait_for 100 0.1 "deployment owned" curl -sf "$ROUTER/owner?deployment=$DEPLOYMENT"
sleep 2
OWNER=$(curl -sf "$ROUTER/owner?deployment=$DEPLOYMENT" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
echo "killing owner $OWNER (pid ${REPLICA_PID[$OWNER]}) with SIGKILL mid-run"
kill -9 "${REPLICA_PID[$OWNER]}"

# The run must complete with zero request errors and no shed load —
# wasnd -load exits nonzero otherwise, which fails this script.
if ! wait "$LOAD_PID"; then
  echo "FAIL: load run reported errors during the re-shard" >&2
  tail -40 "$LOGDIR/load.out" >&2
  exit 1
fi
tail -12 "$LOGDIR/load.out"

# --- post-chaos assertions ------------------------------------------
new_owner() {
  curl -sf "$ROUTER/owner?deployment=$DEPLOYMENT" | grep -qv "\"id\":\"$OWNER\""
}
wait_for 50 0.1 "ownership moved off $OWNER" new_owner

STATS=$(curl -sf "$ROUTER/stats")
echo "post-chaos: $STATS"
if [ "$(echo "$STATS" | grep -o '"alive":true' | wc -l)" != 2 ]; then
  echo "FAIL: expected exactly 2 alive replicas after the kill" >&2
  exit 1
fi

EVENTS=$(curl -sf "$ROUTER/events")
for kind in leave reshard restore; do
  if ! echo "$EVENTS" | grep -q "\"$kind\""; then
    echo "FAIL: control-plane journal missing a $kind event" >&2
    echo "$EVENTS" >&2
    exit 1
  fi
done

# The fleet exposition contract (wasn_fleet_* families).
"$WASND" -check-metrics "$ROUTER/metrics" -fleet

# --- the plain http driver through the re-sharded fleet's proxy tier -
# Every call goes to the router, which forwards it to the owner. Like
# the chaos leg, a single request error fails this script.
if ! "$WASND" -load -preset steady -model fa -n 300 -seed 42 \
  -rate 400 -duration 2000 -driver http -target "$ROUTER" \
  >"$LOGDIR/http-load.out" 2>&1; then
  echo "FAIL: http driver through the proxy tier reported errors" >&2
  tail -40 "$LOGDIR/http-load.out" >&2
  exit 1
fi
tail -8 "$LOGDIR/http-load.out"

echo "fleet-chaos: delivery survived a SIGKILL re-shard"
