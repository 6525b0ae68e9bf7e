#!/bin/bash
# Smoke test for the gpsserve admin endpoint, in two phases:
#   1. single-receiver serving: scrape /metrics and /healthz and
#      assert the key solver, clock and serving metric families are exposed
#   2. engine mode with -journal and -incident-dir: assert the flight
#      journal and incident counters are exported
# Exits non-zero on any miss.
set -euo pipefail

GO=${GO:-go}
workdir=$(mktemp -d)
log="$workdir/gpsserve.log"
bin="$workdir/gpsserve"

cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$bin" ./cmd/gpsserve

# wait_admin: poll the startup banner ("gpsserve: admin on http://ADDR")
# for up to 5 s and echo the admin address.
wait_admin() {
    local a=""
    for _ in $(seq 1 50); do
        a=$(sed -n 's|^gpsserve: admin on http://\([^ ]*\).*|\1|p' "$log")
        [ -n "$a" ] && break
        kill -0 "$pid" 2>/dev/null || { echo "gpsserve exited early:" >&2; cat "$log" >&2; exit 1; }
        sleep 0.1
    done
    if [ -z "$a" ]; then
        echo "admin banner never appeared:" >&2
        cat "$log" >&2
        exit 1
    fi
    printf '%s' "$a"
}

status=0

# Phase 1: single-receiver serving.
"$bin" -station YYR1 -rate 10 -addr 127.0.0.1:0 -admin 127.0.0.1:0 >"$log" 2>&1 &
pid=$!
addr=$(wait_admin)

metrics=$(curl -fsS "http://$addr/metrics")
health=$(curl -sS "http://$addr/healthz")

for name in engine_solve_seconds engine_solve_failures_total \
    gps_clock_resets_total gpsserve_clients gpsserve_epochs_total; do
    if ! printf '%s\n' "$metrics" | grep -q "$name"; then
        echo "FAIL: /metrics missing $name"
        status=1
    fi
done
case $health in
*'"status"'*) ;;
*)
    echo "FAIL: /healthz returned no status: $health"
    status=1
    ;;
esac

kill "$pid" 2>/dev/null || true
wait "$pid" 2>/dev/null || true
pid=

# Phase 2: engine mode with the flight journal and incident capture on;
# the journal/incident counter families must register at startup.
: >"$log"
"$bin" -receivers 2 -station all -rate 50 -addr 127.0.0.1:0 -admin 127.0.0.1:0 \
    -journal "$workdir/flight.gpsj" -incident-dir "$workdir/incidents" >"$log" 2>&1 &
pid=$!
addr=$(wait_admin)

emetrics=$(curl -fsS "http://$addr/metrics")
for name in gps_journal_bytes_written_total gps_journal_fsyncs_total \
    engine_incidents_captured_total engine_incidents_dropped_total; do
    if ! printf '%s\n' "$emetrics" | grep -q "^$name"; then
        echo "FAIL: engine-mode /metrics missing $name"
        status=1
    fi
done
if ! printf '%s\n' "$emetrics" | grep '^gps_journal_bytes_written_total' | grep -qv ' 0$'; then
    echo "FAIL: flight journal wrote no bytes"
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "metrics smoke OK ($addr; healthz: $health; journal+incident counters exported)"
fi
exit $status
