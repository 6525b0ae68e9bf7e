#!/bin/bash
# Smoke test for the gpsserve flight recorder: start the server with
# tracing and a 1 ns exemplar threshold, scrape /debug/trace (expecting
# the pipeline span names; the solve span is named after the configured
# solver, DLG in its default fast variant), /debug/trace/chrome
# (expecting a loadable trace_event document), and
# /debug/trace/exemplars, then replay the captured exemplars through
# gpsrun -replay. Exits non-zero on any miss.
set -euo pipefail

GO=${GO:-go}
workdir=$(mktemp -d)
log="$workdir/gpsserve.log"
serve="$workdir/gpsserve"
run="$workdir/gpsrun"

cleanup() {
    [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

"$GO" build -o "$serve" ./cmd/gpsserve
"$GO" build -o "$run" ./cmd/gpsrun

# A 1 ns slow threshold turns every fix into an exemplar, so the replay
# leg always has material to work with.
"$serve" -station YYR1 -solver dlg -rate 50 -addr 127.0.0.1:0 \
    -admin 127.0.0.1:0 -trace 128 -trace-slow 1ns >"$log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|^gpsserve: admin on http://\([^ ]*\).*|\1|p' "$log")
    [ -n "$addr" ] && break
    kill -0 "$pid" 2>/dev/null || { echo "gpsserve exited early:"; cat "$log"; exit 1; }
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "admin banner never appeared:"
    cat "$log"
    exit 1
fi

# Let the stream produce DLG fixes (DLG needs predictor warm-up first;
# until then the fallback chain's NR fixes carry the nmea/encode span).
traces=""
for _ in $(seq 1 50); do
    traces=$(curl -fsS "http://$addr/debug/trace")
    case $traces in
    *'"solve/dlg-fast"'*) break ;;
    esac
    sleep 0.1
done

status=0
for span in epoch/generate clock/predict solve/dlg-fast dop/compute nmea/encode broadcast; do
    case $traces in
    *"\"$span\""*) ;;
    *)
        echo "FAIL: /debug/trace missing span $span"
        status=1
        ;;
    esac
done

chrome=$(curl -fsS "http://$addr/debug/trace/chrome")
case $chrome in
*'"traceEvents"'*) ;;
*)
    echo "FAIL: /debug/trace/chrome is not a trace_event document"
    status=1
    ;;
esac

exemplars="$workdir/exemplars.json"
curl -fsS "http://$addr/debug/trace/exemplars" >"$exemplars"
if ! grep -q '"input"' "$exemplars"; then
    echo "FAIL: /debug/trace/exemplars captured nothing"
    status=1
elif ! "$run" -replay "$exemplars" >"$workdir/replay.log" 2>&1; then
    echo "FAIL: gpsrun -replay did not reproduce the captured fixes:"
    cat "$workdir/replay.log"
    status=1
fi

if [ "$status" -eq 0 ]; then
    echo "trace smoke OK ($addr; $(tail -1 "$workdir/replay.log"))"
fi
exit $status
