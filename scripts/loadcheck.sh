#!/usr/bin/env bash
# Fan-in gate: a scaled-down seeded load-generator run through real
# sockets against the event-driven controller plane.
#
# Usage: scripts/loadcheck.sh [--full]
#
# The deterministic schedule (bate_sim::loadgen, seed 7) drives a steady +
# bursty submission mix through pipelined clients; the bench itself
# asserts the throughput floor and that every submission landed one
# observation in the bate_admission_latency_us histogram (the controller
# decides each submit as it arrives, with no LP solve on that path).
#
# The default scaled run (30k/min offered over a 2s schedule, 20k/min
# floor) finishes in seconds and is deterministic in the schedule it
# offers; the wall-clock side (and so the exact achieved rate) is real
# time, which is why the floor sits well under the offered rate.
#
# --full additionally runs the full-scale bench (120k/min target, 100k
# floor) and rewrites BENCH_load.json at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== loadgen: scaled seeded run (floor 20k/min) =="
cargo bench -q --offline -p bate-bench --bench loadgen -- \
    --per-min 30000 --secs 2 --floor 20000

if [[ "${1:-}" == "--full" ]]; then
    echo "== loadgen: full-scale run (floor 100k/min) =="
    cargo bench -q --offline -p bate-bench --bench loadgen -- --emit-json
    echo "== BENCH_load.json =="
    cat BENCH_load.json
fi

echo "OK: load-generator floors held"
