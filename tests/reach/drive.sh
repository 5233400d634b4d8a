#!/usr/bin/env bash
# Reach gate: run every entry point under the reach recorder, then fail on
# any src/repro function that none of them called (see report.py).
#
#     bash tests/reach/drive.sh        # from anywhere; 2-3 minutes on 2 CPUs
#
# Each `expect CODE command...` line is one entry point and the exit code
# it must return; a different code fails the gate, so the script is also
# a smoke test of every CLI subcommand, example and small-scale bench.
set -u
cd "$(dirname "$0")/../.."
ROOT=$PWD
REACH=$ROOT/tests/reach
W=$(mktemp -d)
rm -rf "$REACH/out"
export PYTHONPATH=$REACH:$ROOT/src:$ROOT
CLI="python -m repro.cli"
failed=0

cleanup() {
    jobs -p | xargs -r kill -9 2>/dev/null
    rm -rf "$W"
}
trap cleanup EXIT

expect() {
    local want=$1 got
    shift
    "$@" >"$W/out.log" 2>&1
    got=$?
    if [ "$got" = "$want" ]; then
        echo "ok    $*"
    else
        echo "FAIL  exit $got, expected $want: $*"
        tail -n 20 "$W/out.log"
        failed=1
    fi
}

# Wait until FILE contains PATTERN (a background process's banner).
await() {
    for _ in $(seq 600); do grep -q "$2" "$1" 2>/dev/null && return 0; sleep 0.1; done
    echo "FAIL  timed out waiting for '$2' in $1"
    failed=1
    return 1
}

# -- trace, run --------------------------------------------------------------------
expect 0 $CLI trace --jobs 6 --seed 3 --output "$W/trace.json"
expect 0 $CLI run --scheduler ones --gpus 16 --trace "$W/trace.json" --profile \
    --csv "$W/run.csv" --json "$W/run.json" --trace-out "$W/run.jsonl"
expect 0 $CLI trace "$W/run.jsonl" --tree --filter-cat ones --filter-name gen --limit 50 \
    --chrome "$W/chrome.json"
echo '{"kind": "event"}' >"$W/bad.jsonl"
expect 1 $CLI trace "$W/bad.jsonl"
for scheduler in ones-hier drl tiresias optimus gandiva fifo srtf; do
    expect 0 $CLI run --scheduler $scheduler --gpus 16 --jobs 6 --seed 5 --profile \
        --trace-out "$W/run-$scheduler.jsonl"
done
# 8-GPU gangs wider than a 4-GPU shard, and an oversubscribed cluster.
expect 0 $CLI run --scheduler ones-hier --gpus 16 --partition-size 4 --jobs 20 \
    --arrival-interval 10 --seed 2021
expect 0 $CLI run --scheduler ones --gpus 4 --jobs 10 --seed 3

# -- compare ------------------------------------------------------------------------
expect 0 $CLI compare --gpus 16 --jobs 5 --arrival-interval 20 --faults mtbf \
    --fault-mtbf-hours 0.2 --fault-repair-minutes 5 --fault-seed 3 --report "$W/cmp.md" \
    --csv "$W/cmp.csv" --json "$W/cmp.json" --output-dir "$W/cmp" --profile
expect 0 $CLI compare --gpus 16 --jobs 5 --arrival-interval 20 --faults mtbf \
    --fault-mtbf-hours 0.2 --fault-repair-minutes 5 --fault-seed 3 --output-dir "$W/cmp" --resume
for profile in rack maintenance stragglers; do
    expect 0 $CLI compare --schedulers ones fifo tiresias --gpus 16 --jobs 5 \
        --arrival-interval 20 --faults $profile --fault-mtbf-hours 0.3 --fault-seed 4
done
expect 0 $CLI compare --schedulers gandiva srtf optimus --gpus 16 --jobs 5 \
    --arrival-interval 20 --faults mtbf --fault-mtbf-hours 0.2 --fault-seed 3
# Faults dirty several of the four shards at once, so ONES-hier runs
# background passes for shards other than the event's own.
expect 0 $CLI compare --schedulers ones-hier --gpus 64 --partition-size 16 \
    --jobs 12 --arrival-interval 10 --faults mtbf \
    --fault-mtbf-hours 0.5 --fault-repair-minutes 5 --fault-seed 3 --trace-out "$W/cmp.jsonl"
cat >"$W/plan.json" <<'EOF'
{"injections": [
  {"time": 100.0, "kind": "node_down", "node_id": 0, "factor": 1.0},
  {"time": 400.0, "kind": "node_up", "node_id": 0, "factor": 1.0},
  {"time": 200.0, "kind": "gpu_degraded", "node_id": 1, "factor": 0.5}
]}
EOF
expect 0 $CLI compare --schedulers ones fifo --gpus 16 --jobs 5 --faults-file "$W/plan.json"

# -- sweep, queue, workers ------------------------------------------------------------
expect 0 $CLI sweep --capacities 8 16 --schedulers ones fifo --traces 4 6 --seeds 7 8 \
    --arrival-interval 10 --json "$W/sweep.json" --output-dir "$W/sweep" --profile
expect 0 $CLI sweep --capacities 16 --schedulers ones fifo --jobs 4 --seeds 7 \
    --arrival-interval 10 --json "$W/sweep-one.json"
expect 0 $CLI sweep --capacities 32 --schedulers ones ones-hier --partition-sizes 16 32 \
    --jobs 4 --arrival-interval 10 --seeds 7 --workers 2 --output-dir "$W/axis"
expect 0 $CLI sweep --capacities 32 --schedulers ones ones-hier --partition-sizes 16 32 \
    --jobs 4 --arrival-interval 10 --seeds 7 --workers 2 --output-dir "$W/axis" --resume
expect 0 $CLI sweep --capacities 8 --schedulers fifo tiresias --jobs 4 --seeds 7 \
    --backend queue --queue-dir "$W/q1" --workers 1 --faults mtbf --fault-mtbf-hours 0.2
expect 0 $CLI sweep --capacities 8 --schedulers fifo tiresias --jobs 4 --seeds 7 --workers 2 \
    --cell-timeout 120 --cell-retries 1
expect 1 $CLI sweep --capacities 8 --schedulers ones --jobs 4 --seeds 7 --backend queue \
    --queue-dir "$W/dead" --workers 1 --cell-timeout 0.01 --cell-retries 1 --cell-backoff 0.01
expect 1 $CLI queue-status "$W/dead" --json
# A worker killed mid-cell: its lease expires and a second worker finishes the grid.
$CLI sweep --capacities 8 16 --schedulers ones fifo --jobs 4 --seeds 7 --backend queue \
    --queue-dir "$W/q2" --workers 0 --lease-ttl 2 >"$W/q2-sweep.log" 2>&1 &
sweep_pid=$!
# The sweep writes queue.json (its retry budget included) before it enqueues.
await "$W/q2/log.jsonl" '"event": "enqueued"'
$CLI worker "$W/q2" --worker-id victim --hold-s 300 --ttl 2 >/dev/null 2>&1 &
victim_pid=$!
await "$W/q2/log.jsonl" '"event": "claimed"'
kill -9 $victim_pid
wait $victim_pid 2>/dev/null
# --ttl 0.3 renews the rescuer's leases every 0.1 s: its longest cell
# takes ~0.25 s, shorter than the sweep TTL's 0.67-s heartbeat period.
expect 0 $CLI worker "$W/q2" --worker-id rescuer --exit-when-done --skew-margin 0.5 \
    --ttl 0.3 --trace-out "$W/worker.jsonl"
wait $sweep_pid
echo "ok    (exit $?) background queue sweep"
expect 0 $CLI queue-status "$W/q2" --cells --since 3600
expect 0 $CLI worker "$W/q2" --exit-when-done --max-cells 1 --quiet

# -- listings, figures --------------------------------------------------------------
expect 0 $CLI schedulers
expect 0 $CLI schedulers --paper-only
expect 0 $CLI fault-profiles
expect 0 $CLI figures

# -- the scheduler service ----------------------------------------------------------
serve() {  # serve LOG ARGS...: start a server on an ephemeral port, set $port
    local log=$1
    shift
    $CLI serve --port 0 "$@" >"$log" 2>&1 &
    server_pid=$!
    await "$log" "listening on" && port=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$log")
}
serve "$W/serve.log" --scheduler ones --gpus 16 --tenant alpha:8:3 --tenant beta \
    --trace-out "$W/serve.jsonl"
expect 0 $CLI submit --port "$port" --tenant alpha --count 4 --arrival-profile bursty
expect 0 $CLI submit --port "$port" --tenant beta --job-type nlp --replicas 2 --json
expect 1 $CLI submit --port "$port" --tenant gamma
expect 1 $CLI submit --port "$port" --tenant alpha --workload no-such-model
expect 0 $CLI service-status --port "$port" --metrics
expect 0 $CLI service-status --port "$port" --json --metrics
expect 0 python - "$port" <<'EOF'
import sys

from repro.service.http import ServiceClient

with ServiceClient(port=int(sys.argv[1])) as client:
    stream = client.stream("*", limit=64)
    assert stream["records"], stream
    client.shutdown()
EOF
wait $server_pid
echo "ok    (exit $?) virtual-time server"
serve "$W/wall.log" --scheduler fifo --gpus 8 --mode wall --time-scale 600
expect 0 $CLI submit --port "$port" --tenant t --count 3 --arrival-profile diurnal
sleep 1
expect 0 $CLI service-status --port "$port" --drain
kill -TERM $server_pid
wait $server_pid
echo "ok    (exit $?) wall-clock server"

# -- examples, benchmarks -------------------------------------------------------------
for example in examples/*.py; do
    expect 0 python "$example"
done
expect 0 python3 perfbench/run.py --seconds 1 --trace 1 --out "$W/perfbench"
expect 0 env REPRO_BENCH_SCALE=small python -m pytest -q -p no:cacheprovider \
    --benchmark-disable benchmarks/bench_fig*_*.py benchmarks/bench_table*.py \
    benchmarks/bench_extra_baselines.py benchmarks/bench_ablation_*.py \
    benchmarks/bench_micro_*.py

# -- the report -------------------------------------------------------------------
python "$REACH/report.py" || failed=1
exit $failed
