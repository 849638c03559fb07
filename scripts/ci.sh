#!/bin/sh
# CI gate: formatting, vet, build, tests, the full suite under the race
# detector, and an observability smoke run whose artifacts (run manifest,
# span JSONL, Chrome trace) are validated structurally and diffed against
# the archived baseline. Run from the repository root.
set -eu

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./...
# bench/ is a module of its own (see bench/README.md): the root's ./... does
# not descend into it.
(cd bench && go test ./... && go test -race ./...)

# Observability smoke: a quick deterministic numasim run producing every
# artifact kind. cmd/report -check fails the gate on malformed output; the
# manifest diff against the archived baseline warns on metric drift (the
# simulator is deterministic, so drift means behaviour changed) but only
# fails on malformed manifests (exit 2).
smoke=$(mktemp -d)
trap 'rm -rf "$smoke"' EXIT

go run ./cmd/numasim -quick -bench Barnes -policy DCL \
    -span.trace "$smoke/trace.json" -span.jsonl "$smoke/spans.jsonl" \
    -manifest "$smoke/manifest.json" > "$smoke/stdout.txt"

go run ./cmd/report -check \
    "$smoke/manifest.json" "$smoke/spans.jsonl" "$smoke/trace.json"

baseline=results/MANIFEST_numasim_quick.json
if [ -f "$baseline" ]; then
    go run ./cmd/report -tol 0.5 "$baseline" "$smoke/manifest.json"
else
    echo "ci: $baseline missing; skipping manifest diff" >&2
fi

# Fault-injection smoke: a deterministic scenario run must produce a valid
# manifest carrying the plan identity and nonzero fault counters.
go run ./cmd/numasim -quick -bench Barnes -policy DCL \
    -fault.scenario link-outage -fault.seed 7 \
    -manifest "$smoke/faulted.json" > "$smoke/faulted.txt"
go run ./cmd/report -check "$smoke/faulted.json"
grep -q '"fault_plan_hash": "[0-9a-f]' "$smoke/faulted.json" || {
    echo "ci: faulted manifest missing fault_plan_hash" >&2; exit 1; }
grep -Eq '"fault_nacks": [1-9]' "$smoke/faulted.json" || {
    echo "ci: link-outage run recorded zero NACKs" >&2; exit 1; }

# Engine load smoke: a short zipfian open-loop cachebench run against the
# sharded engine must produce a valid manifest with nonzero hit and coalesce
# counters (coalescing is forced by a slow loader plus 8 workers on a cold,
# highly skewed key stream).
go run ./cmd/cachebench -policy DCL -shards 16 -workers 8 -mode open \
    -rate 20000 -ops 20000 -keys 4096 -zipf 1.3 -loaddelay 2ms -seed 42 \
    -quiet -manifest "$smoke/engine.json" > "$smoke/engine.txt"
go run ./cmd/report -check "$smoke/engine.json"
grep -Eq '"engine_hits": [1-9]' "$smoke/engine.json" || {
    echo "ci: cachebench run recorded zero hits" >&2; exit 1; }
grep -Eq '"engine_coalesced": [1-9]' "$smoke/engine.json" || {
    echo "ci: cachebench run recorded zero coalesced loads" >&2; exit 1; }

# Interrupt smoke: SIGINT a run mid-flight; it must exit 130 and still
# flush a well-formed partial manifest marked interrupted. Built as a
# binary so the signal reaches the simulator, not `go run`. Raytrace is the
# longest full run (~2s), so the signal lands well inside it.
go build -o "$smoke/numasim" ./cmd/numasim
"$smoke/numasim" -bench Raytrace -policy DCL \
    -manifest "$smoke/interrupted.json" > "$smoke/interrupted.txt" 2>&1 &
pid=$!
sleep 0.5
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "ci: interrupted run exited $rc, want 130" >&2; exit 1
fi
go run ./cmd/report -check "$smoke/interrupted.json"
grep -q '"interrupted": true' "$smoke/interrupted.json" || {
    echo "ci: partial manifest not marked interrupted" >&2; exit 1; }

# Degraded-mode flag validation: unknown enum values must exit 2.
rc=0
"$smoke/numasim" -bench NoSuchBench >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 2 ]; then
    echo "ci: bad -bench exited $rc, want 2" >&2; exit 1
fi

# Serving-path attribution smoke: a fully sampled -attr run self-checks
# that span counts reconcile exactly with the engine counters and that the
# stage sums tile the sampled latency histogram within 1% (cachebench exits
# nonzero otherwise); we additionally pin the reconciliation line and that
# the emitted spans merge with the simulator's into one valid timeline.
go build -o "$smoke/cachebench" ./cmd/cachebench
"$smoke/cachebench" -policy DCL -shards 8 -workers 4 -mode closed \
    -ops 20000 -loaddelay 50us -seed 42 -quiet \
    -attr -attr.sample 1 -obs.sample 0.02 \
    -span.trace "$smoke/req-trace.json" -span.jsonl "$smoke/req-spans.jsonl" \
    -manifest "$smoke/attr.json" > "$smoke/attr.txt" 2> "$smoke/attr-table.txt"
grep -q 'stage sums cover' "$smoke/attr.txt" || {
    echo "ci: -attr run printed no reconciliation line" >&2; exit 1; }
grep -q 'serving-path attribution' "$smoke/attr-table.txt" || {
    echo "ci: -attr run printed no attribution table" >&2; exit 1; }
grep -Eq '"attr_spans": 20000' "$smoke/attr.json" || {
    echo "ci: attr manifest missing full span count" >&2; exit 1; }
go run ./cmd/report -check \
    "$smoke/attr.json" "$smoke/req-spans.jsonl" "$smoke/req-trace.json"
go run ./cmd/report -merge "$smoke/combined-trace.json" \
    "$smoke/req-trace.json" "$smoke/trace.json"
cat "$smoke/req-spans.jsonl" "$smoke/spans.jsonl" > "$smoke/combined.jsonl"
go run ./cmd/report -check "$smoke/combined-trace.json" "$smoke/combined.jsonl"

# Zero-sample guard: with a tracer attached but nothing sampled, the
# serving path must be allocation-identical to an untraced engine.
go test -run TestEngineUnsampledAllocs -count=1 ./internal/engine/

# Sampling-rate flag validation: rates outside (0,1] must exit 2.
for bad in "-attr.sample 1.5" "-attr.sample 0" "-obs.sample -0.1"; do
    rc=0
    # shellcheck disable=SC2086 # intentional word splitting of flag+value
    "$smoke/cachebench" $bad -ops 10 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "ci: cachebench $bad exited $rc, want 2" >&2; exit 1
    fi
done

# Explain smoke: record the quick workload twice — identical except for one
# degraded policy parameter (BCL's depreciation factor raised from the
# paper's 2 to 50, which makes reservations open and abandon unreferenced
# and regresses cost paid) — then assert report -explain (a) fails the pair
# under -strict, (b) ranks the injected reservation mechanism first, and
# (c) passes every sum-to-manifest-delta join check.
for side in base cand; do
    pol=BCL; [ "$side" = cand ] && pol=BCL-f50
    "$smoke/cachebench" -policy "$pol" -mode closed -workers 1 -ops 30000 \
        -keys 4096 -sets 512 -ways 4 -shards 4 -seed 7 -loaddelay 0 -quiet \
        -attr -attr.sample 1 -obs.sample 1 \
        -span.jsonl "$smoke/${side}_spans.jsonl" \
        -decisions "$smoke/${side}_dec.jsonl" \
        -manifest "$smoke/${side}.json" > "$smoke/${side}.txt" 2>/dev/null
done
rc=0
go run ./cmd/report -explain -strict "$smoke/base.json" "$smoke/cand.json" \
    > "$smoke/explain.txt" || rc=$?
if [ "$rc" -ne 1 ]; then
    cat "$smoke/explain.txt" >&2
    echo "ci: explain of degraded run exited $rc, want 1 (-strict regression)" >&2
    exit 1
fi
top=$(sed -n '/decision-kind shifts/,/^$/p' "$smoke/explain.txt" | sed -n 4p)
case "$top" in
*reserve_*) ;;
*) echo "ci: explain top cause is not a reservation kind: $top" >&2; exit 1 ;;
esac
if grep 'check:' "$smoke/explain.txt" | grep -qv ': ok$'; then
    grep 'check:' "$smoke/explain.txt" >&2
    echo "ci: explain join checks not all ok" >&2; exit 1
fi
# The same run joined against itself must be an all-zero report, exit 0.
go run ./cmd/report -explain -strict "$smoke/base.json" "$smoke/base.json" \
    > /dev/null

# Flag validation for the new analytics knobs: non-positive hot-shard
# factors and negative sketch capacities must exit 2.
for bad in "-hot.factor 0" "-keys.sketch -1"; do
    rc=0
    # shellcheck disable=SC2086 # intentional word splitting of flag+value
    "$smoke/cachebench" $bad -ops 10 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "ci: cachebench $bad exited $rc, want 2" >&2; exit 1
    fi
done

# Engine benchmark baseline: regenerate the hot-path manifest with a short
# measurement window and diff against the archive. The tolerance is
# deliberately generous (shared CI hardware); only schema breakage or
# malformed output fails the gate.
BENCH_MANIFEST="$smoke/bench.json" \
    go test -run TestWriteBenchManifest -count=1 -benchtime 0.05s .
go run ./cmd/report -check "$smoke/bench.json"
if [ -f results/BENCH_engine.json ]; then
    go run ./cmd/report -tol 75 results/BENCH_engine.json "$smoke/bench.json"
else
    echo "ci: results/BENCH_engine.json missing; skipping bench diff" >&2
fi

# Instrumentation-overhead baseline: regenerate the obs bench manifest
# (simulator observation cost plus the telemetry store's sampling hot path)
# and diff at the same generous tolerance. The allocation figure is exact:
# steady-state sampling must not allocate.
go run ./cmd/paper -quick -bench-json "$smoke/bench_obs.json" > /dev/null
go run ./cmd/report -check "$smoke/bench_obs.json"
grep -q '"tsdb_sample_allocs_op": 0' "$smoke/bench_obs.json" || {
    echo "ci: telemetry sampling allocates in steady state" >&2; exit 1; }
grep -q '"fed_scrape_ns_node":' "$smoke/bench_obs.json" || {
    echo "ci: obs bench manifest missing the federation scrape figure" >&2; exit 1; }
if [ -f results/BENCH_obs.json ]; then
    go run ./cmd/report -tol 75 results/BENCH_obs.json "$smoke/bench_obs.json"
else
    echo "ci: results/BENCH_obs.json missing; skipping obs bench diff" >&2
fi

# Telemetry zero-alloc gate: the tsdb test pins steady-state Sample at zero
# allocations over a cachebench-shaped registry.
go test -run TestSampleSteadyStateAllocs -count=1 ./internal/obs/tsdb/

# Deterministic alerting smoke: a same-seed pair on the simulated telemetry
# clock (-ts.everyops). The degraded run — BCL-f50 on a uniform key stream,
# whose hit rate collapses below the 0.8 objective — must walk the hit-rate
# burn rule through pending to firing exactly once; the healthy run (BCL on
# a zipfian stream) must keep every rule quiet. Firing counts land in the
# manifests and the event JSONL is byte-identical across reruns.
for side in healthy degraded; do
    pol=BCL; zipf=1.2
    if [ "$side" = degraded ]; then pol=BCL-f50; zipf=1.0; fi
    "$smoke/cachebench" -policy "$pol" -zipf "$zipf" -mode closed -workers 1 \
        -ops 40000 -keys 4096 -sets 512 -ways 4 -shards 4 -seed 7 \
        -loaddelay 0 -quiet -alerts -ts.everyops 500 \
        -alert.fast 2s -alert.slow 10s -slo.hitrate 0.8 \
        -alerts.jsonl "$smoke/${side}_alerts.jsonl" \
        -manifest "$smoke/${side}_alerts.json" > "$smoke/${side}_alerts.txt"
done
go run ./cmd/report -check "$smoke/healthy_alerts.json" "$smoke/degraded_alerts.json"
grep -Fq '"alert_fired{rule=\"hit-rate-burn\"}": 1' "$smoke/degraded_alerts.json" || {
    echo "ci: degraded run did not fire the hit-rate burn alert exactly once" >&2
    exit 1; }
grep -Fq '"from":"pending","to":"firing"' "$smoke/degraded_alerts.jsonl" || {
    echo "ci: degraded alert stream missing the pending→firing transition" >&2
    exit 1; }
if grep -F '"alert_fired' "$smoke/healthy_alerts.json" | grep -Evq ': 0,?$'; then
    grep -F '"alert_fired' "$smoke/healthy_alerts.json" >&2
    echo "ci: healthy run fired an alert" >&2; exit 1
fi
"$smoke/cachebench" -policy BCL-f50 -zipf 1.0 -mode closed -workers 1 \
    -ops 40000 -keys 4096 -sets 512 -ways 4 -shards 4 -seed 7 \
    -loaddelay 0 -quiet -alerts -ts.everyops 500 \
    -alert.fast 2s -alert.slow 10s -slo.hitrate 0.8 \
    -alerts.jsonl "$smoke/degraded_alerts2.jsonl" > /dev/null
cmp -s "$smoke/degraded_alerts.jsonl" "$smoke/degraded_alerts2.jsonl" || {
    echo "ci: alert event stream differs across same-seed reruns" >&2; exit 1; }

# Backend chaos smoke: a same-seed healthy/brownout cachebench pair on the
# simulated telemetry clock. The brownout run must trip the class-8 circuit
# breaker, serve stale at least once, fire the shed-rate alert exactly once
# and still exit 0 with a well-formed manifest; its alert stream is
# byte-identical across reruns. The healthy twin — identical flags minus the
# fault scenario — must keep every counter and rule at zero (degraded-mode
# serving is invisible until the backend actually fails). No -load.deadline
# here: deadlines are wall-clock and would break byte-identity.
for side in steady brownout; do
    fault=""; [ "$side" = brownout ] && fault="-fault.scenario backend-brownout"
    # shellcheck disable=SC2086 # intentional word splitting of $fault
    "$smoke/cachebench" -policy DCL -mode closed -workers 1 -ops 40000 \
        -keys 16384 -zipf 1.0 -haf 0.5 -sets 512 -ways 4 -shards 4 -seed 7 \
        -loaddelay 0 -quiet -load.retries 3 -load.backoff 0 \
        -breaker.rate 0.5 -breaker.window 64 -breaker.min 16 \
        -breaker.cooldown 2000 -stale.serve $fault \
        -alerts -ts.everyops 500 -alert.fast 4s -alert.slow 30s \
        -slo.hitrate 0.3 -alerts.jsonl "$smoke/${side}_chaos.jsonl" \
        -manifest "$smoke/${side}_chaos.json" > "$smoke/${side}_chaos.txt"
done
go run ./cmd/report -check "$smoke/steady_chaos.json" "$smoke/brownout_chaos.json"
grep -Eq '"engine_breaker_opened": [1-9]' "$smoke/brownout_chaos.json" || {
    echo "ci: brownout run never tripped a breaker" >&2; exit 1; }
grep -Eq '"engine_stale_served": [1-9]' "$smoke/brownout_chaos.json" || {
    echo "ci: brownout run never served stale" >&2; exit 1; }
grep -Fq '"alert_fired{rule=\"shed-rate\"}": 1' "$smoke/brownout_chaos.json" || {
    echo "ci: brownout run did not fire the shed-rate alert exactly once" >&2
    exit 1; }
grep -q '"fault_plan_hash": "[0-9a-f]' "$smoke/brownout_chaos.json" || {
    echo "ci: brownout manifest missing fault_plan_hash" >&2; exit 1; }
if grep -F '"alert_fired' "$smoke/steady_chaos.json" | grep -Evq ': 0,?$'; then
    grep -F '"alert_fired' "$smoke/steady_chaos.json" >&2
    echo "ci: healthy chaos twin fired an alert" >&2; exit 1
fi
for zero in engine_shed engine_stale_served engine_load_retries engine_breaker_opened; do
    grep -Fq "\"$zero\": 0" "$smoke/steady_chaos.json" || {
        echo "ci: healthy chaos twin has nonzero $zero" >&2; exit 1; }
done
"$smoke/cachebench" -policy DCL -mode closed -workers 1 -ops 40000 \
    -keys 16384 -zipf 1.0 -haf 0.5 -sets 512 -ways 4 -shards 4 -seed 7 \
    -loaddelay 0 -quiet -load.retries 3 -load.backoff 0 \
    -breaker.rate 0.5 -breaker.window 64 -breaker.min 16 \
    -breaker.cooldown 2000 -stale.serve -fault.scenario backend-brownout \
    -alerts -ts.everyops 500 -alert.fast 4s -alert.slow 30s \
    -slo.hitrate 0.3 -alerts.jsonl "$smoke/brownout_chaos2.jsonl" > /dev/null
cmp -s "$smoke/brownout_chaos.jsonl" "$smoke/brownout_chaos2.jsonl" || {
    echo "ci: chaos alert stream differs across same-seed reruns" >&2; exit 1; }

# Resilience and fault flag validation: out-of-range or conflicting values
# must exit 2.
for bad in "-load.deadline -1s" "-load.retries -1" "-load.backoff -1ms" \
    "-breaker.rate 1.5" "-breaker.rate -0.1" "-breaker.window 0" \
    "-breaker.min 0" "-breaker.cooldown 0" \
    "-fault.scenario no-such-scenario" "-fault.plan /nonexistent.json" \
    "-fault.plan x -fault.scenario backend-brownout"; do
    rc=0
    # shellcheck disable=SC2086 # intentional word splitting of flag+value
    "$smoke/cachebench" $bad -ops 10 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "ci: cachebench $bad exited $rc, want 2" >&2; exit 1
    fi
done

# SIGINT under chaos: an interrupted resilient run must still flush a partial
# manifest carrying the resilience counters.
"$smoke/cachebench" -policy DCL -mode closed -workers 2 -ops 5000000 \
    -keys 16384 -zipf 1.0 -haf 0.5 -sets 512 -ways 4 -shards 4 -seed 7 \
    -loaddelay 50us -quiet -load.retries 3 -load.backoff 0 \
    -breaker.rate 0.5 -breaker.window 64 -breaker.min 16 \
    -breaker.cooldown 2000 -stale.serve -fault.scenario backend-brownout \
    -manifest "$smoke/chaos_interrupted.json" > /dev/null 2>&1 &
pid=$!
sleep 0.7
kill -INT "$pid"
rc=0
wait "$pid" || rc=$?
if [ "$rc" -ne 130 ]; then
    echo "ci: interrupted chaos run exited $rc, want 130" >&2; exit 1
fi
go run ./cmd/report -check "$smoke/chaos_interrupted.json"
grep -q '"interrupted": true' "$smoke/chaos_interrupted.json" || {
    echo "ci: partial chaos manifest not marked interrupted" >&2; exit 1; }
grep -q '"engine_shed":' "$smoke/chaos_interrupted.json" || {
    echo "ci: partial chaos manifest missing resilience counters" >&2; exit 1; }

# cachetop smoke: render one dashboard frame against a live cachebench and
# check the signal panels, shard heat rows and alert list all appear.
go build -o "$smoke/cachetop" ./cmd/cachetop
"$smoke/cachebench" -policy DCL -mode open -rate 5000 -ops 1000000 \
    -keys 4096 -zipf 1.2 -seed 7 -quiet -alerts \
    -obs.listen 127.0.0.1:0 > "$smoke/live.txt" 2>&1 &
livepid=$!
addr=""
for _ in $(seq 1 50); do
    addr=$(sed -n 's|^observability: http://\([^ ]*\) .*|\1|p' "$smoke/live.txt")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    kill "$livepid" 2>/dev/null || true
    echo "ci: live cachebench never printed its observability address" >&2
    exit 1
fi
sleep 2 # let the wall-clock sampler fill a few buckets
rc=0
"$smoke/cachetop" -addr "$addr" -frames 1 > "$smoke/cachetop.txt" || rc=$?
kill -INT "$livepid" 2>/dev/null || true
wait "$livepid" 2>/dev/null || true
if [ "$rc" -ne 0 ]; then
    cat "$smoke/cachetop.txt" >&2
    echo "ci: cachetop render failed ($rc)" >&2; exit 1
fi
for want in "hit rate" "ops/s" "p99 latency" "shard  0" "hit-rate-burn"; do
    grep -Fq "$want" "$smoke/cachetop.txt" || {
        cat "$smoke/cachetop.txt" >&2
        echo "ci: cachetop frame missing \"$want\"" >&2; exit 1; }
done

# Flag validation for the telemetry and alerting knobs: out-of-range values
# must exit 2.
for bad in "-ts.step 0" "-ts.everyops -1" "-slo.hitrate 1.5" \
    "-slo.p99 0" "-alert.burn 0" "-alert.fast 0s"; do
    rc=0
    # shellcheck disable=SC2086 # intentional word splitting of flag+value
    "$smoke/cachebench" $bad -ops 10 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "ci: cachebench $bad exited $rc, want 2" >&2; exit 1
    fi
done
for bad in "" "-addr x -interval 0s" "-addr x -frames -1" "-cluster"; do
    rc=0
    # shellcheck disable=SC2086 # intentional word splitting of flag+value
    "$smoke/cachetop" $bad >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "ci: cachetop $bad exited $rc, want 2" >&2; exit 1
    fi
done

# Serving-tier smoke (docs/SERVING_TIER.md): cacheserved on an ephemeral
# port with two namespaces, driven by cachebench -remote over real sockets.
# The single-worker closed-loop remote run must reproduce the in-process
# run's engine counters bit for bit; a pipelined open-loop run must coalesce
# and reconcile exactly; SIGTERM must drain cleanly (exit 0, uninterrupted
# manifest).
go build -o "$smoke/cacheserved" ./cmd/cacheserved
"$smoke/cacheserved" -listen 127.0.0.1:0 \
    -ns "bench" -ns "slow:policy=BCL,sets=1024,loaddelay=1ms" \
    -manifest "$smoke/served.json" > "$smoke/served.txt" 2>&1 &
srvpid=$!
srvaddr=""
for _ in $(seq 1 50); do
    srvaddr=$(sed -n 's/^cacheserved: listening on //p' "$smoke/served.txt")
    [ -n "$srvaddr" ] && break
    sleep 0.1
done
if [ -z "$srvaddr" ]; then
    kill "$srvpid" 2>/dev/null || true
    echo "ci: cacheserved never printed its listen address" >&2; exit 1
fi

"$smoke/cachebench" -mode closed -workers 1 -ops 20000 -keys 4096 -zipf 1.1 \
    -seed 7 -quiet -manifest "$smoke/inproc.json" > /dev/null
"$smoke/cachebench" -mode closed -workers 1 -ops 20000 -keys 4096 -zipf 1.1 \
    -seed 7 -quiet -remote "$srvaddr" -remote.ns bench \
    -manifest "$smoke/remote.json" > /dev/null
go run ./cmd/report -check "$smoke/inproc.json" "$smoke/remote.json"
metric() { sed -n "s/^ *\"$2\": \([0-9.e+-]*\),*\$/\1/p" "$1" | head -1; }
for m in engine_hits engine_misses engine_coalesced engine_cost_paid; do
    a=$(metric "$smoke/inproc.json" "$m")
    b=$(metric "$smoke/remote.json" "$m")
    if [ -z "$a" ] || [ "$a" != "$b" ]; then
        echo "ci: remote run diverges from in-process: $m = $b, want $a" >&2
        exit 1
    fi
done

# Pipelined remote run against the slow namespace: concurrent misses on hot
# keys must coalesce server-side, and the counter deltas must tile the op
# count exactly (hits + misses + coalesced == ops).
"$smoke/cachebench" -mode open -workers 8 -rate 20000 -ops 20000 -keys 4096 \
    -zipf 1.3 -seed 42 -quiet -remote "$srvaddr" -remote.ns slow \
    -remote.conns 4 -attr -attr.sample 1 \
    -manifest "$smoke/remote_pipe.json" > "$smoke/remote_pipe.txt" 2>&1
go run ./cmd/report -check "$smoke/remote_pipe.json"
hits=$(metric "$smoke/remote_pipe.json" engine_hits)
misses=$(metric "$smoke/remote_pipe.json" engine_misses)
coal=$(metric "$smoke/remote_pipe.json" engine_coalesced)
if [ "$hits" -le 0 ] || [ "$coal" -le 0 ]; then
    echo "ci: pipelined remote run: hits=$hits coalesced=$coal, want both nonzero" >&2
    exit 1
fi
if [ $((hits + misses + coal)) -ne 20000 ]; then
    echo "ci: pipelined remote counters don't reconcile: $hits+$misses+$coal != 20000" >&2
    exit 1
fi
grep -q 'net_read' "$smoke/remote_pipe.txt" || {
    echo "ci: remote -attr table missing the net_read stage" >&2; exit 1; }

# SIGTERM drain: exit 0 and an uninterrupted manifest.
kill -TERM "$srvpid"
rc=0
wait "$srvpid" || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "ci: cacheserved drain exited $rc, want 0" >&2; exit 1
fi
go run ./cmd/report -check "$smoke/served.json"
if grep -q '"interrupted": true' "$smoke/served.json"; then
    echo "ci: clean drain produced an interrupted manifest" >&2; exit 1
fi
grep -Eq '"server_frames_in": [1-9]' "$smoke/served.json" || {
    echo "ci: cacheserved manifest recorded no inbound frames" >&2; exit 1; }

# Consistent-hash scale-out: the same load over a 3-node ring must spread
# traffic onto every node (each per-node manifest records inbound frames).
nodes=""
addrs=""
for i in 1 2 3; do
    "$smoke/cacheserved" -listen 127.0.0.1:0 -ns bench \
        -manifest "$smoke/node$i.json" > "$smoke/node$i.txt" 2>&1 &
    nodes="$nodes $!"
    a=""
    for _ in $(seq 1 50); do
        a=$(sed -n 's/^cacheserved: listening on //p' "$smoke/node$i.txt")
        [ -n "$a" ] && break
        sleep 0.1
    done
    if [ -z "$a" ]; then
        echo "ci: ring node $i never printed its listen address" >&2; exit 1
    fi
    addrs="$addrs,$a"
done
addrs=${addrs#,}
"$smoke/cachebench" -mode closed -workers 4 -ops 20000 -keys 4096 -zipf 1.1 \
    -seed 7 -quiet -remote "$addrs" > /dev/null
for pid in $nodes; do
    kill -TERM "$pid"
    wait "$pid" || { echo "ci: ring node drain failed" >&2; exit 1; }
done
for i in 1 2 3; do
    go run ./cmd/report -check "$smoke/node$i.json"
    grep -Eq '"server_frames_in": [1-9]' "$smoke/node$i.json" || {
        echo "ci: ring node $i served no traffic" >&2; exit 1; }
done

# Cluster observability smoke (docs/OBSERVABILITY.md, "Cluster
# observability"): a 3-node ring with one deliberately degraded node (a
# 16-entry cache whose hit rate collapses), driven by a trace-sampled
# cachebench -remote run. Gates:
#   (a) the run ends with a bit-for-bit cluster manifest reconciliation
#       (cachebench exits nonzero on mismatch; we additionally pin the line),
#   (b) cachefed's deterministic scrape fires node-outlier-hit-rate exactly
#       once, keeps ring-hot-node quiet, and streams byte-identical alert
#       JSONL across reruns,
#   (c) cachetop -cluster renders a fleet frame from a live cachefed,
#   (d) report -merge stitches the client and per-node span JSONL into one
#       validated timeline (exit nonzero on any orphan span, infeasible
#       clock offset or containment breach).
go build -o "$smoke/cachefed" ./cmd/cachefed
clpids=""
claddrs=""
clobs=""
for i in 1 2 3; do
    spec="bench"
    [ "$i" = 3 ] && spec="bench:sets=16,ways=1"
    "$smoke/cacheserved" -listen 127.0.0.1:0 -ns "$spec" -node "n$i" \
        -span.jsonl "$smoke/cl_node${i}_spans.jsonl" -obs.listen 127.0.0.1:0 \
        -manifest "$smoke/cl_node$i.json" > "$smoke/cl_node$i.txt" 2>&1 &
    clpids="$clpids $!"
    a=""
    o=""
    for _ in $(seq 1 50); do
        a=$(sed -n 's/^cacheserved: listening on //p' "$smoke/cl_node$i.txt")
        o=$(sed -n 's|^observability: http://\([^ ]*\) .*|\1|p' "$smoke/cl_node$i.txt")
        [ -n "$a" ] && [ -n "$o" ] && break
        sleep 0.1
    done
    if [ -z "$a" ] || [ -z "$o" ]; then
        echo "ci: cluster node $i never printed its addresses" >&2; exit 1
    fi
    claddrs="$claddrs,$a"
    clobs="$clobs,$o"
done
claddrs=${claddrs#,}
clobs=${clobs#,}
"$smoke/cachebench" -mode closed -workers 4 -ops 20000 -keys 4096 -zipf 1.1 \
    -seed 7 -quiet -remote "$claddrs" -obs.sample 0.05 \
    -span.jsonl "$smoke/cl_client_spans.jsonl" \
    -manifest "$smoke/cl_client.json" > "$smoke/cl_client.txt"
grep -q '== client-observed, bit for bit' "$smoke/cl_client.txt" || {
    cat "$smoke/cl_client.txt" >&2
    echo "ci: remote run printed no cluster reconciliation line" >&2; exit 1; }
go run ./cmd/report -check "$smoke/cl_client.json"
grep -q '"trace_negotiated": "true"' "$smoke/cl_client.json" || {
    echo "ci: client manifest missing trace negotiation with the ring" >&2
    exit 1; }

# Deterministic federation of the (now idle) fleet: the first scrape
# baselines the node-labeled mirrors at zero, the second lands every node's
# totals in one bucket, so the degraded node's miss ratio diverges inside
# the rule window and node-outlier-hit-rate walks to firing exactly once.
"$smoke/cachefed" -nodes "$clobs" -interval 1s -scrapes 4 \
    -alerts.jsonl "$smoke/fed1.jsonl" -status "$smoke/fed_status.json" \
    > "$smoke/fed1.txt"
grep -q 'node-outlier-hit-rate.*fired=1' "$smoke/fed1.txt" || {
    cat "$smoke/fed1.txt" >&2
    echo "ci: degraded node did not fire node-outlier-hit-rate exactly once" >&2
    exit 1; }
outlier_fires=$(grep -c '"rule":"node-outlier-hit-rate","from":"pending","to":"firing"' \
    "$smoke/fed1.jsonl")
if [ "$outlier_fires" -ne 1 ]; then
    cat "$smoke/fed1.jsonl" >&2
    echo "ci: fleet alert stream has != 1 node-outlier firing transition" >&2
    exit 1
fi
grep -q '"node_skew":' "$smoke/fed_status.json" || {
    echo "ci: cluster status missing the node_skew signal" >&2; exit 1; }
"$smoke/cachefed" -nodes "$clobs" -interval 1s -scrapes 4 \
    -alerts.jsonl "$smoke/fed2.jsonl" > /dev/null
cmp -s "$smoke/fed1.jsonl" "$smoke/fed2.jsonl" || {
    echo "ci: fleet alert stream differs across reruns" >&2; exit 1; }

# Fleet dashboard: one cachetop -cluster frame against a live cachefed.
"$smoke/cachefed" -nodes "$clobs" -interval 1s -listen 127.0.0.1:0 \
    > "$smoke/fedlive.txt" 2>&1 &
fedpid=$!
fedaddr=""
for _ in $(seq 1 50); do
    fedaddr=$(sed -n 's/^cachefed: listening on //p' "$smoke/fedlive.txt")
    [ -n "$fedaddr" ] && break
    sleep 0.1
done
if [ -z "$fedaddr" ]; then
    kill "$fedpid" 2>/dev/null || true
    echo "ci: live cachefed never printed its listen address" >&2; exit 1
fi
sleep 2.5 # let the live scraper cover a couple of intervals
rc=0
"$smoke/cachetop" -cluster -addr "$fedaddr" -frames 1 \
    > "$smoke/cachetop_cluster.txt" || rc=$?
kill -INT "$fedpid" 2>/dev/null || true
wait "$fedpid" 2>/dev/null || true
if [ "$rc" -ne 0 ]; then
    cat "$smoke/cachetop_cluster.txt" >&2
    echo "ci: cachetop -cluster render failed ($rc)" >&2; exit 1
fi
for want in "cluster" "node" "fleet alerts" "node-outlier-hit-rate"; do
    grep -Fq "$want" "$smoke/cachetop_cluster.txt" || {
        cat "$smoke/cachetop_cluster.txt" >&2
        echo "ci: cachetop -cluster frame missing \"$want\"" >&2; exit 1; }
done

# Drain the ring (flushes each node's span JSONL), then stitch: the client
# and server halves of every sampled request must pair up, each node's clock
# offset must be feasible, and every server span must land strictly inside
# its client's net round trip — report -merge exits nonzero otherwise.
for pid in $clpids; do
    kill -TERM "$pid"
    wait "$pid" || { echo "ci: cluster node drain failed" >&2; exit 1; }
done
for i in 1 2 3; do
    go run ./cmd/report -check "$smoke/cl_node$i.json"
done
go run ./cmd/report -merge "$smoke/cl_trace.json" \
    "$smoke/cl_client_spans.jsonl" "$smoke/cl_node1_spans.jsonl" \
    "$smoke/cl_node2_spans.jsonl" "$smoke/cl_node3_spans.jsonl" \
    > "$smoke/cl_merge.txt" || {
    cat "$smoke/cl_merge.txt" >&2
    echo "ci: cross-node trace stitch failed" >&2; exit 1; }
grep -Eq 'stitched [1-9][0-9]* client \+ [1-9][0-9]* server spans' \
    "$smoke/cl_merge.txt" || {
    cat "$smoke/cl_merge.txt" >&2
    echo "ci: stitch paired no spans" >&2; exit 1; }
go run ./cmd/report -check "$smoke/cl_trace.json"

# Serving-tier flag validation: malformed namespace specs, bad limits and
# misused -remote flags must exit 2.
for bad in "-ns :x=1" "-ns a:policy=NoSuchPolicy" "-ns a:nokey=1" \
    "-ns a:shards=0" "-ns a:ttl=-1s" "-ns a -ns a" \
    "-maxconns -1" "-maxinflight -1" "-queue.deadline -1ms" \
    "-drain.timeout 0"; do
    rc=0
    # shellcheck disable=SC2086 # intentional word splitting of flag+value
    "$smoke/cacheserved" $bad >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "ci: cacheserved $bad exited $rc, want 2" >&2; exit 1
    fi
done
# Federation flag validation: a missing node list and out-of-range scrape
# parameters must exit 2.
for bad in "" "-nodes x -interval 0s" "-nodes x -timeout 0s" \
    "-nodes x -scrapes -1"; do
    rc=0
    # shellcheck disable=SC2086 # intentional word splitting of flag+value
    "$smoke/cachefed" $bad >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "ci: cachefed $bad exited $rc, want 2" >&2; exit 1
    fi
done
for bad in "-remote x -policy DCL" "-remote x -shards 4" \
    "-remote x -loaddelay 1ms" "-remote x -stale.serve" \
    "-remote x -remote.ns=" "-remote x -remote.conns 0" \
    "-remote x -remote.timeout 0"; do
    rc=0
    # shellcheck disable=SC2086 # intentional word splitting of flag+value
    "$smoke/cachebench" $bad -ops 10 >/dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "ci: cachebench $bad exited $rc, want 2" >&2; exit 1
    fi
done

# Serving-tier benchmark baseline: regenerate with a short window and diff
# against the archive at the same generous tolerance as the engine bench.
BENCH_MANIFEST="$smoke/bench_server.json" \
    go test -run TestWriteServerBenchManifest -count=1 -benchtime 0.05s ./internal/server
go run ./cmd/report -check "$smoke/bench_server.json"
if [ -f results/BENCH_server.json ]; then
    go run ./cmd/report -tol 75 results/BENCH_server.json "$smoke/bench_server.json"
else
    echo "ci: results/BENCH_server.json missing; skipping server bench diff" >&2
fi

echo "ci: ok"
