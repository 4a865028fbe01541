#!/usr/bin/env bash
#
# Sanitized build + test gate: configures a separate build tree with
# POTLUCK_SANITIZE (address by default, pass "thread" for TSan — useful
# for the lock-free obs counters/histograms), builds everything, and
# runs the full test suite under the sanitizer.
#
# A second pass rebuilds with -DPOTLUCK_FAULT_INJECTION=ON (still under
# the sanitizer) and reruns the suite: this compiles the transport
# fault hooks in and exercises the FaultInjection.* torture tests that
# are preprocessed away from release builds.
#
# A final smoke test starts the sanitized potluckd, drives a small
# multi-app, two-function workload (two lock domains) through
# potluck_cli — including the batched mput/mget verbs — and validates
# the exported flight-recorder trace: `potluck_cli trace --json` must
# parse with `python3 -m json.tool` and contain the minimal Chrome
# trace_event shape (a traceEvents array with complete spans). Skipped
# when python3 is unavailable.
#
# An shm transport stage then reruns the workload over the
# shared-memory ring (potluck_cli --shm) against the sanitized daemon,
# boots a fault-build daemon with POTLUCK_IPC_FAULTS=refuse_shm=1.0 to
# prove a refused handshake silently continues the stream over UDS,
# and checks a --no-shm daemon serves --shm clients the same way.
#
# A cluster stage then boots a 3-daemon full mesh (--peers), drives a
# cross-node mput/mget through it, asserts the mesh recorded remote
# hits (cluster_remote_hit_total in the Prometheus export), and verifies the
# survivors keep serving after one daemon is killed.
#
# An HTTP observability stage boots a 2-daemon mesh with --http-port,
# curls /healthz (must be 200 while the mesh is healthy), SIGSTOPs one
# peer and drives forwarded lookups until the breaker opens (healthz
# flips to 503 "degraded"), and lints the /metrics export with a small
# Python checker: every sample's family must have # HELP/# TYPE
# headers, and the potluck_build_info, process_uptime_seconds,
# service_saved_ms_total and heat_tracked_slots families must be
# present (DESIGN.md §13). Skipped when python3 is unavailable.
#
# A tiered-store stage starts a sanitized daemon with --store-dir,
# writes entries, SIGKILLs it (no snapshot, no sidecar rewrite), and
# restarts it on the same directory: every pre-kill entry must hit
# again, served by promotion from the mmap'd cold tier (store_promotions_total
# in the Prometheus export), with the function registration recovered
# from the segment log rather than re-registered.
#
# A chaos stage boots a 2-daemon cluster from the fault-injection
# build with daemon A's disk rotting bits on append
# (POTLUCK_FS_FAULTS=bit_flip): `potluck_cli scrub` must quarantine the
# rotten frames, the daemon's anti-entropy tick must re-fetch them from
# the clean replica (cluster_repair_hits_total), and every key must be served
# again afterwards. A second fault stage fills daemon A's "disk"
# (write_enospc): puts must keep succeeding RAM-only with
# store_write_degraded_total counting each refused write-through, and the
# daemon must stay alive throughout.
#
# Unless this run IS the undefined-sanitizer run, the store/scrub test
# suites are rebuilt under UBSan and rerun: the mmap'd frame arithmetic
# (offset casts, CRC folds, length words read from raw bytes) must be
# UB-clean on every check.
#
# Unless this run IS the thread-sanitizer run, a last stage builds the
# concurrency stress test under ThreadSanitizer and runs it: the
# function-domain locking, the flat index's filter fits (inside insert, while readers
# probe under the shared lock) and LSH lazy projections must be
# TSan-clean on every check, not only when someone asks for TSan.
#
# Every build here compiles with -Werror, ThreadSanitizer builds
# included: the tree builds without a warning, and a new one fails the
# check.
#
# Usage: scripts/check.sh [address|thread|undefined]
set -euo pipefail

SANITIZER="${1:-address}"
case "$SANITIZER" in
address | thread | undefined) ;;
*)
    echo "usage: $0 [address|thread|undefined]" >&2
    exit 1
    ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-$SANITIZER"

cmake -S "$ROOT" -B "$BUILD" -DPOTLUCK_SANITIZE="$SANITIZER" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$BUILD" -j "$(nproc)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo "check.sh: all tests passed under ${SANITIZER} sanitizer"

FAULT_BUILD="$ROOT/build-$SANITIZER-fault"
cmake -S "$ROOT" -B "$FAULT_BUILD" -DPOTLUCK_SANITIZE="$SANITIZER" \
    -DPOTLUCK_FAULT_INJECTION=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS=-Werror
cmake --build "$FAULT_BUILD" -j "$(nproc)"
ctest --test-dir "$FAULT_BUILD" --output-on-failure -j "$(nproc)"

echo "check.sh: all tests passed with fault injection under ${SANITIZER}"

# ---- trace-export smoke test ------------------------------------------
# Run the daemon with slo 0 so every request trace is kept: the check
# is deterministic, not at the mercy of the tail sampler.
SOCK="$(mktemp -u /tmp/potluck_check_XXXXXX.sock)"
TRACE_JSON="$SOCK.trace.json"
DAEMON="$BUILD/tools/potluckd"
CLI="$BUILD/tools/potluck_cli"

# --dropout 0: a probabilistic dropout would turn `get` into exit 2
# and fail the script at random.
"$DAEMON" --socket "$SOCK" --stats-sec 0 --dropout 0 \
    --trace-slo-us 0 --trace-dump "$TRACE_JSON" &
DAEMON_PID=$!
cleanup() {
    kill "$DAEMON_PID" 2>/dev/null || true
    wait "$DAEMON_PID" 2>/dev/null || true
    rm -f "$SOCK" "$TRACE_JSON"
}
trap cleanup EXIT

for _ in $(seq 1 50); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
[ -S "$SOCK" ] || { echo "check.sh: potluckd did not start" >&2; exit 1; }

# A small cross-application workload: two "apps" (each CLI invocation
# registers as one) sharing a function, so the trace shows lookups from
# more than one client, plus a second function, so the traffic drives
# two lock domains.
"$CLI" --socket "$SOCK" register recognize vec
"$CLI" --socket "$SOCK" register translate vec
"$CLI" --socket "$SOCK" put recognize vec 1,2,3 hello
"$CLI" --socket "$SOCK" get recognize vec 1,2,3
"$CLI" --socket "$SOCK" put translate vec 1,2,3 bonjour
"$CLI" --socket "$SOCK" get translate vec 1,2,3
"$CLI" --socket "$SOCK" put recognize vec 4,5,6 world
"$CLI" --socket "$SOCK" get recognize vec 4,5,6
# Batched verbs: one frame, many keys (kPutBatch / kLookupBatch).
"$CLI" --socket "$SOCK" mput recognize vec 7,8,9=seven 10,11,12=ten
"$CLI" --socket "$SOCK" mget recognize vec 7,8,9 10,11,12 1,2,3
"$CLI" --socket "$SOCK" trace > /dev/null # human dump must not crash

if command -v python3 > /dev/null 2>&1; then
    "$CLI" --socket "$SOCK" trace --json > "$TRACE_JSON.cli"
    python3 -m json.tool < "$TRACE_JSON.cli" > /dev/null
    python3 - "$TRACE_JSON.cli" << 'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "no trace events exported"
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete spans in trace"
for e in spans:
    for field in ("name", "pid", "tid", "ts", "dur"):
        assert field in e, f"span missing {field}: {e}"
names = {e["name"] for e in spans}
# The acceptance shape: one lookup spanning client -> transport ->
# service (the client half rides in on the piggyback channel).
for required in ("client.lookup", "ipc.round_trip", "ipc.handle",
                 "service.lookup"):
    assert required in names, f"missing {required} span: {sorted(names)}"
print(f"check.sh: trace export OK ({len(spans)} spans, "
      f"{len(events) - len(spans)} other events)")
EOF
    rm -f "$TRACE_JSON.cli"

    # SIGUSR1 must produce the same well-formed document from the
    # daemon side.
    kill -USR1 "$DAEMON_PID"
    for _ in $(seq 1 50); do
        [ -s "$TRACE_JSON" ] && break
        sleep 0.1
    done
    [ -s "$TRACE_JSON" ] || {
        echo "check.sh: SIGUSR1 produced no trace dump" >&2
        exit 1
    }
    python3 -m json.tool < "$TRACE_JSON" > /dev/null
    echo "check.sh: SIGUSR1 trace dump OK"
else
    echo "check.sh: python3 unavailable; skipping trace JSON validation"
fi

echo "check.sh: trace smoke test passed"

# ---- shm ring transport smoke test -------------------------------------
# First half: the same sanitized daemon, reached over the shared-memory
# ring. The CLI's --shm flag negotiates the upgrade on every
# invocation, so the commands below run the fd-passing handshake, the
# ring marshalling (including the batched verbs' sendFrameDirect path)
# and the futex doorbells under the sanitizer.
"$CLI" --socket "$SOCK" --shm register shmfn vec
"$CLI" --socket "$SOCK" --shm put shmfn vec 1,2,3 uno
"$CLI" --socket "$SOCK" --shm mput shmfn vec 4,5,6=dos 7,8,9=tres
"$CLI" --socket "$SOCK" --shm mget shmfn vec 1,2,3 4,5,6 7,8,9
"$CLI" --socket "$SOCK" --shm get shmfn vec 1,2,3
echo "check.sh: shm ring smoke OK (sanitized daemon, --shm client)"

# Second half: a fault-build daemon that refuses every shm handshake
# (POTLUCK_IPC_FAULTS=refuse_shm=1.0). The same --shm workload must
# keep succeeding — the refusal nack silently continues the stream
# over UDS; it is a fallback, never an error.
RSOCK="$(mktemp -u /tmp/potluck_shmref_XXXXXX.sock)"
POTLUCK_IPC_FAULTS="refuse_shm=1.0" \
    "$FAULT_BUILD/tools/potluckd" --socket "$RSOCK" --stats-sec 0 \
    --dropout 0 &
RPID=$!
cleanup_shm() {
    kill "$RPID" 2>/dev/null || true
    wait "$RPID" 2>/dev/null || true
    rm -f "$RSOCK" "$RSOCK.trace.json"
    cleanup
}
trap cleanup_shm EXIT

for _ in $(seq 1 50); do
    [ -S "$RSOCK" ] && break
    sleep 0.1
done
[ -S "$RSOCK" ] || { echo "check.sh: refuse-shm daemon did not start" >&2; exit 1; }

"$FAULT_BUILD/tools/potluck_cli" --socket "$RSOCK" --shm register shmfall vec
"$FAULT_BUILD/tools/potluck_cli" --socket "$RSOCK" --shm \
    mput shmfall vec 1,2,3=uno 4,5,6=dos
"$FAULT_BUILD/tools/potluck_cli" --socket "$RSOCK" --shm \
    mget shmfall vec 1,2,3 4,5,6
echo "check.sh: refused shm handshake fell back to UDS OK"
kill "$RPID" 2>/dev/null || true
wait "$RPID" 2>/dev/null || true

# A daemon started with --no-shm must refuse the same way.
NSOCK="$(mktemp -u /tmp/potluck_noshm_XXXXXX.sock)"
"$DAEMON" --socket "$NSOCK" --no-shm --stats-sec 0 --dropout 0 &
NPID=$!
cleanup_noshm() {
    kill "$NPID" 2>/dev/null || true
    wait "$NPID" 2>/dev/null || true
    rm -f "$NSOCK" "$NSOCK.trace.json"
    cleanup_shm
}
trap cleanup_noshm EXIT
for _ in $(seq 1 50); do
    [ -S "$NSOCK" ] && break
    sleep 0.1
done
[ -S "$NSOCK" ] || { echo "check.sh: --no-shm daemon did not start" >&2; exit 1; }
"$CLI" --socket "$NSOCK" --shm register noshmfn vec
"$CLI" --socket "$NSOCK" --shm put noshmfn vec 1,2,3 x
"$CLI" --socket "$NSOCK" --shm get noshmfn vec 1,2,3
echo "check.sh: --no-shm daemon serves --shm clients over UDS"
kill "$NPID" 2>/dev/null || true
wait "$NPID" 2>/dev/null || true

echo "check.sh: shm transport stage passed"

# ---- cluster federation smoke test ------------------------------------
# Boot a 3-daemon full mesh (DESIGN.md §11), write a batch through one
# node, and read it back through the other two: every key's slot owner
# holds the replica, so the cross-node mgets must fully hit, and the
# summed cluster_remote_hit across the mesh must be positive (which
# node forwards is hash-determined, so only the SUM is deterministic).
CSOCK1="$(mktemp -u /tmp/potluck_cluster1_XXXXXX.sock)"
CSOCK2="$(mktemp -u /tmp/potluck_cluster2_XXXXXX.sock)"
CSOCK3="$(mktemp -u /tmp/potluck_cluster3_XXXXXX.sock)"

"$DAEMON" --socket "$CSOCK1" --peers "$CSOCK2,$CSOCK3" --cluster-tag c1 \
    --stats-sec 0 --dropout 0 &
CPID1=$!
"$DAEMON" --socket "$CSOCK2" --peers "$CSOCK1,$CSOCK3" --cluster-tag c2 \
    --stats-sec 0 --dropout 0 &
CPID2=$!
"$DAEMON" --socket "$CSOCK3" --peers "$CSOCK1,$CSOCK2" --cluster-tag c3 \
    --stats-sec 0 --dropout 0 &
CPID3=$!
cleanup_cluster() {
    kill "$CPID1" "$CPID2" "$CPID3" 2>/dev/null || true
    wait "$CPID1" "$CPID2" "$CPID3" 2>/dev/null || true
    rm -f "$CSOCK1" "$CSOCK2" "$CSOCK3" \
        "$CSOCK1.trace.json" "$CSOCK2.trace.json" "$CSOCK3.trace.json"
    cleanup_noshm
}
trap cleanup_cluster EXIT

for s in "$CSOCK1" "$CSOCK2" "$CSOCK3"; do
    for _ in $(seq 1 50); do
        [ -S "$s" ] && break
        sleep 0.1
    done
    [ -S "$s" ] || { echo "check.sh: cluster daemon did not start" >&2; exit 1; }
done
# Links to daemons that came up later start with a failed connect;
# wait out the breaker cooldown so first use is a clean half-open probe.
sleep 1.2

"$CLI" --socket "$CSOCK1" mput fed_demo vec 1,2,3=alpha 4,5,6=beta 7,8,9=gamma
sleep 1 # async replication fan-out reaches the slot owners
"$CLI" --socket "$CSOCK2" mget fed_demo vec 1,2,3 4,5,6 7,8,9
"$CLI" --socket "$CSOCK3" mget fed_demo vec 1,2,3 4,5,6 7,8,9
"$CLI" --socket "$CSOCK1" peers # must render without crashing
"$CLI" --socket "$CSOCK2" peers --json > /dev/null

REMOTE_HITS=0
for s in "$CSOCK1" "$CSOCK2" "$CSOCK3"; do
    v="$("$CLI" --socket "$s" stats --prom |
        awk '$1 == "cluster_remote_hit_total" { print $2 }')"
    REMOTE_HITS=$((REMOTE_HITS + ${v:-0}))
done
[ "$REMOTE_HITS" -gt 0 ] || {
    echo "check.sh: no cross-node remote hits recorded" >&2
    exit 1
}
echo "check.sh: cluster smoke OK ($REMOTE_HITS remote hits across mesh)"

# Kill one node: the survivors must keep serving (exit 0 hit or 2
# miss — never 1, which would mean the dead peer broke the hot path).
kill "$CPID2" && wait "$CPID2" 2>/dev/null || true
"$CLI" --socket "$CSOCK1" get fed_demo vec 1,2,3 || [ $? -eq 2 ]
"$CLI" --socket "$CSOCK3" get fed_demo vec 4,5,6 || [ $? -eq 2 ]
echo "check.sh: cluster degrades to local-only with a dead peer"

# ---- HTTP observability smoke test -------------------------------------
# 2-daemon mesh with the embedded exporter on kernel-assigned loopback
# ports (parsed from the startup log line). /healthz must report 200
# while the mesh is healthy, then 503 once a SIGSTOPped peer trips the
# breaker; /metrics must pass a strict Prometheus text-format lint.
HSOCK_A="$(mktemp -u /tmp/potluck_http_a_XXXXXX.sock)"
HSOCK_B="$(mktemp -u /tmp/potluck_http_b_XXXXXX.sock)"
HLOG_A="$(mktemp /tmp/potluck_http_a_XXXXXX.log)"
HLOG_B="$(mktemp /tmp/potluck_http_b_XXXXXX.log)"
HMETRICS="$(mktemp /tmp/potluck_http_metrics_XXXXXX.txt)"

"$DAEMON" --socket "$HSOCK_A" --peers "$HSOCK_B" --cluster-tag ha \
    --stats-sec 0 --dropout 0 --http-port 0 > "$HLOG_A" &
HPID_A=$!
"$DAEMON" --socket "$HSOCK_B" --peers "$HSOCK_A" --cluster-tag hb \
    --stats-sec 0 --dropout 0 --http-port 0 > "$HLOG_B" &
HPID_B=$!
cleanup_http() {
    kill -CONT "$HPID_B" 2>/dev/null || true
    kill "$HPID_A" "$HPID_B" 2>/dev/null || true
    wait "$HPID_A" "$HPID_B" 2>/dev/null || true
    rm -f "$HSOCK_A" "$HSOCK_B" "$HLOG_A" "$HLOG_B" "$HMETRICS"
    cleanup_cluster
}
trap cleanup_http EXIT

for s in "$HSOCK_A" "$HSOCK_B"; do
    for _ in $(seq 1 50); do
        [ -S "$s" ] && break
        sleep 0.1
    done
    [ -S "$s" ] || { echo "check.sh: http daemon did not start" >&2; exit 1; }
done
HPORT_A=""
for _ in $(seq 1 50); do
    HPORT_A="$(sed -n 's/.*http exporter on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
        "$HLOG_A")"
    [ -n "$HPORT_A" ] && break
    sleep 0.1
done
[ -n "$HPORT_A" ] || {
    echo "check.sh: daemon never logged its http port" >&2
    exit 1
}
sleep 1.2 # breaker cooldown for the link that connected first

# Seed some traffic so the export carries live lookup/heat samples.
"$CLI" --socket "$HSOCK_A" register httpfn vec
"$CLI" --socket "$HSOCK_A" put httpfn vec 1,2,3 hello
"$CLI" --socket "$HSOCK_A" get httpfn vec 1,2,3
"$CLI" --socket "$HSOCK_A" get httpfn vec 1,2,3

CODE="$(curl -sf -o /dev/null -w '%{http_code}' \
    "http://127.0.0.1:$HPORT_A/healthz")"
[ "$CODE" = "200" ] || {
    echo "check.sh: healthy mesh returned /healthz $CODE, wanted 200" >&2
    exit 1
}

curl -sf "http://127.0.0.1:$HPORT_A/metrics" > "$HMETRICS"
if command -v python3 > /dev/null 2>&1; then
    curl -sf "http://127.0.0.1:$HPORT_A/varz" | python3 -m json.tool > /dev/null
    curl -sf "http://127.0.0.1:$HPORT_A/hot" | python3 -m json.tool > /dev/null
    python3 - "$HMETRICS" << 'EOF'
import re, sys

text = open(sys.argv[1]).read()
helped, typed = set(), {}
for lineno, line in enumerate(text.splitlines(), 1):
    if line.startswith("# HELP "):
        helped.add(line.split()[2])
    elif line.startswith("# TYPE "):
        parts = line.split()
        typed[parts[2]] = parts[3]
    elif line.startswith("#") or not line.strip():
        continue
    else:
        m = re.match(r"[a-zA-Z_:][a-zA-Z0-9_:]*", line)
        assert m, f"line {lineno}: unparseable sample: {line!r}"
        name = m.group(0)
        families = [name] + [
            name[: -len(suf)]
            for suf in ("_sum", "_count", "_bucket")
            if name.endswith(suf)
        ]
        assert any(f in typed for f in families), \
            f"line {lineno}: sample {name} has no preceding # TYPE"
        assert any(f in helped for f in families), \
            f"line {lineno}: sample {name} has no preceding # HELP"
for required in ("potluck_build_info", "process_uptime_seconds",
                 "service_saved_ms_total", "heat_tracked_slots",
                 "service_lookups_total"):
    assert required in typed, f"missing required family: {required}"
assert re.search(
    r'potluck_build_info\{[^}]*version="[^"]+"[^}]*\} 1', text), \
    "potluck_build_info gauge missing labels or value"
print(f"check.sh: /metrics lint OK ({len(typed)} families)")
EOF
else
    echo "check.sh: python3 unavailable; skipping /metrics lint"
fi

# Freeze B. Forwarded lookups from A now time out; after 3 consecutive
# failures A's breaker opens and /healthz must degrade to 503. With 2
# nodes roughly half the slots hash to B, so a spread of 16 distinct
# function names guarantees some lookups forward. Register them while
# the mesh is still healthy — lookups on unregistered functions are
# request errors and never reach the forwarding path.
for i in $(seq 1 16); do
    "$CLI" --socket "$HSOCK_A" register "httptrip_$i" vec > /dev/null
done
kill -STOP "$HPID_B"
CODE=""
for _ in $(seq 1 30); do
    for i in $(seq 1 16); do
        "$CLI" --socket "$HSOCK_A" get "httptrip_$i" vec 9,9,9 \
            > /dev/null 2>&1 || true
    done
    CODE="$(curl -s -o /dev/null -w '%{http_code}' \
        "http://127.0.0.1:$HPORT_A/healthz")"
    [ "$CODE" = "503" ] && break
    sleep 0.2
done
[ "$CODE" = "503" ] || {
    echo "check.sh: breaker never degraded /healthz (last code $CODE)" >&2
    exit 1
}
echo "check.sh: http stage OK (/healthz 200 -> 503 after peer freeze)"

kill -CONT "$HPID_B" 2>/dev/null || true
kill "$HPID_A" "$HPID_B" 2>/dev/null || true
wait "$HPID_A" "$HPID_B" 2>/dev/null || true

# ---- tiered-store warm-restart smoke test ------------------------------
# Start a daemon on a fresh --store-dir, write a batch, SIGKILL it (no
# clean shutdown: the segment log and page cache are all that survive),
# restart on the same directory, and require every pre-kill entry to
# hit — served by promotion from the cold tier, not recomputed
# (DESIGN.md §12). The restarted daemon is never sent `register`, so a
# hit also proves Registration records replay from the log.
STORE_DIR="$(mktemp -d /tmp/potluck_store_XXXXXX)"
SSOCK="$(mktemp -u /tmp/potluck_store_XXXXXX.sock)"

"$DAEMON" --socket "$SSOCK" --store-dir "$STORE_DIR" --stats-sec 0 \
    --dropout 0 &
SPID=$!
cleanup_store() {
    kill -9 "$SPID" 2>/dev/null || true
    wait "$SPID" 2>/dev/null || true
    rm -rf "$STORE_DIR" "$SSOCK"
    cleanup_http
}
trap cleanup_store EXIT

for _ in $(seq 1 50); do
    [ -S "$SSOCK" ] && break
    sleep 0.1
done
[ -S "$SSOCK" ] || { echo "check.sh: store daemon did not start" >&2; exit 1; }

"$CLI" --socket "$SSOCK" register warmres vec
"$CLI" --socket "$SSOCK" mput warmres vec 1,1,1=one 2,2,2=two 3,3,3=three
"$CLI" --socket "$SSOCK" store             # must render without crashing
"$CLI" --socket "$SSOCK" store --json | python3 -m json.tool > /dev/null \
    || [ "$(command -v python3)" = "" ]

# SIGKILL: no snapshot, no sidecar rewrite, no msync.
kill -9 "$SPID"
wait "$SPID" 2>/dev/null || true
rm -f "$SSOCK"

"$DAEMON" --socket "$SSOCK" --store-dir "$STORE_DIR" --stats-sec 0 \
    --dropout 0 &
SPID=$!
for _ in $(seq 1 50); do
    [ -S "$SSOCK" ] && break
    sleep 0.1
done
[ -S "$SSOCK" ] || { echo "check.sh: store daemon did not restart" >&2; exit 1; }

# mget exits non-zero if any key misses: all three must hit.
"$CLI" --socket "$SSOCK" mget warmres vec 1,1,1 2,2,2 3,3,3
PROMOTED="$("$CLI" --socket "$SSOCK" stats --prom |
    awk '$1 == "store_promotions_total" { print $2 }')"
[ "${PROMOTED:-0}" -ge 3 ] || {
    echo "check.sh: restarted daemon did not serve from the cold tier" >&2
    exit 1
}
echo "check.sh: store warm-restart smoke OK ($PROMOTED promotions after SIGKILL)"

# ---- chaos stage: bit-rot -> scrub -> quarantine -> peer repair --------
# Two fault-build daemons in a mesh. A's store rots one byte of each of
# the first three appended frames (deterministic under the fixed seed);
# B holds clean replicas. After an on-demand scrub quarantines the rot,
# A's once-a-second anti-entropy tick must re-fetch the entries from B
# and serve them again — the full self-healing loop, end to end.
FDAEMON="$FAULT_BUILD/tools/potluckd"
FCLI="$FAULT_BUILD/tools/potluck_cli"
CHAOS_DIR_A="$(mktemp -d /tmp/potluck_chaos_a_XXXXXX)"
CHAOS_DIR_B="$(mktemp -d /tmp/potluck_chaos_b_XXXXXX)"
XSOCK_A="$(mktemp -u /tmp/potluck_chaos_a_XXXXXX.sock)"
XSOCK_B="$(mktemp -u /tmp/potluck_chaos_b_XXXXXX.sock)"

# --max-entries 1 demotes everything but the newest entry to the cold
# tier: the scrubber only verifies non-resident frames.
POTLUCK_FS_FAULTS="bit_flip=1.0,max_bit_flips=3,seed=7" \
    "$FDAEMON" --socket "$XSOCK_A" --store-dir "$CHAOS_DIR_A" \
    --max-entries 1 --peers "$XSOCK_B" --cluster-tag xa \
    --stats-sec 0 --dropout 0 &
XPID_A=$!
"$FDAEMON" --socket "$XSOCK_B" --store-dir "$CHAOS_DIR_B" \
    --peers "$XSOCK_A" --cluster-tag xb --stats-sec 0 --dropout 0 &
XPID_B=$!
cleanup_chaos() {
    kill "$XPID_A" "$XPID_B" 2>/dev/null || true
    wait "$XPID_A" "$XPID_B" 2>/dev/null || true
    rm -rf "$CHAOS_DIR_A" "$CHAOS_DIR_B"
    rm -f "$XSOCK_A" "$XSOCK_B"
    cleanup_store
}
trap cleanup_chaos EXIT

for s in "$XSOCK_A" "$XSOCK_B"; do
    for _ in $(seq 1 50); do
        [ -S "$s" ] && break
        sleep 0.1
    done
    [ -S "$s" ] || { echo "check.sh: chaos daemon did not start" >&2; exit 1; }
done
sleep 1.2 # breaker cooldown for the link that connected first

"$FCLI" --socket "$XSOCK_A" register chaos vec
"$FCLI" --socket "$XSOCK_A" mput chaos vec \
    1,0,0=one 2,0,0=two 3,0,0=three 4,0,0=four 5,0,0=five 6,0,0=six
sleep 1 # replicas fan out to B

"$FCLI" --socket "$XSOCK_A" scrub # quarantines the rotted frames
"$FCLI" --socket "$XSOCK_A" scrub --json > /dev/null
CORRUPT="$("$FCLI" --socket "$XSOCK_A" stats --prom |
    awk '$1 == "store_scrub_corrupt_total" { print $2 }')"
[ "${CORRUPT:-0}" -ge 1 ] || {
    echo "check.sh: scrub found no injected bit-rot" >&2
    exit 1
}

# The anti-entropy tick fires once a second; give it two.
sleep 2.5
REPAIRED="$("$FCLI" --socket "$XSOCK_A" stats --prom |
    awk '$1 == "cluster_repair_hits_total" { print $2 }')"
[ "${REPAIRED:-0}" -ge 1 ] || {
    echo "check.sh: no quarantined entry was repaired from the replica" >&2
    exit 1
}
# The healed entries are served again — mget exits non-zero on any miss.
"$FCLI" --socket "$XSOCK_A" mget chaos vec 1,0,0 2,0,0 3,0,0 4,0,0 5,0,0 6,0,0
echo "check.sh: chaos stage OK ($CORRUPT frames rotted, $REPAIRED repaired from peer)"

kill "$XPID_A" "$XPID_B" 2>/dev/null || true
wait "$XPID_A" "$XPID_B" 2>/dev/null || true

# ---- fault stage: ENOSPC degrades to RAM-only, daemon survives ---------
ENO_DIR="$(mktemp -d /tmp/potluck_enospc_XXXXXX)"
ENO_SOCK="$(mktemp -u /tmp/potluck_enospc_XXXXXX.sock)"
POTLUCK_FS_FAULTS="write_enospc=1.0" \
    "$FDAEMON" --socket "$ENO_SOCK" --store-dir "$ENO_DIR" \
    --stats-sec 0 --dropout 0 &
ENO_PID=$!
cleanup_enospc() {
    kill "$ENO_PID" 2>/dev/null || true
    wait "$ENO_PID" 2>/dev/null || true
    rm -rf "$ENO_DIR"
    rm -f "$ENO_SOCK"
    cleanup_chaos
}
trap cleanup_enospc EXIT

for _ in $(seq 1 50); do
    [ -S "$ENO_SOCK" ] && break
    sleep 0.1
done
[ -S "$ENO_SOCK" ] || { echo "check.sh: enospc daemon did not start" >&2; exit 1; }

# Every write-through fails, but the puts themselves must succeed
# (exit 0) and the entries must be served from RAM (exit 0 on get).
"$FCLI" --socket "$ENO_SOCK" register full vec
"$FCLI" --socket "$ENO_SOCK" mput full vec 1,1,1=a 2,2,2=b 3,3,3=c
"$FCLI" --socket "$ENO_SOCK" get full vec 1,1,1
DEGRADED="$("$FCLI" --socket "$ENO_SOCK" stats --prom |
    awk '$1 == "store_write_degraded_total" { print $2 }')"
[ "${DEGRADED:-0}" -ge 1 ] || {
    echo "check.sh: full disk did not count degraded writes" >&2
    exit 1
}
kill -0 "$ENO_PID" || {
    echo "check.sh: daemon died on a full disk" >&2
    exit 1
}
echo "check.sh: ENOSPC stage OK (daemon alive, $DEGRADED degraded writes)"
kill "$ENO_PID" 2>/dev/null || true
wait "$ENO_PID" 2>/dev/null || true

# ---- UndefinedBehaviorSanitizer store stage ----------------------------
# The store's frame arithmetic on raw mmap'd bytes is where UB hides;
# run its suites under UBSan on every check.
if [ "$SANITIZER" != "undefined" ]; then
    UBSAN_BUILD="$ROOT/build-undefined"
    cmake -S "$ROOT" -B "$UBSAN_BUILD" -DPOTLUCK_SANITIZE=undefined \
        -DPOTLUCK_FAULT_INJECTION=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS=-Werror
    cmake --build "$UBSAN_BUILD" -j "$(nproc)" \
        --target store_test store_warm_restart_test store_scrub_test
    "$UBSAN_BUILD/tests/store_test"
    "$UBSAN_BUILD/tests/store_warm_restart_test"
    "$UBSAN_BUILD/tests/store_scrub_test"
    echo "check.sh: store suites clean under UBSan"
fi

# ---- ThreadSanitizer concurrency stage --------------------------------
# The full suite already ran under TSan when that was the requested
# sanitizer; otherwise build just the stress test under TSan and run
# it, so every check proves the service's domain locking race-free.
if [ "$SANITIZER" != "thread" ]; then
    TSAN_BUILD="$ROOT/build-thread"
    cmake -S "$ROOT" -B "$TSAN_BUILD" -DPOTLUCK_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCMAKE_CXX_FLAGS=-Werror
    cmake --build "$TSAN_BUILD" -j "$(nproc)" --target stress_test
    "$TSAN_BUILD/tests/stress_test"
    echo "check.sh: stress test clean under ThreadSanitizer"
fi
