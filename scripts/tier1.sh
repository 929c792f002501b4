#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green.
#
#  1. Release build with warnings as errors (-DVIXNOC_WERROR=ON) + full
#     ctest suite;
#  2. ThreadSanitizer build (-DVIXNOC_SANITIZE=thread) running sweep_test,
#     which drives SweepRunner at 1/2/8 threads, and exec_test, which drives
#     the subprocess coordinator on the same pool — any data race in the
#     parallel sweep path fails the script;
#  3. ASan+UBSan build (-DVIXNOC_SANITIZE=address,undefined) running the
#     fault/robustness/sweep tests — the error-recovery paths (SimError
#     unwinding out of half-built networks, watchdog aborts mid-run,
#     fault-schedule sampling) are exactly where leaks and UB would hide —
#     and the VA tests, whose word windows are where a shift by 64 would;
#  4. telemetry gate: telemetry_test (pins bitwise identity of
#     telemetry-off runs against frozen goldens AND off-vs-on identity),
#     then a bench_ext_telemetry run whose JSONL packet trace is
#     schema-validated with python3 (skipped if python3 is absent);
#  5. checkpoint/restore gate (snapshot_test + CLI save/kill/resume + bench
#     point-cache resume, all byte-compared);
#  6. golden-arms identity gate: every topology x scheme arm re-run through
#     noc_explorer and cmp'd against tests/golden/prerewrite_arms.csv — the
#     bitmask/SoA hot path must stay bitwise identical to the scalar one —
#     then re-run with an explicit routing=dor flag and cmp'd again: the
#     table-driven routing plugin must not perturb a single byte;
#  7. process-isolation gate: exec_test (injected worker crashes, hangs,
#     bad frames, retry/backoff, fallback), then a real sweep run twice —
#     isolate=process vs in-process — with a field-by-field JSON compare
#     of every result row: crash isolation must not change a single
#     number; then isolate=process over a point cache, twice: the second
#     run must resume every point, mark every row from_cache, and still
#     match the in-process rows;
#  8. front-end gate: one short noc_explorer sweep=1 run through the
#     sweep backend in-process, with isolate=process and over a result
#     store twice (the second run must resume every point); every CSV
#     must be byte-identical to the in-process one, server= with
#     checkpoint= must be refused with exit 2, and server= with no daemon
#     behind it must fail within 2 s;
#  9. service gate: a real vixnocd daemon is started on a Unix socket and
#     the same sweep is run twice through vixnoc_client — run 2 must be
#     served 100% from the content-addressed result store with every
#     result field identical to run 1 — and the front-end gate's sweep is
#     run once more with server= and cmp'd; the daemon must drain to a
#     clean exit 0 on the shutdown frame;
# 10. perf smoke gate: bench_sim_speed compared against the committed
#     trajectory (BENCH_sim_speed.json) via scripts/bench_trajectory.py;
#     the trajectory includes the sweep_process arm, so subprocess-mode
#     throughput is gated alongside the in-process arms.
#
# Usage: scripts/tier1.sh [build-dir-prefix]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"

echo "== tier1: build + ctest (${PREFIX}) =="
cmake -B "${PREFIX}" -S . -DCMAKE_BUILD_TYPE=Release -DVIXNOC_WERROR=ON
cmake --build "${PREFIX}" -j
(cd "${PREFIX}" && ctest --output-on-failure -j)

echo "== tier1: ThreadSanitizer sweep_test (${PREFIX}-tsan) =="
cmake -B "${PREFIX}-tsan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVIXNOC_SANITIZE=thread
cmake --build "${PREFIX}-tsan" -j --target sweep_test alloc_equiv_test \
  routing_test serenade_test store_test server_test snapshot_test \
  path_golden_test exec_test
"${PREFIX}-tsan/tests/sweep_test"
# exec_test drives SweepCoordinator's slot threads (spawn, frames, inline
# retries, in-process fallback) on the SweepRunner pool. The hang case is
# left to the Release and ASan stages: the TSAN-built worker is too slow
# for its 0.4 s deadline.
"${PREFIX}-tsan/tests/exec_test" \
  --gtest_filter=-SweepCoordinatorTest.HangPointIsKilledAndClassifiedTimeout
# alloc_equiv_test now sweeps radixes 2..70 (multi-word rows included), so
# the large-radix word-parallel paths run under the sanitizer too, as does
# every scheme's idle replay (AdvanceIdle).
"${PREFIX}-tsan/tests/alloc_equiv_test"
# snapshot_test and path_golden_test drive sleeping routers, parked heads
# and cached routes through checkpoints, crafted restores and the frozen
# goldens of the non-default router paths.
"${PREFIX}-tsan/tests/snapshot_test"
"${PREFIX}-tsan/tests/path_golden_test"
# routing_test drives the adaptive arm through SweepRunner at 1/2/8
# threads and the subprocess coordinator — the candidate-selection VA
# path must be as race-free as the deterministic one.
"${PREFIX}-tsan/tests/routing_test"
# serenade_test pins the randomized allocator's determinism contract at
# 1/2/8 threads and across the subprocess coordinator — the per-router
# RNG streams must stay race-free and bitwise stable.
"${PREFIX}-tsan/tests/serenade_test"
# store_test hammers the result store from concurrent writers; server_test
# drives the daemon's accept/conn/compute threads, single-flight map and
# drain logic — the whole service layer must be race-free.
"${PREFIX}-tsan/tests/store_test"
"${PREFIX}-tsan/tests/server_test"

echo "== tier1: ASan+UBSan fault/robustness tests (${PREFIX}-asan) =="
cmake -B "${PREFIX}-asan" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVIXNOC_SANITIZE=address,undefined
cmake --build "${PREFIX}-asan" -j --target fault_test robustness_test \
  sweep_test alloc_equiv_test exec_test routing_test serenade_test \
  store_test server_test snapshot_test path_golden_test app_test trace_test \
  vc_assign_test va_organization_test atomic_vc_test vnet_test
"${PREFIX}-asan/tests/fault_test"
"${PREFIX}-asan/tests/robustness_test"
"${PREFIX}-asan/tests/sweep_test"
"${PREFIX}-asan/tests/alloc_equiv_test"
# snapshot_test under ASan+UBSan covers the crafted-input restores (every
# inflated count and out-of-range index must throw, never overrun), and
# path_golden_test the sleep/park/route-cache paths of every router mode.
"${PREFIX}-asan/tests/snapshot_test"
"${PREFIX}-asan/tests/path_golden_test"
"${PREFIX}-asan/tests/routing_test"
# serenade_test under ASan+UBSan covers the knot-decomposition walk, the
# snapshot save/load path, and the checkpoint/restore plumbing.
"${PREFIX}-asan/tests/serenade_test"
# exec_test under ASan covers the fork/exec/pipe plumbing and the
# coordinator's threads; the worker binary it spawns is the ASan build.
"${PREFIX}-asan/tests/exec_test"
# store_test/server_test under ASan+UBSan cover the snapshot container
# codec on hostile bytes (every truncation/corruption), the socket frame
# plumbing, and the daemon teardown paths; the vixnocd binary server_test
# SIGTERMs is the ASan build.
"${PREFIX}-asan/tests/store_test"
"${PREFIX}-asan/tests/server_test"
# app_test under ASan+UBSan covers the CLI config parser, the other place
# outside input (key=value arguments) enters a NetworkSimConfig.
"${PREFIX}-asan/tests/app_test"
# trace_test covers the trace-sim checkpoint codec: save, resume, and a
# crafted replay position that must throw, never overrun.
"${PREFIX}-asan/tests/trace_test"
# The VA stage picks output VCs from windows cut out of 64-bit words, the
# place a shift by 64 would be undefined: vc_assign_test drives windows
# that cross and exceed a word, and the VA-organization, atomic
# reallocation and message-class tests drive the same picks in networks.
"${PREFIX}-asan/tests/vc_assign_test"
"${PREFIX}-asan/tests/va_organization_test"
"${PREFIX}-asan/tests/atomic_vc_test"
"${PREFIX}-asan/tests/vnet_test"

echo "== tier1: telemetry gate (${PREFIX}) =="
# telemetry_test asserts (a) telemetry-off results are bitwise identical to
# the pre-telemetry goldens and (b) telemetry-on results are bitwise
# identical to telemetry-off — the zero-overhead contract.
"${PREFIX}/tests/telemetry_test"
TRACE_JSONL="${PREFIX}/telemetry_trace.jsonl"
"${PREFIX}/bench/bench_ext_telemetry" "trace=${TRACE_JSONL}" \
  "json=${PREFIX}/telemetry_bench_results.json"
if command -v python3 >/dev/null 2>&1; then
  python3 - "${TRACE_JSONL}" <<'EOF'
import json, sys
keys = {"packet", "event", "cycle", "router", "src", "dst"}
events = {"inject", "vc_alloc", "sa_grant", "eject"}
n = 0
with open(sys.argv[1]) as f:
    for line in f:
        ev = json.loads(line)
        assert set(ev) == keys, f"bad key set: {sorted(ev)}"
        assert ev["event"] in events, f"bad event kind: {ev['event']}"
        assert ev["cycle"] >= 0 and ev["packet"] >= 0 and ev["router"] >= -1
        n += 1
assert n > 0, "empty trace"
print(f"telemetry trace schema OK ({n} events)")
EOF
else
  echo "python3 not found; skipping JSONL schema validation"
fi

echo "== tier1: checkpoint/restore gate (${PREFIX}) =="
# snapshot_test pins the core contract (restore-then-run is bitwise
# identical to an uninterrupted run; corrupted checkpoints throw SimError).
"${PREFIX}/tests/snapshot_test"
# End-to-end save/kill/resume through the CLI: a run that checkpoints and a
# run restored from that checkpoint must produce byte-identical CSVs.
CKPT_DIR="${PREFIX}/ckpt_gate"
rm -rf "${CKPT_DIR}" && mkdir -p "${CKPT_DIR}"
EXPLORER="${PREFIX}/examples/noc_explorer"
COMMON=(rate=0.1 warmup=500 measure=1500 drain=500 seed=7)
"${EXPLORER}" "${COMMON[@]}" "csv=${CKPT_DIR}/straight.csv" >/dev/null
"${EXPLORER}" "${COMMON[@]}" "checkpoint=${CKPT_DIR}/state.ckpt" \
  checkpoint_every=900 "csv=${CKPT_DIR}/saving.csv" >/dev/null
"${EXPLORER}" "${COMMON[@]}" "restore=${CKPT_DIR}/state.ckpt" \
  "csv=${CKPT_DIR}/resumed.csv" >/dev/null
cmp "${CKPT_DIR}/straight.csv" "${CKPT_DIR}/saving.csv"
cmp "${CKPT_DIR}/straight.csv" "${CKPT_DIR}/resumed.csv"
echo "CLI save/restore CSVs byte-identical"
# Bench resume: an interrupted sweep re-run over its point cache must emit
# the same results as a straight run (field-by-field JSON compare).
BENCH="${PREFIX}/bench/bench_ext_telemetry"
if [ -x "${BENCH}" ] && command -v python3 >/dev/null 2>&1; then
  "${BENCH}" "json=${CKPT_DIR}/straight.json" >/dev/null
  "${BENCH}" "json=${CKPT_DIR}/first.json" \
    "checkpoint=${CKPT_DIR}/bench_cache" >/dev/null
  # Evict one entry from the content-addressed store so the re-run has to
  # recompute exactly that point while resuming all the others.
  EVICT="$(find "${CKPT_DIR}/bench_cache" -name '*.res' | sort | head -n 1)"
  rm -f "${EVICT}"
  "${BENCH}" "json=${CKPT_DIR}/resumed.json" \
    "checkpoint=${CKPT_DIR}/bench_cache" >/dev/null
  python3 - "${CKPT_DIR}/straight.json" "${CKPT_DIR}/resumed.json" <<'EOF'
import json, sys
straight = json.load(open(sys.argv[1]))
resumed = json.load(open(sys.argv[2]))
assert resumed.get("resumed_points", 0) > 0, "no points resumed from cache"
a, b = straight["results"], resumed["results"]
assert len(a) == len(b), f"point count differs: {len(a)} vs {len(b)}"
for i, (ra, rb) in enumerate(zip(a, b)):
    for key in sorted(set(ra) | set(rb)):
        assert ra.get(key) == rb.get(key), (
            f"point {i} field {key!r}: {ra.get(key)!r} != {rb.get(key)!r}")
print(f"bench resume results identical ({len(a)} points, "
      f"{resumed['resumed_points']} from cache)")
EOF
else
  echo "bench_ext_telemetry or python3 not found; skipping bench resume gate"
fi

echo "== tier1: golden-arms identity gate (${PREFIX}) =="
# Every topology x scheme arm, re-run and byte-compared against the frozen
# pre-rewrite CSV: the word-parallel/SoA hot path must produce exactly the
# same allocation decisions as the scalar implementation it replaced.
scripts/golden_arms.sh "${PREFIX}/examples/noc_explorer" \
  "${PREFIX}/golden_arms.csv"
cmp tests/golden/prerewrite_arms.csv "${PREFIX}/golden_arms.csv"
echo "golden arms bitwise-identical to tests/golden/prerewrite_arms.csv"
# Routing gate: the same 32 arms with the routing plugin named explicitly.
# routing=dor must reproduce the registry-default goldens byte for byte —
# the table-driven plugin path is a refactor, not a behaviour change.
scripts/golden_arms.sh "${PREFIX}/examples/noc_explorer" \
  "${PREFIX}/golden_arms_routing.csv" routing=dor
cmp tests/golden/prerewrite_arms.csv "${PREFIX}/golden_arms_routing.csv"
echo "routing=dor arms bitwise-identical to tests/golden/prerewrite_arms.csv"

echo "== tier1: process-isolation gate (${PREFIX}) =="
# exec_test drives SweepCoordinator against the real worker binary with
# injected crashes, hangs, nonzero exits and truncated frames: the batch
# must always complete, failures must be classified, retries must land on
# respawned workers, and every surviving result must be bitwise identical
# to a serial in-process run.
"${PREFIX}/tests/exec_test"
# A real sweep executed both ways must agree on every emitted field
# (exec-only provenance keys aside): process isolation is an execution
# detail, never a results change.
ISOL_DIR="${PREFIX}/isolation_gate"
rm -rf "${ISOL_DIR}" && mkdir -p "${ISOL_DIR}"
BENCH="${PREFIX}/bench/bench_ext_telemetry"
if [ -x "${BENCH}" ] && command -v python3 >/dev/null 2>&1; then
  "${BENCH}" "json=${ISOL_DIR}/inproc.json" >/dev/null
  "${BENCH}" "json=${ISOL_DIR}/isolated.json" isolate=process \
    point_timeout=120 >/dev/null
  python3 - "${ISOL_DIR}/inproc.json" "${ISOL_DIR}/isolated.json" <<'EOF'
import json, sys
inproc = json.load(open(sys.argv[1]))
isolated = json.load(open(sys.argv[2]))
exec_info = isolated.get("exec")
assert exec_info and exec_info.get("isolate") == "process", \
    "isolated run carries no exec provenance"
assert exec_info["fallback_points"] == 0, \
    f"worker unavailable: {exec_info['fallback_points']} points fell back"
assert exec_info["exhausted_points"] == 0, exec_info
a, b = inproc["results"], isolated["results"]
assert len(a) == len(b), f"point count differs: {len(a)} vs {len(b)}"
exec_keys = {"attempts", "from_cache", "in_process_fallback",
             "exec_failure", "exec_detail"}
for i, (ra, rb) in enumerate(zip(a, b)):
    for key in sorted((set(ra) | set(rb)) - exec_keys):
        assert ra.get(key) == rb.get(key), (
            f"point {i} field {key!r}: {ra.get(key)!r} != {rb.get(key)!r}")
print(f"isolate=process results identical to in-process ({len(a)} points, "
      f"{exec_info['workers_spawned']} worker(s) spawned)")
EOF
  # Cache provenance under isolation: the same sweep with a point cache,
  # run twice. The second run must be served entirely from the cache, say
  # so on every row, and still match the in-process numbers.
  "${BENCH}" "json=${ISOL_DIR}/cache_fill.json" isolate=process \
    point_timeout=120 "checkpoint=${ISOL_DIR}/cache" >/dev/null
  "${BENCH}" "json=${ISOL_DIR}/cache_resume.json" isolate=process \
    point_timeout=120 "checkpoint=${ISOL_DIR}/cache" >/dev/null
  python3 - "${ISOL_DIR}/inproc.json" "${ISOL_DIR}/cache_resume.json" <<'EOF'
import json, sys
inproc = json.load(open(sys.argv[1]))
resumed = json.load(open(sys.argv[2]))
a, b = inproc["results"], resumed["results"]
assert len(a) == len(b), f"point count differs: {len(a)} vs {len(b)}"
assert resumed["resumed_points"] == resumed["points"] == len(b), (
    f"resumed {resumed['resumed_points']} of {resumed['points']} points")
exec_keys = {"attempts", "from_cache", "in_process_fallback",
             "exec_failure", "exec_detail"}
for i, (ra, rb) in enumerate(zip(a, b)):
    assert rb.get("from_cache") is True, f"point {i} not from the cache"
    for key in sorted((set(ra) | set(rb)) - exec_keys):
        assert ra.get(key) == rb.get(key), (
            f"point {i} field {key!r}: {ra.get(key)!r} != {rb.get(key)!r}")
print(f"isolate=process resume served {len(b)}/{len(b)} points from the "
      "cache, results identical to in-process")
EOF
else
  echo "bench_ext_telemetry or python3 not found; skipping sweep compare"
fi

echo "== tier1: front-end gate (${PREFIX}) =="
# Where noc_explorer's sweep runs is an execution detail: every backend
# must write the in-process CSV byte for byte.
FE_DIR="${PREFIX}/frontend_gate"
rm -rf "${FE_DIR}" && mkdir -p "${FE_DIR}"
FE_SWEEP=(sweep=1 packet=4 warmup=200 measure=800 drain=400)
"${EXPLORER}" "${FE_SWEEP[@]}" "csv=${FE_DIR}/inproc.csv" >/dev/null
"${EXPLORER}" "${FE_SWEEP[@]}" isolate=process \
  "csv=${FE_DIR}/isolated.csv" >/dev/null
"${EXPLORER}" "${FE_SWEEP[@]}" "checkpoint=${FE_DIR}/store" \
  "csv=${FE_DIR}/fill.csv" >/dev/null
"${EXPLORER}" "${FE_SWEEP[@]}" "checkpoint=${FE_DIR}/store" \
  "csv=${FE_DIR}/resume.csv" >"${FE_DIR}/resume.out"
FE_POINTS=$(($(wc -l <"${FE_DIR}/inproc.csv") - 1))
grep -q "^resumed ${FE_POINTS}/${FE_POINTS} points" "${FE_DIR}/resume.out" \
  || { echo "checkpoint resume did not serve every point"; exit 1; }
for RUN in isolated fill resume; do
  cmp "${FE_DIR}/inproc.csv" "${FE_DIR}/${RUN}.csv"
done
FE_RC=0
"${EXPLORER}" sweep=1 "server=${FE_DIR}/none.sock" \
  "checkpoint=${FE_DIR}/refused" >/dev/null 2>&1 || FE_RC=$?
[ "${FE_RC}" -eq 2 ] && [ ! -e "${FE_DIR}/refused" ] \
  || { echo "server= with checkpoint= not refused (exit ${FE_RC})"; exit 1; }
# No daemon behind server=: the sweep must fail at once, not wait for one.
FE_RC=0
FE_START=$(date +%s%N)
"${EXPLORER}" sweep=1 "server=${FE_DIR}/none.sock" >/dev/null 2>&1 \
  || FE_RC=$?
FE_MS=$((($(date +%s%N) - FE_START) / 1000000))
[ "${FE_RC}" -ne 0 ] && [ "${FE_MS}" -lt 2000 ] \
  || { echo "server= with no daemon: exit ${FE_RC} after ${FE_MS} ms"; exit 1; }
echo "front-end gate: ${FE_POINTS}-point sweep identical in-process," \
  "isolated, filled and resumed; server=+checkpoint= refused;" \
  "server= with no daemon failed in ${FE_MS} ms"

echo "== tier1: service gate (${PREFIX}) =="
# A real vixnocd daemon serves the same sweep twice: run 1 populates the
# content-addressed store, run 2 must be answered entirely from it with
# every result field identical, and the shutdown frame must drain the
# daemon to a clean exit 0 with the socket unlinked.
VIXNOCD="${PREFIX}/src/app/vixnocd"
VIXCLIENT="${PREFIX}/src/app/vixnoc_client"
SVC_DIR="${PREFIX}/service_gate"
rm -rf "${SVC_DIR}" && mkdir -p "${SVC_DIR}"
if [ -x "${VIXNOCD}" ] && [ -x "${VIXCLIENT}" ] \
    && command -v python3 >/dev/null 2>&1; then
  "${VIXNOCD}" "socket=${SVC_DIR}/vixd.sock" "store=${SVC_DIR}/store" \
    threads=4 >"${SVC_DIR}/daemon.log" 2>&1 &
  VIXNOCD_PID=$!
  trap 'kill "${VIXNOCD_PID}" 2>/dev/null || true' EXIT
  SWEEP=(sweep "socket=${SVC_DIR}/vixd.sock" warmup=500 measure=1500 \
    drain=500)
  "${VIXCLIENT}" "${SWEEP[@]}" "json=${SVC_DIR}/run1.json" >/dev/null
  "${VIXCLIENT}" "${SWEEP[@]}" "json=${SVC_DIR}/run2.json" >/dev/null
  # The front-end gate's sweep, served by the daemon.
  "${EXPLORER}" "${FE_SWEEP[@]}" "server=${SVC_DIR}/vixd.sock" \
    "csv=${FE_DIR}/served.csv" >/dev/null
  cmp "${FE_DIR}/inproc.csv" "${FE_DIR}/served.csv"
  echo "noc_explorer server= sweep identical to in-process"
  "${VIXCLIENT}" shutdown "socket=${SVC_DIR}/vixd.sock" >/dev/null
  wait "${VIXNOCD_PID}"
  trap - EXIT
  [ ! -e "${SVC_DIR}/vixd.sock" ] || { echo "socket not unlinked"; exit 1; }
  python3 - "${SVC_DIR}/run1.json" "${SVC_DIR}/run2.json" <<'EOF'
import json, sys
run1 = json.load(open(sys.argv[1]))
run2 = json.load(open(sys.argv[2]))
assert run1["errors"] == 0 and run2["errors"] == 0, "daemon-side errors"
assert run2["points"] > 0, "empty sweep"
assert run2["store_hits"] == run2["points"] and run2["computed"] == 0, (
    f"run 2 must be 100% store hits: {run2['store_hits']}/{run2['points']} "
    f"hits, {run2['computed']} computed")
a, b = run1["results"], run2["results"]
assert len(a) == len(b), f"point count differs: {len(a)} vs {len(b)}"
for i, (ra, rb) in enumerate(zip(a, b)):
    for key in sorted((set(ra) | set(rb)) - {"source"}):
        assert ra.get(key) == rb.get(key), (
            f"point {i} field {key!r}: {ra.get(key)!r} != {rb.get(key)!r}")
print(f"service gate: run 2 served {run2['store_hits']}/{run2['points']} "
      "points from the store, results identical; daemon drained to exit 0")
EOF
else
  echo "vixnocd/vixnoc_client/python3 not found; skipping service gate"
fi

echo "== tier1: perf smoke gate (${PREFIX}) =="
# bench_sim_speed against the committed trajectory. The smoke tolerance is
# deliberately loose (50%) so CI noise never flakes the gate while a real
# return-to-scalar regression (the committed entries are 2x+ apart) still
# fails loudly. Use the default 10% tolerance when benchmarking by hand.
if command -v python3 >/dev/null 2>&1; then
  "${PREFIX}/bench/bench_sim_speed" "json=${PREFIX}/perf_smoke.json" \
    >/dev/null
  python3 scripts/bench_trajectory.py check \
    --results "${PREFIX}/perf_smoke.json" --max-regression 0.5
else
  echo "python3 not found; skipping perf smoke gate"
fi

echo "== tier1: OK =="
