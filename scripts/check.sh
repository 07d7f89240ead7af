#!/usr/bin/env bash
# Data-race check for the parallel pipeline: build with ThreadSanitizer and
# run the concurrency-sensitive suites (pool semantics + cross-thread-count
# determinism, plus the core pipeline tests that exercise every parallel
# stage, plus the stateful pipeline's full and partial rescans, plus the
# blocking plan's global-index walk against its pair-local mode, plus
# copy-on-write table handles written on many threads, plus concurrent
# predicts and concurrent updates through one serve engine and the whole
# socket transport, plus the 1-vs-8-thread
# solver determinism sweep for the wave-parallel k-MCA-CC branch-and-bound).
# Any TSan report fails the run (halt_on_error).
#
# Usage: scripts/check.sh [build-dir]     (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

# --- Service-layer lint (always on; no build needed). New code must use
# Status/StatusOr on fallible paths, not bool+out-param errors, and must
# never call std::abort() outside the AUTOBI_CHECK machinery itself.
lint_fail=0
if grep -rnE 'bool [A-Za-z_]+\([^)]*std::string\* *error' src/*/*.h; then
  echo "check.sh: LINT FAIL — bool+std::string* error out-param signature;" \
       "use Status/StatusOr (common/status.h) instead." >&2
  lint_fail=1
fi
if grep -rn 'std::abort()' src --include='*.cc' --include='*.h' \
    | grep -v 'src/common/check.h'; then
  echo "check.sh: LINT FAIL — bare std::abort() outside common/check.h;" \
       "use AUTOBI_CHECK for invariants or return a Status." >&2
  lint_fail=1
fi
[[ "$lint_fail" == "0" ]] || exit 1
echo "check.sh: service-layer lint clean."

# --- Solve-path lint (always on; no build needed). Stage 4 has one
# implementation, RunGlobalPredict in src/core/auto_bi.cc: no other
# production code may call the k-MCA-CC or EMS solvers directly.
if grep -rnE '\b(SolveKmcaCc|SolveEmsGreedy)\(' src \
    --include='*.cc' --include='*.h' \
    | grep -vE '^src/(graph|oracle|fuzz)/|^src/core/auto_bi\.cc:'; then
  echo "check.sh: LINT FAIL — SolveKmcaCc/SolveEmsGreedy called outside" \
       "src/graph/, src/oracle/, src/fuzz/ and src/core/auto_bi.cc;" \
       "run stage 4 through RunGlobalPredict instead." >&2
  exit 1
fi
echo "check.sh: solve-path lint clean (one stage-4 implementation)."

# --- Stage-2 path lint (always on; no build needed). IND discovery has one
# driver, DiscoverInds in src/profile/ind.cc: full and partial rescans both
# go through its blocking plan, so no other production code may scan a
# table pair itself.
if grep -rn 'ScanTablePair(' src --include='*.cc' --include='*.h' \
    | grep -vE '^src/profile/ind\.(h|cc):'; then
  echo "check.sh: LINT FAIL — ScanTablePair called outside" \
       "src/profile/ind.{h,cc}; run stage 2 through DiscoverInds instead." >&2
  exit 1
fi
echo "check.sh: stage-2 path lint clean (one IND driver)."

# --- Docs lint (always on; no build needed). Two rules:
#   1. Every src/<subsystem>/ directory must be named in the ARCHITECTURE.md
#      module map, so the map cannot silently go stale.
#   2. Relative *.md links in top-level markdown must resolve to real files.
docs_fail=0
for dir in src/*/; do
  name="$(basename "$dir")"
  if ! grep -q "src/$name" ARCHITECTURE.md; then
    echo "check.sh: DOCS FAIL — src/$name/ is not mentioned in" \
         "ARCHITECTURE.md; add it to the module map." >&2
    docs_fail=1
  fi
done
while IFS=: read -r file link; do
  target="${link%%#*}"
  [[ -z "$target" ]] && continue
  if [[ ! -e "$(dirname "$file")/$target" ]]; then
    echo "check.sh: DOCS FAIL — dead link '$link' in $file." >&2
    docs_fail=1
  fi
done < <(grep -oHE '\]\([^)]+\.md[^)]*\)' ./*.md \
           | sed -E 's/\]\(([^)]*)\)/\1/' \
           | grep -vE ':(https?|mailto)' || true)
[[ "$docs_fail" == "0" ]] || exit 1
echo "check.sh: docs lint clean (module map + markdown links)."

# --- Oracle lint (always on). The reference kernels of src/oracle/ are for
# tests/, src/fuzz and bench/ only: no library autobi_serve links, directly
# or transitively, may name autobi_oracle in its target_link_libraries, and
# the daemon binary built below must carry none of their symbols.
python3 - <<'PY'
import glob, re, sys
links = {}
for path in glob.glob("src/*/CMakeLists.txt"):
    text = re.sub(r"#[^\n]*", "", open(path).read())
    pattern = r"target_link_libraries\(\s*(\S+)([^)]*)\)"
    for target, body in re.findall(pattern, text):
        links.setdefault(target, []).extend(
            w for w in body.split() if w not in ("PUBLIC", "PRIVATE"))
seen, todo = set(), ["autobi_serve"]
while todo:
    target = todo.pop()
    for dep in links.get(target, []):
        if dep == "autobi_oracle":
            sys.exit(f"check.sh: LINT FAIL — {target} links autobi_oracle,"
                     " which puts the oracles into autobi_serve.")
        if dep not in seen:
            seen.add(dep)
            todo.append(dep)
PY

cmake -B "$BUILD_DIR" -S . -DAUTOBI_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target autobi_parallel_tests autobi_core_tests \
  autobi_incremental_tests autobi_integration_tests autobi_fuzz_tests \
  autobi_base_tests autobi_serve_tests autobi_serve
if nm -C "$BUILD_DIR/src/serve/autobi_serve" \
    | grep -E 'Legacy|BruteForce|ViaStringMap|ReadCsvOracle'; then
  echo "check.sh: LINT FAIL — oracle symbols in autobi_serve (above);" \
       "the daemon must not link src/oracle/." >&2
  exit 1
fi
echo "check.sh: oracle lint clean (link graph + autobi_serve symbols)."

export TSAN_OPTIONS="halt_on_error=1${TSAN_OPTIONS:+:$TSAN_OPTIONS}"
# Force multi-threaded execution even on small machines so races are reachable.
export AUTOBI_THREADS="${AUTOBI_THREADS:-4}"

"$BUILD_DIR/tests/autobi_parallel_tests"
"$BUILD_DIR/tests/autobi_core_tests"
# PredictIncremental at 1/2/8 threads: state reuse, composite key-set
# seeding and partial rescans race real pool workers here.
"$BUILD_DIR/tests/autobi_incremental_tests"
# The blocking plan's global-index walk, whose workers claim referenced
# columns from one counter and count hits in their own arrays, against the
# pair-local mode on every ordered pair, and on lakes of 50 to 400 tables.
# Neither test trains a model.
BLOCKING_FILTER='BlockingDifferentialTest.ScopedPlanMatchesGlobalPlan'
BLOCKING_FILTER+=':BlockingDifferentialTest.PlanPruningBoundsHoldAsLakesGrow'
"$BUILD_DIR/tests/autobi_integration_tests" --gtest_filter="$BLOCKING_FILTER"
# Table handles: copies share their columns through a reference count, and
# a write copies them first unless the count reads one, so threads writing
# their own copies of one table, and a write racing the release of the last
# other copy, check that count's ordering.
TABLE_FILTER='TableTest.*'
"$BUILD_DIR/tests/autobi_base_tests" --gtest_filter="$TABLE_FILTER"
# Concurrent predicts through one engine: two callers take indices from the
# regions of one shared pool, and their helpers outlive closed regions.
# Concurrent updates to one session: each edits its own copy of the table
# set outside the engine lock and installs it only over the set it started
# from, while incremental predicts read the sets it replaces. The whole
# socket transport: the accept loop joins connection threads by the done
# flag each sets as its last act, and client hang-ups, batched and chunked
# framing, an unterminated last line at EOF and the over-cap close all race
# the connection threads against shutdown.
SERVE_FILTER='ServeEngineTest.ConcurrentPredictsAreDeterministic'
SERVE_FILTER+=':ServeEngineTest.ConcurrentUpdatesToOneSessionApplyOnce'
SERVE_FILTER+=':ServeEngineTest.PredictIsByteIdenticalAcrossThreadCountsAndCacheState'
SERVE_FILTER+=':ServeTransportTest.*'
"$BUILD_DIR/tests/autobi_serve_tests" --gtest_filter="$SERVE_FILTER"

# Solver determinism under TSan: the wave-parallel branch-and-bound must be
# byte-identical (results and stats) at 1, 2, and 8 threads, with the
# parallel relaxation phase actually racing real pool workers, and the
# per-component solve stitched across pool workers must match the
# whole-graph solve. Runs the explicit-threads sweeps, then both suites
# again under the forced AUTOBI_THREADS=1 and =8 environment overrides.
SOLVER_FILTER='SolverDeterminismTest.*:PartitionSolveTest.*'
"$BUILD_DIR/tests/autobi_fuzz_tests" --gtest_filter="$SOLVER_FILTER"
AUTOBI_THREADS=1 "$BUILD_DIR/tests/autobi_fuzz_tests" \
  --gtest_filter="$SOLVER_FILTER"
AUTOBI_THREADS=8 "$BUILD_DIR/tests/autobi_fuzz_tests" \
  --gtest_filter="$SOLVER_FILTER"

echo "check.sh: ThreadSanitizer clean (pipeline, incremental, blocking plan," \
     "table handles, concurrent predicts and updates, socket transport," \
     "solver determinism, partitioned solve)."

# --- Kernel-oracle equivalence under ASan/UBSan (always on since PR 7):
# the hash-first profiling/UCC/IND kernels (table/key_view.h + radix-sorted
# aggregation) must stay bit-identical to the legacy string-map oracles of
# src/oracle/ on adversarial data, real 64-bit collisions, the REAL corpus,
# and TPC-H-via-DDL, with the key view's offsets and the row numbers a
# profile stores checked for memory and UB errors. The profile-merge tests
# run here too: an append merge reads the column's old rows through
# Column::KeyAt at the rows the old profile recorded.
ASAN_BUILD_DIR="${AUTOBI_ASAN_BUILD_DIR:-build-asan}"
cmake -B "$ASAN_BUILD_DIR" -S . -DAUTOBI_SANITIZE=address,undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
cmake --build "$ASAN_BUILD_DIR" -j --target autobi_profile_ml_tests \
  autobi_faultfuzz autobi_base_tests autobi_service_tests autobi_serve_tests \
  autobi_parallel_tests autobi_integration_tests
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/autobi_profile_ml_tests" \
  --gtest_filter='*KernelOracle*:TpchDdl*'
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/autobi_integration_tests" \
  --gtest_filter='*MergeEquivalenceTest.*:SketchTest.Merge*'
echo "check.sh: kernel-oracle equivalence and profile merge clean (ASan/UBSan)."

# --- Blocking plan under ASan/UBSan (always on): the global index's bucket
# offsets and per-worker hit counters, checked against the pair-local mode
# on every ordered pair (the same two tests as the TSan stage).
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/autobi_integration_tests" \
  --gtest_filter="$BLOCKING_FILTER"
echo "check.sh: blocking plan clean (ASan/UBSan)."

# --- Pool semantics under ASan/UBSan (always on): each ParallelFor region
# lives in shared state that helper tasks may reach after the caller has
# returned, so its lifetime is checked here, together with the
# cross-thread-count determinism suites.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/autobi_parallel_tests"
echo "check.sh: pool semantics clean (ASan/UBSan)."

# --- Table handles under ASan/UBSan (always on): a copy-on-write write
# gives its handle fresh columns and drops the shared ones, so a reference
# into storage a detached copy freed, or a session edit that frees the set
# a concurrent predict still reads, shows up here (the same tests as the
# TSan stage).
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/autobi_base_tests" --gtest_filter="$TABLE_FILTER"
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/tests/autobi_serve_tests" \
  --gtest_filter='ServeEngineTest.ConcurrentUpdatesToOneSessionApplyOnce'
echo "check.sh: table handles clean (ASan/UBSan)."

# --- Ingest path under ASan/UBSan (always on): the CSV reader does pointer
# arithmetic over untrusted bytes, so its unit tests, the differential test
# against the reference reader (src/oracle/csv_oracle.cc), the loader
# byte-fuzz, JSON string decoding and the socket framing (chunked, batched
# and over-cap lines) all run here.
INGEST_FILTER='CsvTest*:CsvOracle*:LoaderFuzz*:ServeJson*:ServeTransport*'
for t in autobi_base_tests autobi_service_tests autobi_serve_tests; do
  UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$ASAN_BUILD_DIR/tests/$t" --gtest_filter="$INGEST_FILTER"
done
echo "check.sh: ingest path clean (ASan/UBSan)."

# --- Schema-evolution differential smoke under ASan/UBSan (always on since
# PR 8): every case replays a random 1-8 step mutation sequence through
# AutoBi::PredictIncremental with a persistent IncrementalState and
# cross-checks a cold Predict after each step — any incremental/cold
# divergence, crash, leak, or UB fails the run. The incremental predicts
# get snapshots kept the way the daemon keeps them, append records
# included, so the record path of the schema diff is what is cross-checked.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/src/fuzz/autobi_faultfuzz" --seed 1 --cases 500 \
  --scenario schema
echo "check.sh: schema-evolution differential smoke clean (ASan/UBSan)."

# --- Lake blocking differential smoke under ASan/UBSan (always on since
# PR 9): every case pushes a small adversarial lake (disconnected islands,
# shared dimension names/key ranges) through blocking + the partitioned
# per-component solve under random faults and budgets; unfaulted cases are
# cross-checked bit-identical against the exhaustive all-pairs oracle.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/src/fuzz/autobi_faultfuzz" --seed 1 --cases 500 \
  --scenario lake
echo "check.sh: lake blocking differential smoke clean (ASan/UBSan)."

# --- Fault campaign reproducibility (always on): the campaign trains its
# shared model before any case arms a fault point, so two fresh processes
# running the same lake campaign must print the same scenario and outcome
# lines (the first line carries the wall time). A model trained under a
# case's armed spec would fire that spec's faults inside training and count
# them in that case.
LAKE_RUN=("$ASAN_BUILD_DIR/src/fuzz/autobi_faultfuzz" --seed 1 --cases 200
          --scenario lake)
LAKE_FIRST="$(UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "${LAKE_RUN[@]}" | tail -n +2)"
LAKE_SECOND="$(UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "${LAKE_RUN[@]}" | tail -n +2)"
if [[ "$LAKE_FIRST" != "$LAKE_SECOND" ]]; then
  echo "check.sh: FAULT FAIL — two runs of the lake campaign differ:" >&2
  echo "$LAKE_FIRST" >&2
  echo "$LAKE_SECOND" >&2
  exit 1
fi
echo "check.sh: fault campaign reproducible across processes (lake, seed 1)."

# --- Crash-recovery differential smoke under ASan/UBSan (always on since
# PR 10): every case drives a journaled ModelCatalog through random
# publish/pin ops with the journal fault points armed
# (journal.short_write/fsync/corrupt, io.rename), crashes it by tearing or
# bit-flipping the journal at a random byte, recovers, and asserts the
# recovered catalog is a committed prefix of the acked history — pins
# intact, NamedJoin sets byte-identical, publishes still accepted.
CRASH_SCRATCH="$(mktemp -d /tmp/autobi_crash.XXXXXX)"
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/src/fuzz/autobi_faultfuzz" --seed 1 --cases 300 \
  --scenario crash --scratch "$CRASH_SCRATCH"
rm -rf "$CRASH_SCRATCH"
echo "check.sh: crash-recovery differential smoke clean (ASan/UBSan)."

# --- Serve request-line smoke under ASan/UBSan (always on): every case
# sends one well-formed, byte-mutated or random request line through
# ServeEngine::HandleLine, sometimes with the serve.request fault point
# armed, and requires exactly one well-formed JSON response line — the
# error path of every verb handler, leak- and UB-checked.
UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
  "$ASAN_BUILD_DIR/src/fuzz/autobi_faultfuzz" --seed 1 --cases 3000 \
  --scenario serve
echo "check.sh: serve request-line smoke clean (ASan/UBSan)."

# --- Serve smoke (always on, under the same TSan build so the
# thread-per-connection transport and shared caches are race-checked): pipe
# CRLF and unterminated lines through --stdio, boot
# the daemon on a unix socket with a durable state dir, hang up a client
# that never reads its responses, run the client demo
# with a publish (create_session, three uploads, predict, get_model, diff,
# publish_model, list_models, close_session), capture the published model,
# kill the daemon with SIGKILL — no flush, the crash the journal exists
# for — then restart from the same state dir and assert the recovered
# get_catalog_model response is byte-identical before a clean shutdown.
cmake --build "$BUILD_DIR" -j --target autobi_serve autobi_client

wait_for_socket() {  # $1 = socket path, $2 = daemon pid
  for _ in $(seq 1 300); do  # Daemon trains before binding; allow up to 60s.
    [[ -S "$1" ]] && return 0
    kill -0 "$2" 2>/dev/null || break
    sleep 0.2
  done
  return 1
}

# Stdio framing, the same as the socket's (ServeTransportTest.
# ServesUnterminatedLastLineAtEof sends these bytes over a socket): a CRLF
# line, a CRLF blank line that is skipped, and a last line without '\n'
# that is served at EOF — exactly two pong lines.
STDIO_OUT="$(printf '{"verb":"ping","id":1}\r\n\r\n{"verb":"ping","id":2}' \
  | "$BUILD_DIR/src/serve/autobi_serve" --stdio --train_cases 60 2>/dev/null)"
STDIO_WANT='{"id":1,"ok":true,"pong":true}
{"id":2,"ok":true,"pong":true}'
if [[ "$STDIO_OUT" != "$STDIO_WANT" ]]; then
  echo "check.sh: SERVE FAIL — stdio framing: want two pong lines, got:" >&2
  echo "$STDIO_OUT" >&2
  exit 1
fi

SERVE_SOCK="$(mktemp -u /tmp/autobi_check.XXXXXX.sock)"
SERVE_STATE="$(mktemp -d /tmp/autobi_check_state.XXXXXX)"
"$BUILD_DIR/src/serve/autobi_serve" --socket "$SERVE_SOCK" --train_cases 60 \
  --state_dir "$SERVE_STATE" &
SERVE_PID=$!
trap '[[ -n "${SERVE_PID:-}" ]] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
if ! wait_for_socket "$SERVE_SOCK" "$SERVE_PID"; then
  echo "check.sh: SERVE FAIL — daemon never bound $SERVE_SOCK." >&2
  exit 1
fi
# Hang-up: a client sends 2000 pings and closes without reading, so the
# daemon writes responses into a closed socket. That must end only that
# connection; the demo below runs against the same daemon.
python3 - "$SERVE_SOCK" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(sys.argv[1])
s.sendall(b'{"verb":"ping"}\n' * 2000)
s.close()
PY
"$BUILD_DIR/examples/autobi_client" --socket "$SERVE_SOCK" --demo \
  --publish smoke
MODEL_BEFORE="$(echo '{"verb":"get_catalog_model","version":1}' \
  | "$BUILD_DIR/examples/autobi_client" --socket "$SERVE_SOCK")"
if [[ -z "$MODEL_BEFORE" ]]; then
  echo "check.sh: SERVE FAIL — empty get_catalog_model response." >&2
  exit 1
fi

# Crash: SIGKILL gives the daemon no chance to flush or unlink anything.
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
rm -f "$SERVE_SOCK"

SERVE_SOCK2="$(mktemp -u /tmp/autobi_check.XXXXXX.sock)"
"$BUILD_DIR/src/serve/autobi_serve" --socket "$SERVE_SOCK2" --train_cases 60 \
  --state_dir "$SERVE_STATE" &
SERVE_PID=$!
if ! wait_for_socket "$SERVE_SOCK2" "$SERVE_PID"; then
  echo "check.sh: SERVE FAIL — restarted daemon never bound $SERVE_SOCK2." >&2
  exit 1
fi
MODEL_AFTER="$(echo '{"verb":"get_catalog_model","version":1}' \
  | "$BUILD_DIR/examples/autobi_client" --socket "$SERVE_SOCK2")"
if [[ "$MODEL_BEFORE" != "$MODEL_AFTER" ]]; then
  echo "check.sh: SERVE FAIL — recovered catalog model differs from the" \
       "pre-crash publish:" >&2
  echo "  before: $MODEL_BEFORE" >&2
  echo "  after:  $MODEL_AFTER" >&2
  exit 1
fi
"$BUILD_DIR/examples/autobi_client" --socket "$SERVE_SOCK2" --shutdown
wait "$SERVE_PID"
SERVE_PID=""
rm -f "$SERVE_SOCK2"
rm -rf "$SERVE_STATE"
echo "check.sh: serve smoke clean (stdio framing, client hang-up survived," \
     "demo + publish, SIGKILL restart round-trip byte-identical, clean" \
     "shutdown)."

# Opt-in fuzz smoke (AUTOBI_FUZZ_SMOKE=1): run the differential/metamorphic
# harness under the same sanitizer build — corpus replay, the bounded gtest
# campaign, and a fresh randomized campaign against the checked-in corpus.
if [[ "${AUTOBI_FUZZ_SMOKE:-0}" == "1" ]]; then
  cmake --build "$BUILD_DIR" -j --target autobi_fuzz autobi_fuzz_tests
  "$BUILD_DIR/tests/autobi_fuzz_tests" --gtest_filter='FuzzSmoke.*'
  "$BUILD_DIR/src/fuzz/autobi_fuzz" --seed 1 --cases 1500 --max_edges 14 \
    --corpus tests/corpus --no_write
  echo "check.sh: fuzz smoke clean."
fi

# Opt-in fault-injection smoke (AUTOBI_FAULT_SMOKE=1): build the end-to-end
# fault campaign under ASan/UBSan and run it. Every case must yield a
# well-formed Status or a validator-passing (possibly degraded) model — no
# crash, hang, or leak (leaks are ASan-fatal by default).
if [[ "${AUTOBI_FAULT_SMOKE:-0}" == "1" ]]; then
  ASAN_BUILD_DIR="${AUTOBI_ASAN_BUILD_DIR:-build-asan}"
  cmake -B "$ASAN_BUILD_DIR" -S . -DAUTOBI_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build "$ASAN_BUILD_DIR" -j --target autobi_faultfuzz
  UBSAN_OPTIONS="halt_on_error=1${UBSAN_OPTIONS:+:$UBSAN_OPTIONS}" \
    "$ASAN_BUILD_DIR/src/fuzz/autobi_faultfuzz" --seed 1 --cases 500
  echo "check.sh: fault-injection smoke clean (ASan/UBSan)."
fi
