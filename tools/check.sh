#!/usr/bin/env bash
# One-shot correctness gate: build everything under ASan/UBSan (fuzzers
# included), run the full test suite, run clang-tidy when available, smoke
# the fuzzers, and statically lint the shipped fixtures — failing the whole
# script if hedgeq_lint reports any error-severity finding.
#
# Usage: tools/check.sh [fuzz-seconds]   (default 30)
set -euo pipefail

FUZZ_SECONDS="${1:-30}"
REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "${REPO_ROOT}"
BUILD_DIR="${REPO_ROOT}/build-asan"

step() { printf '\n==> %s\n' "$*"; }

step "configure (asan preset: ASan+UBSan, HEDGEQ_FUZZ=ON)"
cmake --preset asan

step "build"
cmake --build --preset asan -j "$(nproc)"

step "ctest (full suite under ASan/UBSan)"
ctest --preset asan -j "$(nproc)"

step "clang-tidy (lint target; echo-skips when clang-tidy is absent)"
cmake --build --preset asan --target lint

step "fuzzer smoke (${FUZZ_SECONDS}s per harness)"
# Under clang these are libFuzzer binaries; under gcc the standalone driver
# provides the same --smoke interface (deterministic mutation loop).
for harness in fuzz_xml fuzz_hre fuzz_certify fuzz_containment fuzz_from_nha; do
  bin="${BUILD_DIR}/fuzz/${harness}"
  corpus="${REPO_ROOT}/fuzz/corpus/${harness#fuzz_}"
  if [[ -x "${bin}" ]]; then
    "${bin}" --smoke "${FUZZ_SECONDS}" "${corpus}" \
      || { echo "FAIL: ${harness} smoke run crashed"; exit 1; }
  else
    echo "FAIL: ${bin} not built (HEDGEQ_FUZZ should be ON in the asan preset)"
    exit 1
  fi
done

step "static analysis of shipped fixtures (hedgeq_lint must find no errors)"
LINT="${BUILD_DIR}/tools/hedgeq_lint"
# hedgeq_lint exits 2 on error-severity findings, 1 on bad input, 0 otherwise;
# set -e turns any nonzero exit into a script failure.
"${LINT}" schema tools/fixtures/article.grammar
"${LINT}" schema tools/fixtures/article_strict.grammar
# The example queries the README/examples run against the article schema.
"${LINT}" query 'select(*; figure (section|article)*)' tools/fixtures/article.grammar
"${LINT}" query 'select(*; [title<$#text>; section; *] article)' tools/fixtures/article.grammar
"${LINT}" query 'select(*; para* (section|article)*)'

step "translation validation (hedgeq_verify certifies the pipeline)"
VERIFY="${BUILD_DIR}/tools/hedgeq_verify"
# Certify compile/trim/determinize/lazy on representative expressions and
# cross-run every engine via the differential oracle; exits 2 on findings.
"${VERIFY}" expr '(a|b)* c<$x>' 2>/dev/null
"${VERIFY}" expr 'b @z (a<%z> a<%z>)^z' 2>/dev/null
"${VERIFY}" expr 'article<section* figure>*' 2>/dev/null
"${VERIFY}" query 'select(*; figure (section|article)*)'
# Certify minimization, the Theorem 4 class product, query containment in
# both verdict directions, and cross-run every selection engine.
"${VERIFY}" minimize '(a<b*> | b<a*>)*' 2>/dev/null
"${VERIFY}" query 'select((b|$x)*; [(); a; b] [b; a; ()])'
"${VERIFY}" containment tools/fixtures/containment.grammar \
  'select(a<b>; [(); doc; ()])' 'select(a<b b*>; [(); doc; ()])' 2>/dev/null
"${VERIFY}" containment tools/fixtures/containment.grammar \
  'select(a<b b*>; [(); doc; ()])' 'select(a<b>; [(); doc; ()])' 2>/dev/null
"${VERIFY}" select-oracle 'select(a<b*>; [(); doc; ()])' 2 8 2>/dev/null
# Certificates must survive a serialize/deserialize round trip and recheck.
"${VERIFY}" emit-cert det 'a<b*> | c' | "${VERIFY}" cert -
"${VERIFY}" emit-cert trim 'a<b*> | c' | "${VERIFY}" cert -
"${VERIFY}" emit-cert min 'a<b*> | c' | "${VERIFY}" cert -
"${VERIFY}" emit-cert containment tools/fixtures/containment.grammar \
  'select(a<b>; [(); doc; ()])' 'select(a<b b*>; [(); doc; ()])' \
  | "${VERIFY}" cert -
# Lemma 2 and the schema algebra certify end-to-end too, and every kind of
# certificate must also pass the hash-witness light checker.
"${VERIFY}" from-nha 'a<b*> | c' 2>/dev/null
"${VERIFY}" algebra intersect tools/fixtures/article.grammar \
  tools/fixtures/article_strict.grammar 2>/dev/null
"${VERIFY}" emit-cert from-nha 'a<b*> | c' | "${VERIFY}" cert -
"${VERIFY}" emit-cert algebra difference tools/fixtures/article.grammar \
  tools/fixtures/article_strict.grammar | "${VERIFY}" cert -
"${VERIFY}" emit-cert det 'a<b*> | c' | "${VERIFY}" --check=light cert -
"${VERIFY}" emit-cert from-nha 'a<b*> | c' | "${VERIFY}" --check=light cert -

step "seeded bugs (each failpoint must be caught under its own HQV code)"
SEED_TMP="$(mktemp -d)"
# A minimizer that merges two non-bisimilar states: CheckMinimize must
# reject the quotient's final language (HQV010), not trust the partition.
if "${VERIFY}" --failpoint=minimize/merge-nonbisimilar \
     minimize '(a<b*> | b<a*>)*' > "${SEED_TMP}/min.out" 2>/dev/null; then
  echo "FAIL: non-bisimilar merge went uncaught"; exit 1
fi
grep -q 'HQV010' "${SEED_TMP}/min.out" \
  || { echo "FAIL: non-bisimilar merge not reported as HQV010"; exit 1; }
# A containment decision with its verdict flipped: CheckContainment must
# find a usable product state separating the marks (HQV012).
if "${VERIFY}" --failpoint=containment/flip-verdict \
     containment tools/fixtures/containment.grammar \
     'select(a<b b*>; [(); doc; ()])' 'select(a<b>; [(); doc; ()])' \
     > "${SEED_TMP}/cont.out" 2>/dev/null; then
  echo "FAIL: flipped containment verdict went uncaught"; exit 1
fi
grep -q 'HQV012' "${SEED_TMP}/cont.out" \
  || { echo "FAIL: flipped verdict not reported as HQV012"; exit 1; }
# An eager evaluator reporting a wrong node set: the selection-semantics
# oracle must isolate it against the other engines and shrink the
# counterexample (HQV013).
if "${VERIFY}" --failpoint=phr/select-wrong-node \
     select-oracle 'select(a<b*>; [(); doc; ()])' 3 4 \
     > "${SEED_TMP}/sel.out" 2>/dev/null; then
  echo "FAIL: wrong selected node set went uncaught"; exit 1
fi
grep -q 'HQV013' "${SEED_TMP}/sel.out" \
  || { echo "FAIL: selection disagreement not reported as HQV013"; exit 1; }
grep -q 'shrunk from' "${SEED_TMP}/sel.out" \
  || { echo "FAIL: selection counterexample was not shrunk"; exit 1; }
# A mirror automaton N whose start row is flipped between dead and live:
# CheckPhrProduct's reversed-subset walk of L must disagree with it (HQV011).
if "${VERIFY}" --failpoint=phr/mirror-flip-row \
     query 'select(*; figure (section|article)*)' \
     > "${SEED_TMP}/mirror.out" 2>/dev/null; then
  echo "FAIL: flipped mirror row went uncaught"; exit 1
fi
grep -q 'HQV011' "${SEED_TMP}/mirror.out" \
  || { echo "FAIL: flipped mirror row not reported as HQV011"; exit 1; }
# A Lemma 2 extraction that silently drops a union alternative: the
# recurrence replay in CheckFromNha must notice the missing combination
# (HQV014), not trust the emitted expression.
if "${VERIFY}" --failpoint=from_nha/drop-alternative \
     from-nha 'a<b*> | c' > "${SEED_TMP}/fn.out" 2>/dev/null; then
  echo "FAIL: dropped Lemma 2 alternative went uncaught"; exit 1
fi
grep -q 'HQV014' "${SEED_TMP}/fn.out" \
  || { echo "FAIL: dropped alternative not reported as HQV014"; exit 1; }
# A schema intersection that drops a product rule: the re-derived pairing
# product in CheckAlgebra must disagree (HQV015).
if "${VERIFY}" --failpoint=algebra/drop-rule \
     algebra intersect tools/fixtures/article.grammar \
     tools/fixtures/article_strict.grammar \
     > "${SEED_TMP}/alg.out" 2>/dev/null; then
  echo "FAIL: dropped algebra product rule went uncaught"; exit 1
fi
grep -q 'HQV015' "${SEED_TMP}/alg.out" \
  || { echo "FAIL: dropped product rule not reported as HQV015"; exit 1; }
rm -rf "${SEED_TMP}"

step "metrics snapshot smoke (stable metric names + trace export)"
HQ="${BUILD_DIR}/tools/hq"
OBS_TMP="$(mktemp -d)"
"${HQ}" gen article 200 > "${OBS_TMP}/doc.xml"
"${HQ}" query 'select(*; figure (section|article)*)' "${OBS_TMP}/doc.xml" \
  --metrics="${OBS_TMP}/metrics.json" --trace="${OBS_TMP}/trace.json" \
  > /dev/null
# Golden-gate the metric *names* (values vary by machine): every catalogued
# name must appear in the snapshot. Appending new names is fine; renaming
# or dropping one is a contract break and fails here.
while IFS= read -r name; do
  [[ -z "${name}" || "${name}" == \#* ]] && continue
  grep -q "\"${name}\"" "${OBS_TMP}/metrics.json" \
    || { echo "FAIL: metric '${name}' missing from snapshot (catalogued names are append-only)"; exit 1; }
done < tools/fixtures/metric_names.golden
grep -q '"traceEvents"' "${OBS_TMP}/trace.json" \
  || { echo "FAIL: --trace produced no Chrome trace_event output"; exit 1; }
grep -q '"phr.eval.pass2"' "${OBS_TMP}/trace.json" \
  || { echo "FAIL: trace does not cover the Algorithm 1 traversals"; exit 1; }
rm -rf "${OBS_TMP}"

step "certified cache (warm hit, byte-flip tamper, quarantine, recompute)"
CACHE_TMP="$(mktemp -d)"
CACHE_DIR="${CACHE_TMP}/cache"
CACHE_QUERY='select(*; figure (section|article)*)'
"${HQ}" gen article 200 > "${CACHE_TMP}/doc.xml"
# Cold run populates the cache; the warm run must answer identically from a
# validated hit, with the determinize stage span absent from the snapshot
# (the stage never ran; its counters are pre-registered, the span is not).
"${HQ}" query "${CACHE_QUERY}" "${CACHE_TMP}/doc.xml" \
  --cache-dir="${CACHE_DIR}" > "${CACHE_TMP}/cold.out"
# The query's one determinization (the Theorem 4 union NHA) is cached under
# its own input key, so the cold run leaves exactly one entry.
cold_entries="$(find "${CACHE_DIR}" -name '*.cert' | wc -l)"
[[ "${cold_entries}" -eq 1 ]] \
  || { echo "FAIL: cold run left ${cold_entries} .cert entries, want 1"; exit 1; }
"${HQ}" query "${CACHE_QUERY}" "${CACHE_TMP}/doc.xml" \
  --cache-dir="${CACHE_DIR}" --metrics="${CACHE_TMP}/warm.json" \
  > "${CACHE_TMP}/warm.out"
cmp "${CACHE_TMP}/cold.out" "${CACHE_TMP}/warm.out" \
  || { echo "FAIL: warm cache run changed the query answer"; exit 1; }
grep -q '"cache.hit": [1-9]' "${CACHE_TMP}/warm.json" \
  || { echo "FAIL: warm run shows no cache.hit"; exit 1; }
if grep -q '"automata.determinize": {' "${CACHE_TMP}/warm.json"; then
  echo "FAIL: determinize stage span present despite a warm cache hit"
  exit 1
fi
# Flip one byte in the middle of the cached entry: the load path must
# reject it, quarantine it with an HQV code (entry + .reason sidecar under
# corrupt/), recompute, and still answer like the cold run.
for entry in "${CACHE_DIR}"/*.cert; do
  printf '\377' | dd of="${entry}" bs=1 seek=120 conv=notrunc status=none
done
"${HQ}" query "${CACHE_QUERY}" "${CACHE_TMP}/doc.xml" \
  --cache-dir="${CACHE_DIR}" --metrics="${CACHE_TMP}/tamper.json" \
  > "${CACHE_TMP}/tamper.out"
cmp "${CACHE_TMP}/cold.out" "${CACHE_TMP}/tamper.out" \
  || { echo "FAIL: tampered cache entry changed the query answer"; exit 1; }
grep -q '"cache.quarantine": [1-9]' "${CACHE_TMP}/tamper.json" \
  || { echo "FAIL: tampered entry was not quarantined"; exit 1; }
ls "${CACHE_DIR}"/corrupt/*.reason > /dev/null 2>&1 \
  || { echo "FAIL: no .reason sidecar under corrupt/"; exit 1; }
grep -q 'HQV' "${CACHE_DIR}"/corrupt/*.reason \
  || { echo "FAIL: quarantine reason carries no HQV code"; exit 1; }
# The rejected entry was transparently recomputed and re-stored: one more
# run is a validated hit again.
"${HQ}" query "${CACHE_QUERY}" "${CACHE_TMP}/doc.xml" \
  --cache-dir="${CACHE_DIR}" --metrics="${CACHE_TMP}/healed.json" \
  > /dev/null
grep -q '"cache.hit": [1-9]' "${CACHE_TMP}/healed.json" \
  || { echo "FAIL: cache did not heal after quarantine"; exit 1; }
# Light-checker tamper: revalidation on load runs the hash-witness light
# check by default, so a byte flipped near the END of the entry — inside
# the digest chain, past what the shape checks re-derive — must still be
# caught, with the quarantine reason carrying the digest-chain code
# (HQV016) and the light-check counter ticking.
rm -rf "${CACHE_DIR}/corrupt"
for entry in "${CACHE_DIR}"/*.cert; do
  entry_size="$(wc -c < "${entry}")"
  printf '\377' | dd of="${entry}" bs=1 seek=$((entry_size - 16)) \
    conv=notrunc status=none
done
"${HQ}" query "${CACHE_QUERY}" "${CACHE_TMP}/doc.xml" \
  --cache-dir="${CACHE_DIR}" --metrics="${CACHE_TMP}/light.json" \
  > "${CACHE_TMP}/light.out"
cmp "${CACHE_TMP}/cold.out" "${CACHE_TMP}/light.out" \
  || { echo "FAIL: light-mode tamper changed the query answer"; exit 1; }
grep -q '"cache.light_checks": [1-9]' "${CACHE_TMP}/light.json" \
  || { echo "FAIL: load revalidation did not run the light checker"; exit 1; }
grep -q 'HQV016' "${CACHE_DIR}"/corrupt/*.reason \
  || { echo "FAIL: digest-chain tamper not quarantined as HQV016"; exit 1; }
# Eviction: a 1-byte bound forces every store to sweep, yet the entry
# just written must survive (the cache stays able to serve its own key).
EVICT_DIR="${CACHE_TMP}/evict"
"${HQ}" canon tools/fixtures/article.grammar \
  --cache-dir="${EVICT_DIR}" > /dev/null
first_entry="$(ls "${EVICT_DIR}"/*.cert | head -1)"
"${HQ}" query "${CACHE_QUERY}" "${CACHE_TMP}/doc.xml" \
  --cache-dir="${EVICT_DIR}" --cache-max-bytes=1 \
  --metrics="${CACHE_TMP}/evict.json" > /dev/null
grep -q '"cache.evictions": [1-9]' "${CACHE_TMP}/evict.json" \
  || { echo "FAIL: over-budget store evicted nothing"; exit 1; }
[[ ! -f "${first_entry}" ]] \
  || { echo "FAIL: oldest entry survived a 1-byte cache bound"; exit 1; }
[[ "$(ls "${EVICT_DIR}"/*.cert | wc -l)" -ge 1 ]] \
  || { echo "FAIL: eviction removed the just-written entry"; exit 1; }
# An already-expired deadline fails closed (exit 4, kDeadlineExceeded),
# never with a wrong or partial answer.
if "${HQ}" canon tools/fixtures/article.grammar --deadline-ms=0 \
     2> "${CACHE_TMP}/deadline.err"; then
  echo "FAIL: --deadline-ms=0 did not fail"; exit 1
fi
grep -q 'deadline-exceeded' "${CACHE_TMP}/deadline.err" \
  || { echo "FAIL: expired deadline not reported as deadline-exceeded"; exit 1; }
rm -rf "${CACHE_TMP}"

step "prometheus exposition (sanitized golden names, buckets, quantiles)"
PROM_TMP="$(mktemp -d)"
"${HQ}" gen article 200 > "${PROM_TMP}/doc.xml"
"${HQ}" query 'select(*; figure (section|article)*)' "${PROM_TMP}/doc.xml" \
  --metrics="${PROM_TMP}/metrics.prom" --metrics-format=prom > /dev/null
# Same append-only name contract as the JSON gate, through the prom name
# mapping (dots -> underscores, hedgeq_ prefix).
while IFS= read -r name; do
  [[ -z "${name}" || "${name}" == \#* ]] && continue
  prom_name="hedgeq_$(printf '%s' "${name}" | tr . _)"
  grep -q "^${prom_name}\b\|^# TYPE ${prom_name} " "${PROM_TMP}/metrics.prom" \
    || { echo "FAIL: '${prom_name}' missing from prom exposition"; exit 1; }
done < tools/fixtures/metric_names.golden
grep -q '^hedgeq_hist_query_latency_us_bucket{le="+Inf"} [1-9]' \
  "${PROM_TMP}/metrics.prom" \
  || { echo "FAIL: query latency histogram has no +Inf bucket count"; exit 1; }
grep -q '^hedgeq_hist_query_latency_us_quantile{q="0.99"} [0-9]' \
  "${PROM_TMP}/metrics.prom" \
  || { echo "FAIL: no p99 quantile in prom exposition"; exit 1; }
grep -q '^hedgeq_span_total_ns{stage="automata.determinize"} [1-9]' \
  "${PROM_TMP}/metrics.prom" \
  || { echo "FAIL: span families missing from prom exposition"; exit 1; }
rm -rf "${PROM_TMP}"

step "flight recorder (SIGUSR1 dump parses and carries the query's stages)"
FLIGHT_TMP="$(mktemp -d)"
"${HQ}" gen article 200 > "${FLIGHT_TMP}/doc.xml"
mkfifo "${FLIGHT_TMP}/stdin"
"${HQ}" repl --flight-recorder="${FLIGHT_TMP}/flight.json" \
  < "${FLIGHT_TMP}/stdin" > "${FLIGHT_TMP}/repl.out" 2>&1 &
REPL_PID=$!
exec 9> "${FLIGHT_TMP}/stdin"
printf 'load %s\nquery select(*; figure (section|article)*)\n' \
  "${FLIGHT_TMP}/doc.xml" >&9
# Give the repl a beat to finish the query, then ask for a dump by signal
# while it is blocked reading the fifo.
sleep 1
kill -USR1 "${REPL_PID}"
for _ in $(seq 1 50); do
  [[ -s "${FLIGHT_TMP}/flight.json" ]] && break
  sleep 0.1
done
[[ -s "${FLIGHT_TMP}/flight.json" ]] \
  || { echo "FAIL: SIGUSR1 produced no flight-recorder dump"; exit 1; }
"${HQ}" obs-parse "${FLIGHT_TMP}/flight.json" > /dev/null \
  || { echo "FAIL: flight dump does not round-trip through the obs parser"; exit 1; }
grep -q '"label": "repl:query ' "${FLIGHT_TMP}/flight.json" \
  || { echo "FAIL: flight dump has no record for the query command"; exit 1; }
grep -q 'phr.compile\|automata.determinize' "${FLIGHT_TMP}/flight.json" \
  || { echo "FAIL: flight record carries no stage durations"; exit 1; }
printf 'quit\n' >&9
exec 9>&-
wait "${REPL_PID}"
rm -rf "${FLIGHT_TMP}"

step "serve chaos matrix (every failpoint fires, zero lost requests)"
SERVE_TMP="$(mktemp -d)"
{
  printf 'gen article 200 11\n'
  for _ in $(seq 1 40); do
    printf 'query select(*; figure (section|article)*)\n'
    printf 'query select(*; caption (section|article)*)\n'
  done
} > "${SERVE_TMP}/requests"
REQ_COUNT="$(grep -c . "${SERVE_TMP}/requests")"
# Same matrix as serve_chaos_test: every cache/IO failpoint armed
# probabilistically (fixed seeds — deterministic), the eager compile path
# failing periodically, the execution path flaking, memoization off so
# every request walks the full pipeline, and a real cache directory so the
# cache failpoints sit on genuinely exercised store/load paths.
"${HQ}" serve --workers=4 --no-memoize \
  --retry-max=3 --retry-backoff-ms=1 --retry-backoff-max-ms=4 \
  --breaker-threshold=4 --breaker-open-ms=5 \
  --cache-dir="${SERVE_TMP}/cache" \
  --requests="${SERVE_TMP}/requests" --chaos-report \
  --failpoint='cache/short-read:p=0.5,seed=1' \
  --failpoint='cache/torn-write:p=0.5,seed=2' \
  --failpoint='cache/enospc:p=0.4,seed=3' \
  --failpoint='cache/rename:p=0.4,seed=4' \
  --failpoint='determinize/subset:every=9' \
  --failpoint='serve/exec:p=0.15,seed=5' \
  > "${SERVE_TMP}/serve.out" 2> "${SERVE_TMP}/serve.err" \
  || { echo "FAIL: hq serve crashed under the chaos matrix"; exit 1; }
# Zero lost requests: exactly one result line per request, in order.
[[ "$(grep -c . "${SERVE_TMP}/serve.out")" -eq "${REQ_COUNT}" ]] \
  || { echo "FAIL: chaos run lost request result lines"; exit 1; }
# The matrix is only a matrix if every armed point actually fired.
for point in cache/short-read cache/torn-write cache/enospc cache/rename \
             determinize/subset serve/exec; do
  fired="$(sed -n "s|^# chaos: ${point} hits=[0-9]* fired=||p" \
    "${SERVE_TMP}/serve.err")"
  [[ -n "${fired}" && "${fired}" -ge 1 ]] \
    || { echo "FAIL: failpoint ${point} never fired in the chaos run"; exit 1; }
done
# Chaos may shed or degrade an answer, never change it: every answered
# line for the same query reports the same located count.
for q in 1 2; do
  answered="$(awk -v q="${q}" \
    '$1 > 0 && (($1 - q) % 2 == 0) && ($2 == "ok" || $2 == "degraded" || $2 == "retried") {print $3}' \
    "${SERVE_TMP}/serve.out" | sort -u | wc -l)"
  [[ "${answered}" -le 1 ]] \
    || { echo "FAIL: chaos run returned inconsistent answers for query ${q}"; exit 1; }
done
rm -rf "${SERVE_TMP}"

step "serve graceful drain (SIGTERM: exit 0, flight dump, shed accounting)"
DRAIN_TMP="$(mktemp -d)"
mkfifo "${DRAIN_TMP}/stdin"
"${HQ}" serve --workers=2 \
  --flight-recorder="${DRAIN_TMP}/flight.json" \
  --metrics="${DRAIN_TMP}/metrics.json" \
  < "${DRAIN_TMP}/stdin" > "${DRAIN_TMP}/serve.out" 2> "${DRAIN_TMP}/serve.err" &
SERVE_PID=$!
exec 8> "${DRAIN_TMP}/stdin"
printf 'gen article 200 11\n' >&8
for _ in $(seq 1 8); do
  printf 'query select(*; figure (section|article)*)\n' >&8
done
# Let the requests land, then terminate while the server blocks on the
# fifo: admission stops, in-flight work finishes, everything flushes.
sleep 1
kill -TERM "${SERVE_PID}"
drain_rc=0
wait "${SERVE_PID}" || drain_rc=$?
exec 8>&-
[[ "${drain_rc}" -eq 0 ]] \
  || { echo "FAIL: SIGTERM drain exited ${drain_rc}, want 0"; exit 1; }
grep -q '(drained on signal)' "${DRAIN_TMP}/serve.err" \
  || { echo "FAIL: serve summary does not report the signal drain"; exit 1; }
# Every admitted request still got its result line (1 gen + 8 queries).
[[ "$(grep -c . "${DRAIN_TMP}/serve.out")" -eq 9 ]] \
  || { echo "FAIL: drain dropped result lines"; exit 1; }
# The drain path flushes the flight recorder; the dump must parse.
[[ -s "${DRAIN_TMP}/flight.json" ]] \
  || { echo "FAIL: SIGTERM drain produced no flight-recorder dump"; exit 1; }
"${HQ}" obs-parse "${DRAIN_TMP}/flight.json" > /dev/null \
  || { echo "FAIL: drain flight dump does not round-trip through the obs parser"; exit 1; }
# serve.shed in the flushed metrics equals the shed result lines printed.
shed_lines="$(grep -c '^[0-9]* shed ' "${DRAIN_TMP}/serve.out" || true)"
shed_metric="$(sed -n 's/.*"serve\.shed": \([0-9]*\).*/\1/p' \
  "${DRAIN_TMP}/metrics.json" | head -1)"
[[ -n "${shed_metric}" && "${shed_metric}" -eq "${shed_lines}" ]] \
  || { echo "FAIL: serve.shed metric (${shed_metric:-missing}) disagrees with shed result lines (${shed_lines})"; exit 1; }
rm -rf "${DRAIN_TMP}"

step "bench_compare gate (identity passes, synthetic slowdown fails)"
BC="${BUILD_DIR}/tools/bench_compare"
BC_TMP="$(mktemp -d)"
cp bench/baselines/BENCH_*.json "${BC_TMP}/" 2>/dev/null || true
if ls "${BC_TMP}"/BENCH_*.json > /dev/null 2>&1; then
  "${BC}" "${BC_TMP}" "${BC_TMP}" > /dev/null \
    || { echo "FAIL: bench_compare rejects identical artifacts"; exit 1; }
  one="$(ls "${BC_TMP}"/BENCH_*.json | head -1)"
  mkdir "${BC_TMP}/slow"
  # Replace every timing with an absurdly slow constant: far past any
  # threshold regardless of the baseline's magnitude or number format
  # (google-benchmark emits scientific notation).
  sed -E 's/"(real_time|cpu_time)": [0-9.eE+-]+/"\1": 9.0e9/g' \
    "${one}" > "${BC_TMP}/slow/$(basename "${one}")"
  if "${BC}" "${one}" "${BC_TMP}/slow/$(basename "${one}")" \
       > "${BC_TMP}/slow.out"; then
    echo "FAIL: bench_compare accepted a 100x slowdown"; exit 1
  fi
  grep -q '^FAIL' "${BC_TMP}/slow.out" \
    || { echo "FAIL: bench_compare slowdown produced no FAIL line"; exit 1; }
else
  echo "  (no committed baselines found; structural gate only)"
  bc_rc=0
  "${BC}" /nonexistent_a.json /nonexistent_b.json > /dev/null 2>&1 || bc_rc=$?
  [[ "${bc_rc}" -eq 2 ]] \
    || { echo "FAIL: bench_compare unreadable input must exit 2"; exit 1; }
fi
rm -rf "${BC_TMP}"

step "all checks passed"
