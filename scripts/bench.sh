#!/usr/bin/env bash
# Runs the perf-trajectory benchmarks (graph construction, KronFit
# Metropolis, ball dropping — the hot paths optimized in PR 2 — plus
# PR 3's pipeline-overhead pairs, PR 4's mechanism-dispatch pairs,
# PR 5's dataset text-parse vs binary-load pairs, PR 6's release
# cache cold-fit vs cached-fit pairs, PR 7's journal plain vs
# journaled job-lifecycle pairs, PR 8's out-of-core pairs — v1
# decode vs v2 mmap open, and in-memory vs streamed generate-to-store
# with peak-heap gauges — PR 9's uninstrumented vs fully
# instrumented job-lifecycle pairs, and PR 10's untraced vs
# span-traced job-lifecycle pairs) and writes their numbers to
# BENCH_10.json so future PRs have a recorded trajectory to compare
# against.
#
# Usage: scripts/bench.sh [output.json]
#
# Environment:
#   BENCHTIME   go test -benchtime value for the heavy trajectory
#               benchmarks (default 3x)
#   DISPATCH_BENCHTIME, DISPATCH_COUNT
#               benchtime (default 500x) and repetition count (default
#               3) for the MechanismDispatch family: its release units
#               are 0.1–5 ms, so hundreds of iterations and a
#               min-of-three are needed before the direct/accounted
#               ratio is signal rather than scheduler noise
#   RELEASE_COUNT
#               repetition count (default 3) for the ReleaseCache
#               family: the cached leg is ~0.1 ms, so a min-of-three
#               keeps the cached_over_cold speedup noise-robust
#   JOURNAL_COUNT
#               repetition count (default 3) for the JournalOverhead
#               family: the journal's per-job cost is two fsyncs (a
#               fixed handful of ms) against a ~1.4 s fit, so a
#               min-of-three keeps the journal_over_plain ratio
#               noise-robust
#   OBS_COUNT
#               repetition count (default 3) for the ObsOverhead
#               family: telemetry's per-job cost is a handful of atomic
#               updates and one log record against a ~1.4 s fit, so a
#               min-of-three keeps the instrumented_over_plain ratio
#               noise-robust
#   TRACE_COUNT
#               repetition count (default 3) for the TraceOverhead
#               family: span tracing's per-job cost is a few dozen
#               small allocations against a ~1.4 s fit, so a
#               min-of-three keeps the traced_over_plain ratio
#               noise-robust
#   STREAM_BENCHTIME
#               benchtime (default 1x) for the StreamingGenerate
#               family: each op is a full multi-second
#               generate-to-store at k=20..24, and its headline number
#               is the peak-heap gauge — a max, not a mean — so one
#               iteration is already the measurement
#   BASELINE    optional path to a previous BENCH_*.json whose ns/op
#               numbers become the "baseline_ns_op" fields; without it,
#               the pre-PR-2 numbers hardcoded below (sort.Slice Build,
#               per-edge math.Exp KronFit, map-based ball dropping,
#               measured on the same single-core container that
#               produced the checked-in BENCH_2.json) are used — but
#               only when BENCHTIME is the 3x those baselines were
#               measured at; at other benchtimes (e.g. CI's 1x smoke on
#               a shared runner) the ratios would be cross-machine
#               noise, so baseline/speedup fields are omitted.
#
# The PipelineOverhead family is emitted as matched plain/ctx pairs and
# summarized in a "pipeline_overhead" section: ctx_over_plain is the
# ns/op ratio of a ...Ctx entry point under a live cancellable run to
# the same entry point under a background run (no cancellation signal)
# on the same workload (PR 3's acceptance bound is <= 1.02 at a
# statistically meaningful benchtime). The MechanismDispatch family is
# likewise paired into a "mechanism_dispatch" section:
# accounted_over_direct is the ns/op ratio of drawing noise through a
# charged accountant mechanism to the direct dp call on the same
# release unit (PR 4's acceptance bound is <= 1.02). Its one pair is
# laplacevec-n4096; the degseq-k12 and triangles-k8 pairs were retired
# when the unaccounted release paths their direct legs timed were
# deleted. The DatasetLoad
# family is paired into a "dataset_load" section: binary_over_text is
# the ns/op ratio of decoding the store's binary CSR form to parsing
# the same graph's SNAP text (PR 5's acceptance bar is well under 1 —
# binary load measurably faster — at any benchtime, since both legs
# decode from memory on the same machine). The ReleaseCache family is
# paired into a "release_cache" section: cached_over_cold is the
# throughput ratio of re-serving a memoized private fit to computing
# it (PR 6's acceptance bar is >= 20 at k=16 — same machine, same
# question, so the ratio holds at any benchtime). The JournalOverhead
# family is paired into a "journal_overhead" section:
# journal_over_plain is the ns/op ratio of a full job lifecycle
# (admission through completion of a K=15 private fit over the HTTP
# API) on a journaling server to the same lifecycle without a journal
# (PR 7's acceptance bound is <= 1.02 — durability's two fsyncs per
# job must disappear into the fit). The ObsOverhead family is paired
# into an "obs_overhead" section: instrumented_over_plain is the ns/op
# ratio of the same lifecycle on a server carrying the full PR 9
# telemetry surface (metrics registry, JSON logging, pprof mounted) to
# an uninstrumented one (PR 9's acceptance bound is <= 1.02). The
# TraceOverhead family is paired into a "trace_overhead" section:
# traced_over_plain is the ns/op ratio of the same lifecycle on a
# server recording full per-job span trees (stage spans,
# serving-layer spans, audit events) to an untraced one (PR 10's
# acceptance bound is <= 1.02). The
# MmapLoad family is paired into
# a "mmap_load" section: v1_over_v2 is the ns ratio of a full v1
# read+decode to a v2 mmap open of the same graph (PR 8's acceptance
# bar is >= 10 at k=18 — the v2 open is O(1) in the graph, so the
# ratio only grows with k and holds at any benchtime). The
# StreamingGenerate family is paired into a "streaming_generate"
# section on its heap-peak-bytes gauges: streamed_over_inmem is the
# ratio of peak heap growth streaming a ball-drop sample to disk to
# materializing the same sample in memory first (PR 8's acceptance
# bar is <= 0.25 at k=20, with the k=22/24 rows as the out-of-core
# points).
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_10.json}"
benchtime="${BENCHTIME:-3x}"
dispatch_benchtime="${DISPATCH_BENCHTIME:-500x}"
stream_benchtime="${STREAM_BENCHTIME:-1x}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

go test -run=NONE -bench='GraphBuild|KronFitMetropolis|BallDropN|PipelineOverhead|DatasetLoad|MmapLoad' \
  -benchtime="$benchtime" -count=1 . | tee "$raw" >&2
go test -run=NONE -bench='MechanismDispatch' \
  -benchtime="$dispatch_benchtime" -count="${DISPATCH_COUNT:-3}" . | tee -a "$raw" >&2
go test -run=NONE -bench='ReleaseCache' \
  -benchtime="$benchtime" -count="${RELEASE_COUNT:-3}" . | tee -a "$raw" >&2
go test -run=NONE -bench='JournalOverhead' \
  -benchtime="$benchtime" -count="${JOURNAL_COUNT:-3}" . | tee -a "$raw" >&2
go test -run=NONE -bench='ObsOverhead' \
  -benchtime="$benchtime" -count="${OBS_COUNT:-3}" . | tee -a "$raw" >&2
go test -run=NONE -bench='TraceOverhead' \
  -benchtime="$benchtime" -count="${TRACE_COUNT:-3}" . | tee -a "$raw" >&2
go test -run=NONE -bench='StreamingGenerate' \
  -benchtime="$stream_benchtime" -count=1 . | tee -a "$raw" >&2

awk -v benchtime="$benchtime" -v baseline_json="${BASELINE:-}" '
BEGIN {
  # Pre-PR-2 baselines (ns/op), measured at -benchtime=3x on the
  # reference container (GOMAXPROCS=1, go1.24, linux/amd64).
  base["GraphBuild/m=100000"]      = 16816322
  base["GraphBuild/m=1000000"]     = 215545423
  base["KronFitMetropolis/K=12"]   = 33203829
  base["KronFitMetropolis/K=14"]   = 133647874
  base["BallDropN/K=16"]           = 415158479
  base["BallDropN/K=18"]           = 956767476
  base["BallDropN/K=20"]           = 2194482107
  # Hardcoded baselines are 3x single-core measurements; do not
  # compute speedups against a different benchtime or machine unless
  # the caller supplied its own BASELINE file.
  skip_base = (baseline_json == "" && benchtime != "3x")
  if (baseline_json != "") {
    while ((getline line < baseline_json) > 0) {
      if (match(line, /"name": *"[^"]+"/)) {
        name = substr(line, RSTART, RLENGTH)
        gsub(/"name": *"|"/, "", name)
      }
      if (match(line, /"ns_op": *[0-9]+/)) {
        v = substr(line, RSTART, RLENGTH)
        gsub(/[^0-9]/, "", v)
        if (name != "") base[name] = v + 0
      }
    }
    close(baseline_json)
  }
  n = 0
}
/^Benchmark(GraphBuild|KronFitMetropolis|BallDropN|PipelineOverhead|MechanismDispatch|DatasetLoad|ReleaseCache|JournalOverhead|ObsOverhead|TraceOverhead|MmapLoad|StreamingGenerate)\// {
  name = $1
  sub(/^Benchmark/, "", name)
  sub(/-[0-9]+$/, "", name)  # strip the GOMAXPROCS suffix
  ns = ""; bytes = ""; allocs = ""; hp = ""
  for (i = 2; i <= NF; i++) {
    if ($i == "ns/op")           ns = $(i-1)
    if ($i == "B/op")            bytes = $(i-1)
    if ($i == "allocs/op")       allocs = $(i-1)
    if ($i == "heap-peak-bytes") hp = $(i-1)
  }
  if (ns == "") next
  # -count > 1 repeats each benchmark line; keep the fastest run per
  # name (the usual noise-robust estimator for matched-pair ratios).
  if (name in idx) {
    i2 = idx[name]
    if (ns + 0 < nss[i2] + 0) { nss[i2] = ns; bs[i2] = bytes; as[i2] = allocs; hps[i2] = hp }
  } else {
    idx[name] = n
    names[n] = name; nss[n] = ns; bs[n] = bytes; as[n] = allocs; hps[n] = hp
    n++
  }
  if (!(name in ns_by_name) || ns + 0 < ns_by_name[name] + 0) ns_by_name[name] = ns + 0
  # The peak-heap gauge is a max across repeats, not a min: keep the
  # largest observation per name.
  if (hp != "" && (!(name in hp_by_name) || hp + 0 > hp_by_name[name] + 0)) hp_by_name[name] = hp + 0
}
/^PASS|^ok / { status = $0 }
END {
  if (n == 0) {
    print "bench.sh: no benchmark lines parsed" > "/dev/stderr"
    exit 1
  }
  "go env GOVERSION" | getline gover
  "date -u +%Y-%m-%dT%H:%M:%SZ" | getline stamp
  printf "{\n"
  printf "  \"pr\": 10,\n"
  printf "  \"generated\": \"%s\",\n", stamp
  printf "  \"go\": \"%s\",\n", gover
  printf "  \"benchtime\": \"%s\",\n", benchtime
  printf "  \"benchmarks\": [\n"
  for (i = 0; i < n; i++) {
    # %.0f, not %d: some awks clamp %d at 32 bits and ns/op exceeds it.
    printf "    {\"name\": \"%s\", \"ns_op\": %.0f", names[i], nss[i]
    if (bs[i] != "")  printf ", \"b_op\": %.0f", bs[i]
    if (as[i] != "")  printf ", \"allocs_op\": %.0f", as[i]
    if (hps[i] != "") printf ", \"heap_peak_bytes\": %.0f", hps[i]
    if (!skip_base && names[i] in base)
      printf ", \"baseline_ns_op\": %.0f, \"speedup\": %.2f", base[names[i]], base[names[i]] / nss[i]
    printf "}%s\n", (i < n - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched plain/ctx pairs -> ctx/plain overhead ratios.
  printf "  \"pipeline_overhead\": [\n"
  np = 0
  for (name in ns_by_name) {
    if (name ~ /^PipelineOverhead\/.*-plain$/) {
      stem = name
      sub(/-plain$/, "", stem)
      ctxname = stem "-ctx"
      if (ctxname in ns_by_name) pairs[np++] = stem
    }
  }
  # Sort stems for stable output.
  for (i = 0; i < np; i++)
    for (j = i + 1; j < np; j++)
      if (pairs[j] < pairs[i]) { tmp = pairs[i]; pairs[i] = pairs[j]; pairs[j] = tmp }
  for (i = 0; i < np; i++) {
    stem = pairs[i]
    short = stem
    sub(/^PipelineOverhead\//, "", short)
    plain = ns_by_name[stem "-plain"] + 0
    ctx = ns_by_name[stem "-ctx"] + 0
    printf "    {\"workload\": \"%s\", \"plain_ns_op\": %.0f, \"ctx_ns_op\": %.0f, \"ctx_over_plain\": %.4f}%s\n", \
      short, plain, ctx, ctx / plain, (i < np - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched direct/accounted pairs -> accounting overhead ratios.
  printf "  \"mechanism_dispatch\": [\n"
  nm = 0
  for (name in ns_by_name) {
    if (name ~ /^MechanismDispatch\/.*-direct$/) {
      stem = name
      sub(/-direct$/, "", stem)
      accname = stem "-accounted"
      if (accname in ns_by_name) mpairs[nm++] = stem
    }
  }
  for (i = 0; i < nm; i++)
    for (j = i + 1; j < nm; j++)
      if (mpairs[j] < mpairs[i]) { tmp = mpairs[i]; mpairs[i] = mpairs[j]; mpairs[j] = tmp }
  for (i = 0; i < nm; i++) {
    stem = mpairs[i]
    short = stem
    sub(/^MechanismDispatch\//, "", short)
    direct = ns_by_name[stem "-direct"] + 0
    accounted = ns_by_name[stem "-accounted"] + 0
    printf "    {\"release\": \"%s\", \"direct_ns_op\": %.0f, \"accounted_ns_op\": %.0f, \"accounted_over_direct\": %.4f}%s\n", \
      short, direct, accounted, accounted / direct, (i < nm - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched text/binary pairs -> dataset-load speed ratios.
  printf "  \"dataset_load\": [\n"
  nd = 0
  for (name in ns_by_name) {
    if (name ~ /^DatasetLoad\/.*-text$/) {
      stem = name
      sub(/-text$/, "", stem)
      binname = stem "-binary"
      if (binname in ns_by_name) dpairs[nd++] = stem
    }
  }
  for (i = 0; i < nd; i++)
    for (j = i + 1; j < nd; j++)
      if (dpairs[j] < dpairs[i]) { tmp = dpairs[i]; dpairs[i] = dpairs[j]; dpairs[j] = tmp }
  for (i = 0; i < nd; i++) {
    stem = dpairs[i]
    short = stem
    sub(/^DatasetLoad\//, "", short)
    text = ns_by_name[stem "-text"] + 0
    bin = ns_by_name[stem "-binary"] + 0
    printf "    {\"graph\": \"%s\", \"text_parse_ns_op\": %.0f, \"binary_load_ns_op\": %.0f, \"binary_over_text\": %.4f, \"speedup\": %.2f}%s\n", \
      short, text, bin, bin / text, text / bin, (i < nd - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched cold/cached pairs -> release-cache speedups (qps = fits/s).
  printf "  \"release_cache\": [\n"
  nr = 0
  for (name in ns_by_name) {
    if (name ~ /^ReleaseCache\/.*-cold$/) {
      stem = name
      sub(/-cold$/, "", stem)
      cachedname = stem "-cached"
      if (cachedname in ns_by_name) rpairs[nr++] = stem
    }
  }
  for (i = 0; i < nr; i++)
    for (j = i + 1; j < nr; j++)
      if (rpairs[j] < rpairs[i]) { tmp = rpairs[i]; rpairs[i] = rpairs[j]; rpairs[j] = tmp }
  for (i = 0; i < nr; i++) {
    stem = rpairs[i]
    short = stem
    sub(/^ReleaseCache\//, "", short)
    cold = ns_by_name[stem "-cold"] + 0
    cached = ns_by_name[stem "-cached"] + 0
    printf "    {\"question\": \"%s\", \"cold_ns_op\": %.0f, \"cached_ns_op\": %.0f, \"cold_qps\": %.2f, \"cached_qps\": %.2f, \"cached_over_cold\": %.1f}%s\n", \
      short, cold, cached, 1e9 / cold, 1e9 / cached, cold / cached, (i < nr - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched plain/journal pairs -> durability overhead on the serving
  # path (PR 7 acceptance bound: journal_over_plain <= 1.02).
  printf "  \"journal_overhead\": [\n"
  nj = 0
  for (name in ns_by_name) {
    if (name ~ /^JournalOverhead\/.*-plain$/) {
      stem = name
      sub(/-plain$/, "", stem)
      jname = stem "-journal"
      if (jname in ns_by_name) jspairs[nj++] = stem
    }
  }
  for (i = 0; i < nj; i++)
    for (j = i + 1; j < nj; j++)
      if (jspairs[j] < jspairs[i]) { tmp = jspairs[i]; jspairs[i] = jspairs[j]; jspairs[j] = tmp }
  for (i = 0; i < nj; i++) {
    stem = jspairs[i]
    short = stem
    sub(/^JournalOverhead\//, "", short)
    plain = ns_by_name[stem "-plain"] + 0
    journal = ns_by_name[stem "-journal"] + 0
    printf "    {\"job\": \"%s\", \"plain_ns_op\": %.0f, \"journal_ns_op\": %.0f, \"journal_over_plain\": %.4f}%s\n", \
      short, plain, journal, journal / plain, (i < nj - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched plain/instrumented pairs -> telemetry overhead on the
  # serving path (PR 9 acceptance bound: instrumented_over_plain
  # <= 1.02).
  printf "  \"obs_overhead\": [\n"
  no = 0
  for (name in ns_by_name) {
    if (name ~ /^ObsOverhead\/.*-plain$/) {
      stem = name
      sub(/-plain$/, "", stem)
      oname = stem "-instrumented"
      if (oname in ns_by_name) opairs[no++] = stem
    }
  }
  for (i = 0; i < no; i++)
    for (j = i + 1; j < no; j++)
      if (opairs[j] < opairs[i]) { tmp = opairs[i]; opairs[i] = opairs[j]; opairs[j] = tmp }
  for (i = 0; i < no; i++) {
    stem = opairs[i]
    short = stem
    sub(/^ObsOverhead\//, "", short)
    plain = ns_by_name[stem "-plain"] + 0
    inst = ns_by_name[stem "-instrumented"] + 0
    printf "    {\"job\": \"%s\", \"plain_ns_op\": %.0f, \"instrumented_ns_op\": %.0f, \"instrumented_over_plain\": %.4f}%s\n", \
      short, plain, inst, inst / plain, (i < no - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched plain/traced pairs -> span-tracing overhead on the serving
  # path (PR 10 acceptance bound: traced_over_plain <= 1.02).
  printf "  \"trace_overhead\": [\n"
  nt = 0
  for (name in ns_by_name) {
    if (name ~ /^TraceOverhead\/.*-plain$/) {
      stem = name
      sub(/-plain$/, "", stem)
      tname = stem "-traced"
      if (tname in ns_by_name) tpairs[nt++] = stem
    }
  }
  for (i = 0; i < nt; i++)
    for (j = i + 1; j < nt; j++)
      if (tpairs[j] < tpairs[i]) { tmp = tpairs[i]; tpairs[i] = tpairs[j]; tpairs[j] = tmp }
  for (i = 0; i < nt; i++) {
    stem = tpairs[i]
    short = stem
    sub(/^TraceOverhead\//, "", short)
    plain = ns_by_name[stem "-plain"] + 0
    traced = ns_by_name[stem "-traced"] + 0
    printf "    {\"job\": \"%s\", \"plain_ns_op\": %.0f, \"traced_ns_op\": %.0f, \"traced_over_plain\": %.4f}%s\n", \
      short, plain, traced, traced / plain, (i < nt - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched v1decode/v2open pairs -> mmap open speedups (PR 8
  # acceptance bar: v1_over_v2 >= 10 at k=18).
  printf "  \"mmap_load\": [\n"
  nv = 0
  for (name in ns_by_name) {
    if (name ~ /^MmapLoad\/.*-v1decode$/) {
      stem = name
      sub(/-v1decode$/, "", stem)
      v2name = stem "-v2open"
      if (v2name in ns_by_name) vpairs[nv++] = stem
    }
  }
  for (i = 0; i < nv; i++)
    for (j = i + 1; j < nv; j++)
      if (vpairs[j] < vpairs[i]) { tmp = vpairs[i]; vpairs[i] = vpairs[j]; vpairs[j] = tmp }
  for (i = 0; i < nv; i++) {
    stem = vpairs[i]
    short = stem
    sub(/^MmapLoad\//, "", short)
    v1 = ns_by_name[stem "-v1decode"] + 0
    v2 = ns_by_name[stem "-v2open"] + 0
    printf "    {\"graph\": \"%s\", \"v1_decode_ns_op\": %.0f, \"v2_open_ns_op\": %.0f, \"v1_over_v2\": %.1f}%s\n", \
      short, v1, v2, v1 / v2, (i < nv - 1 ? "," : "")
  }
  printf "  ],\n"
  # Matched inmem/streamed pairs -> peak-heap ratios of the two
  # generate-to-store routes (PR 8 acceptance bar: streamed_over_inmem
  # <= 0.25 at k=20; k=22/24 are the out-of-core points).
  printf "  \"streaming_generate\": [\n"
  ns2 = 0
  for (name in hp_by_name) {
    if (name ~ /^StreamingGenerate\/.*-inmem$/) {
      stem = name
      sub(/-inmem$/, "", stem)
      sname = stem "-streamed"
      if (sname in hp_by_name) spairs2[ns2++] = stem
    }
  }
  for (i = 0; i < ns2; i++)
    for (j = i + 1; j < ns2; j++)
      if (spairs2[j] < spairs2[i]) { tmp = spairs2[i]; spairs2[i] = spairs2[j]; spairs2[j] = tmp }
  for (i = 0; i < ns2; i++) {
    stem = spairs2[i]
    short = stem
    sub(/^StreamingGenerate\//, "", short)
    ih = hp_by_name[stem "-inmem"] + 0
    sh = hp_by_name[stem "-streamed"] + 0
    printf "    {\"point\": \"%s\", \"inmem_ns_op\": %.0f, \"streamed_ns_op\": %.0f, \"inmem_peak_heap_bytes\": %.0f, \"streamed_peak_heap_bytes\": %.0f, \"streamed_over_inmem\": %.4f}%s\n", \
      short, ns_by_name[stem "-inmem"], ns_by_name[stem "-streamed"], ih, sh, sh / ih, (i < ns2 - 1 ? "," : "")
  }
  printf "  ]\n}\n"
}' "$raw" > "$out"

echo "wrote $out" >&2
