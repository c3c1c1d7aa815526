#!/usr/bin/env bash
# CI bench runner + regression guard.
#
# Runs the serving-layer benchmark (batch vs scalar scoring), the substrate
# microbenches, the streaming-ingestion benchmark, the training-path
# benchmark, and the model-artifact save/load benchmark in google-benchmark
# JSON mode, writes BENCH_serve.json / BENCH_micro.json / BENCH_stream.json /
# BENCH_fit.json / BENCH_artifact.json / BENCH_monitor.json / BENCH_net.json
# (wire-serving daemon throughput + cold-question worker sweep) / BENCH_replica.json /
# BENCH_centrality.json (exact vs sampled vs incremental) / BENCH_ml.json
# (fp64 vote-MLP forward + workspace arena) into --out-dir, and
# fails if batched scoring at 256 candidates is not at least
# BENCH_MIN_SPEEDUP times faster (pairs/sec) than the scalar path, or if
# the batched timing-net training step is not at least BENCH_FIT_MIN_SPEEDUP
# times faster (rows/sec) than the per-sample reference. CI uploads the JSON
# files as artifacts so regressions can be diffed across runs.
#
# BENCH numbers from unoptimized builds are meaningless and, once committed,
# poison every future comparison — the script refuses to run unless the
# build directory was configured with CMAKE_BUILD_TYPE=Release. Native
# (FORUMCAST_NATIVE=ON) and portable trees both qualify, but their numbers
# differ by up to 2x, so every report's context carries forumcast_native
# (1 or 0) and a portable tree writes BENCH_<name>_portable.json instead of
# BENCH_<name>.json.
#
# Usage: tools/run_bench.sh [--build-dir DIR] [--out-dir DIR]
# Env:   BENCH_MIN_SPEEDUP  minimum batch/scalar items_per_second ratio.
#                           Unset -> 1.0 (the acceptance bar for the serving
#                           layer is 3.0 on quiet hardware — CI runners are
#                           noisy and shared, so the guard ships
#                           conservative). If set it must be a plain
#                           non-negative decimal like "1.5"; anything else —
#                           including set-but-empty — is rejected up front
#                           rather than surfacing as a python stack trace
#                           after minutes of benchmarking.
#        BENCH_FIT_MIN_SPEEDUP  minimum batched / per-sample rows/sec ratio
#                           of one timing excitation-net minibatch
#                           (BM_TimingNetStepBatched over
#                           BM_TimingNetStepPerSample in BENCH_fit.json),
#                           same format and default; the acceptance bar is
#                           2.0 on quiet hardware. BM_PipelineFit/{1,8} is
#                           printed but not gated: --fit-threads only shards
#                           LDA, so that ratio follows the host's cores.
#        BENCH_MONITOR_MIN_RATIO  minimum monitored / baseline ingest
#                           events/sec ratio, same format. Unset -> 0.5
#                           (conservative for shared runners); the acceptance
#                           bar is 0.95 — monitoring overhead under 5% — on
#                           quiet hardware.
#        BENCH_NET_MIN_RPS  minimum BM_NetScore/64 requests/sec over the
#                           wire. Unlike the ratio guards this one compares
#                           an absolute rate, which only means something on
#                           known hardware — so unset -> the guard is
#                           SKIPPED (the numbers are still printed and the
#                           JSON still written). The acceptance bar is 50000
#                           on quiet hardware. Same format rules: a plain
#                           non-negative decimal, anything else exits 2.
#        BENCH_REPLICA_MIN_EPS  minimum BM_FollowerApply events/sec (WAL
#                           tail replay into a bundle-fresh state — the
#                           replication tier's apply path). Absolute rate,
#                           same rules as BENCH_NET_MIN_RPS: unset -> the
#                           guard is SKIPPED but BENCH_replica.json is still
#                           written; non-numeric -> exit 2. The acceptance
#                           bar is 2000 events/sec on quiet hardware.
#        BENCH_CENTRALITY_MIN_SPEEDUP  minimum exact/sampled betweenness
#                           time ratio at 2048 nodes (BM_BetweennessExact/2048
#                           over BM_BetweennessSampled/2048). Unset -> the
#                           guard is SKIPPED but BENCH_centrality.json is
#                           still written; non-numeric -> exit 2. The
#                           acceptance bar is 10.0 on quiet hardware.
set -euo pipefail

BUILD_DIR=build
OUT_DIR=.
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out-dir) OUT_DIR="$2"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

# threshold OUT VAR DEFAULT EXAMPLE: validate one guard threshold before any
# expensive work and store it in OUT. ${VAR+x} distinguishes unset (OUT gets
# DEFAULT; an empty DEFAULT means the guard reports without gating) from
# set-but-empty (an error: the caller exported something, but not a
# number). EXAMPLE is the acceptance bar on quiet hardware.
threshold() {
  local out="$1" var="$2" default="$3" example="$4"
  if [[ -z "${!var+x}" ]]; then
    printf -v "$out" '%s' "$default"
  elif [[ "${!var}" =~ ^[0-9]+([.][0-9]+)?$ ]]; then
    printf -v "$out" '%s' "${!var}"
  else
    echo "error: $var must be a non-negative decimal number" \
         "(e.g. $example); got '${!var}'" >&2
    if [[ -n "$default" ]]; then
      echo "hint: unset it to use the default of $default" >&2
    else
      echo "hint: unset it to report the measurement without gating" >&2
    fi
    exit 2
  fi
}

threshold MIN_SPEEDUP BENCH_MIN_SPEEDUP 1.0 1.5
threshold FIT_MIN_SPEEDUP BENCH_FIT_MIN_SPEEDUP 1.0 2.0
threshold MONITOR_MIN_RATIO BENCH_MONITOR_MIN_RATIO 0.5 0.95
# Absolute-rate and hardware-dependent guards: no sensible default exists,
# so unset means "report, don't gate" (the value stays empty).
threshold NET_MIN_RPS BENCH_NET_MIN_RPS "" 50000
threshold REPLICA_MIN_EPS BENCH_REPLICA_MIN_EPS "" 2000
threshold CENTRALITY_MIN_SPEEDUP BENCH_CENTRALITY_MIN_SPEEDUP "" 10.0

# Refuse to emit BENCH files from an unoptimized build: a Debug binary runs
# the same code an order of magnitude slower, and a committed baseline
# measured that way would flag every healthy Release run as a regression (or
# mask a real one).
CACHE="$BUILD_DIR/CMakeCache.txt"
if [[ ! -f "$CACHE" ]]; then
  echo "error: $CACHE not found — is '$BUILD_DIR' a configured build tree?" >&2
  exit 2
fi
BUILD_TYPE=$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE")
NATIVE_OPTION=$(sed -n 's/^FORUMCAST_NATIVE:[^=]*=//p' "$CACHE")
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "error: refusing to write BENCH files from this build tree:" >&2
  echo "  CMAKE_BUILD_TYPE='$BUILD_TYPE' (need Release)" >&2
  echo "configure with:" >&2
  echo "  cmake -B '$BUILD_DIR' -S . -DCMAKE_BUILD_TYPE=Release [-DFORUMCAST_NATIVE=ON]" >&2
  exit 2
fi
case "${NATIVE_OPTION^^}" in
  ON|TRUE|1|YES|Y) NATIVE=1; SUFFIX="" ;;
  *) NATIVE=0; SUFFIX="_portable" ;;
esac
echo "== Release tree, forumcast_native=$NATIVE: reports go to" \
     "$OUT_DIR/BENCH_<name>$SUFFIX.json"

# Stamp the (already verified) repo build type and the native flag into every
# report's context. google-benchmark's own "library_build_type" field
# describes how the *benchmark library* was compiled — distro packages ship
# it debug-built even when the repo binaries are Release/native — so the
# baseline sanity check below keys on these injected fields instead.
BENCH_CONTEXT=(
  "--benchmark_context=forumcast_build_type=$BUILD_TYPE"
  "--benchmark_context=forumcast_native=$NATIVE"
)

# One row per google-benchmark binary: its name under $BUILD_DIR/bench/
# (the report goes to $OUT_DIR/BENCH_<name>.json), then any extra flags.
BENCHES=(
  "serve --benchmark_min_warmup_time=0.2"
  "micro"
  "stream"
  "fit"
  "artifact"
  "monitor"
  "net"
  "replica"
  "centrality"
  "ml --benchmark_min_warmup_time=0.2"
)

REPORTS=()
for row in "${BENCHES[@]}"; do
  read -r name _ <<< "$row"
  if [[ ! -x "$BUILD_DIR/bench/$name" ]]; then
    echo "error: $BUILD_DIR/bench/$name not built (configure with default options first)" >&2
    exit 2
  fi
  REPORTS+=("$OUT_DIR/BENCH_$name$SUFFIX.json")
done
mkdir -p "$OUT_DIR"

for row in "${BENCHES[@]}"; do
  read -r name extra <<< "$row"
  json="$OUT_DIR/BENCH_$name$SUFFIX.json"
  echo "== bench/$name -> $json"
  # $extra is deliberately unquoted: zero or more whitespace-separated flags.
  "$BUILD_DIR/bench/$name" --benchmark_out="$json" --benchmark_out_format=json \
    $extra "${BENCH_CONTEXT[@]}"
done

# Belt-and-braces against stale or hand-carried baselines: even though the
# build-tree check above gates on the CMake cache, also reject any produced
# JSON whose embedded context does not carry the Release and native stamps
# injected via BENCH_CONTEXT above. A baseline missing a stamp was produced
# by some other path than this script (or predates the stamp — BENCH_micro.json
# once shipped from an unverified tree); one stamped debug would mean the
# build-tree gate was bypassed. Note: google-benchmark's own
# "library_build_type" context field is NOT checked — it reports how the
# benchmark *library* was compiled, and distro packages ship it debug-built
# even under Release/native repo binaries.
echo "== baseline sanity: no debug-build contexts"
python3 - "$NATIVE" "${REPORTS[@]}" <<'PY'
import json
import sys

native, paths = sys.argv[1], sys.argv[2:]
bad = []
for path in paths:
    with open(path) as fh:
        context = json.load(fh).get("context", {})
    build = str(context.get("forumcast_build_type", "")).lower()
    if build != "release":
        label = build if build else "missing"
        bad.append(f"{path} (forumcast_build_type: {label})")
    stamp = str(context.get("forumcast_native", "missing"))
    if stamp != native:
        bad.append(f"{path} (forumcast_native: {stamp}, expected {native})")
if bad:
    sys.exit("refusing mis-stamped bench baselines (rebuild Release and "
             "re-run via tools/run_bench.sh): " + ", ".join(bad))
print(f"{len(paths)} bench reports carry Release build contexts "
      f"(forumcast_native={native})")
PY

echo "== model bundle: save/load latency and size"
python3 - "$OUT_DIR/BENCH_artifact$SUFFIX.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    report = json.load(fh)

benches = {
    bench["name"]: bench
    for bench in report["benchmarks"]
    if bench.get("run_type") != "aggregate"
}
for name in ("BM_BundleSave", "BM_BundleLoad"):
    bench = benches.get(name)
    if bench is None:
        sys.exit(f"missing {name} results in {sys.argv[1]}")
    ms = bench.get("real_time", 0.0)
    size = bench.get("bundle_bytes", 0.0)
    print(f"{name}: {ms:,.2f} ms, bundle {size / 1024.0:,.0f} KiB")
    if ms <= 0.0 or size <= 0.0:
        sys.exit(f"bench regression: {name} reported no time or an empty bundle")
PY

echo "== streaming ingestion: events/sec"
python3 - "$OUT_DIR/BENCH_stream$SUFFIX.json" <<'PY'
import json
import sys

with open(sys.argv[1]) as fh:
    report = json.load(fh)

rates = {
    bench["name"]: bench.get("items_per_second", 0.0)
    for bench in report["benchmarks"]
    if bench.get("run_type") != "aggregate"
}
if not any(name.startswith("BM_StreamIngest") for name in rates):
    sys.exit(f"missing BM_StreamIngest results in {sys.argv[1]}")
for name, rate in sorted(rates.items()):
    print(f"{name}: {rate:,.0f} events/sec")
    if rate <= 0.0:
        sys.exit(f"bench regression: {name} reported no throughput")
PY

echo "== regression guard: batch vs scalar pairs/sec at 256 candidates (+ timing head and vote forward report)"
python3 - "$OUT_DIR/BENCH_serve$SUFFIX.json" "$MIN_SPEEDUP" \
  "$OUT_DIR/BENCH_ml$SUFFIX.json" <<'PY'
import json
import sys

path, min_speedup, ml_path = sys.argv[1], float(sys.argv[2]), sys.argv[3]
with open(path) as fh:
    report = json.load(fh)
with open(ml_path) as fh:
    ml_report = json.load(fh)

rates = {}
for bench in report["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    rates[bench["name"]] = bench.get("items_per_second", 0.0)

scalar = rates.get("BM_ScalarScore/256")
batch = rates.get("BM_BatchScore/256")
if not scalar or not batch:
    sys.exit(f"missing BM_ScalarScore/256 or BM_BatchScore/256 in {path}")

speedup = batch / scalar
print(f"scalar: {scalar:,.0f} pairs/sec")
print(f"batch:  {batch:,.0f} pairs/sec")
# The timing head alone (rate networks + conditional-delay estimator), at
# constant and learned omega: a report beside the guard, never gated.
for name, rate in sorted(rates.items()):
    if name.startswith("BM_TimingDelayBatch/"):
        print(f"timing head {name.split('/', 1)[1]}: {rate:,.0f} rows/sec")
# The vote network alone (eq. (1): three 20-unit ReLU layers and a linear
# output) on a 256-row block, from BENCH_ml: also a report, never gated.
vote = [bench.get("items_per_second", 0.0) for bench in ml_report["benchmarks"]
        if bench["name"] == "BM_VoteForwardFp64/256"
        and bench.get("run_type") != "aggregate"]
if not vote:
    sys.exit(f"missing BM_VoteForwardFp64/256 in {ml_path}")
print(f"vote forward 256: {vote[0]:,.0f} rows/sec")
print(f"speedup: {speedup:.2f}x (required >= {min_speedup:.2f}x)")
if speedup < min_speedup:
    sys.exit(f"bench regression: batch/scalar speedup {speedup:.2f}x "
             f"below required {min_speedup:.2f}x")
PY

echo "== regression guard: monitoring overhead on ingest+score throughput"
python3 - "$OUT_DIR/BENCH_monitor$SUFFIX.json" "$MONITOR_MIN_RATIO" <<'PY'
import json
import sys

path, min_ratio = sys.argv[1], float(sys.argv[2])
with open(path) as fh:
    report = json.load(fh)

rates = {}
joined = 0.0
for bench in report["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    # Pinned-iteration benches report as "BM_Name/iterations:N".
    name = bench["name"].split("/")[0]
    rates[name] = bench.get("items_per_second", 0.0)
    if name == "BM_IngestScoreMonitored":
        joined = bench.get("outcomes_joined", 0.0)

baseline = rates.get("BM_IngestScoreBaseline")
monitored = rates.get("BM_IngestScoreMonitored")
if not baseline or not monitored:
    sys.exit(f"missing BM_IngestScoreBaseline or BM_IngestScoreMonitored in {path}")
if joined <= 0.0:
    sys.exit("bench invalid: the monitored run joined no outcomes — the "
             "monitor was not actually in the loop")

ratio = monitored / baseline
print(f"baseline:  {baseline:,.0f} events/sec")
print(f"monitored: {monitored:,.0f} events/sec ({joined:,.0f} outcomes joined)")
print(f"ratio: {ratio:.3f} (required >= {min_ratio:.2f}; overhead "
      f"{100.0 * (1.0 - ratio):.1f}%)")
if ratio < min_ratio:
    sys.exit(f"bench regression: monitored/baseline throughput {ratio:.3f} "
             f"below required {min_ratio:.2f}")
PY

echo "== regression guard: batched vs per-sample timing-net training step"
python3 - "$OUT_DIR/BENCH_fit$SUFFIX.json" "$FIT_MIN_SPEEDUP" <<'PY'
import json
import sys

path, min_speedup = sys.argv[1], float(sys.argv[2])
with open(path) as fh:
    report = json.load(fh)

rates = {}
for bench in report["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    if bench.get("error_occurred"):
        sys.exit(f"bench error in {bench['name']}: {bench.get('error_message')}")
    rates[bench["name"]] = bench.get("items_per_second", 0.0)

# Pipeline fit by --fit-threads: reported, not gated (only LDA shards).
serial = rates.get("BM_PipelineFit/1")
parallel = rates.get("BM_PipelineFit/8")
if not serial or not parallel:
    sys.exit(f"missing BM_PipelineFit/1 or BM_PipelineFit/8 in {path}")
print(f"pipeline fit, fit-threads=1: {serial:,.1f} questions/sec")
print(f"pipeline fit, fit-threads=8: {parallel:,.1f} questions/sec "
      f"({parallel / serial:.2f}x, {report['context'].get('num_cpus')} cpus; "
      f"not gated)")

per_sample = rates.get("BM_TimingNetStepPerSample")
batched = rates.get("BM_TimingNetStepBatched")
if not per_sample or not batched:
    sys.exit(f"missing BM_TimingNetStepPerSample or BM_TimingNetStepBatched "
             f"in {path}")

speedup = batched / per_sample
print(f"per-sample step: {per_sample:,.0f} rows/sec")
print(f"batched step:    {batched:,.0f} rows/sec")
print(f"speedup: {speedup:.2f}x (required >= {min_speedup:.2f}x)")
if speedup < min_speedup:
    sys.exit(f"bench regression: batched/per-sample training step "
             f"{speedup:.2f}x below required {min_speedup:.2f}x")
PY
echo "== wire serving: requests/sec and latency quantiles by concurrency"
python3 - "$OUT_DIR/BENCH_net$SUFFIX.json" "${NET_MIN_RPS:-}" <<'PY'
import json
import sys

path = sys.argv[1]
min_rps = float(sys.argv[2]) if len(sys.argv) > 2 and sys.argv[2] else None
with open(path) as fh:
    report = json.load(fh)

benches = {
    bench["name"]: bench
    for bench in report["benchmarks"]
    if bench.get("run_type") != "aggregate"
}
guard = None
for name in sorted(benches):
    bench = benches[name]
    rate = bench.get("items_per_second", 0.0)
    p50 = bench.get("p50_ms", 0.0)
    p99 = bench.get("p99_ms", 0.0)
    print(f"{name}: {rate:,.0f} req/sec (p50 {p50:.3f} ms, p99 {p99:.3f} ms)")
    if rate <= 0.0:
        sys.exit(f"bench regression: {name} reported no throughput")
    if name.startswith("BM_NetScore/64"):
        guard = rate
if guard is None:
    sys.exit(f"missing BM_NetScore/64 results in {path}")
# Cold-question worker sweep: reported, not gated (it scales with cores).
cold = {
    int(bench.get("workers", 0)): bench.get("items_per_second", 0.0)
    for name, bench in benches.items()
    if name.startswith("BM_NetScoreColdWorkers/")
}
if cold.get(1):
    scaling = ", ".join(f"{w} workers {rate / cold[1]:.2f}x"
                        for w, rate in sorted(cold.items()) if w > 1)
    print(f"cold-question worker sweep vs 1 worker "
          f"({report['context'].get('num_cpus')} cpus): {scaling}")
if min_rps is None:
    print(f"BENCH_NET_MIN_RPS unset: reporting only (BM_NetScore/64 at "
          f"{guard:,.0f} req/sec; the bar on quiet hardware is 50,000)")
elif guard < min_rps:
    sys.exit(f"bench regression: BM_NetScore/64 at {guard:,.0f} req/sec, "
             f"below required {min_rps:,.0f}")
else:
    print(f"wire-serving guard passed: {guard:,.0f} >= {min_rps:,.0f} req/sec")
PY
echo "== replication tier: ring lookups, primary ingest, follower apply"
python3 - "$OUT_DIR/BENCH_replica$SUFFIX.json" "${REPLICA_MIN_EPS:-}" <<'PY'
import json
import sys

path = sys.argv[1]
min_eps = float(sys.argv[2]) if len(sys.argv) > 2 and sys.argv[2] else None
with open(path) as fh:
    report = json.load(fh)

rates = {}
for bench in report["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    # Pinned-iteration benches report as "BM_Name/iterations:N".
    name = bench["name"].split("/iterations:")[0]
    rates[name] = bench.get("items_per_second", 0.0)

for name, rate in sorted(rates.items()):
    unit = "lookups" if name.startswith("BM_RingOwner") else "events"
    print(f"{name}: {rate:,.0f} {unit}/sec")
    if rate <= 0.0:
        sys.exit(f"bench regression: {name} reported no throughput")

apply_rate = rates.get("BM_FollowerApply")
if apply_rate is None:
    sys.exit(f"missing BM_FollowerApply results in {path}")
if min_eps is None:
    print(f"BENCH_REPLICA_MIN_EPS unset: reporting only (BM_FollowerApply at "
          f"{apply_rate:,.0f} events/sec; the bar on quiet hardware is 2,000)")
elif apply_rate < min_eps:
    sys.exit(f"bench regression: BM_FollowerApply at {apply_rate:,.0f} "
             f"events/sec, below required {min_eps:,.0f}")
else:
    print(f"replica-apply guard passed: {apply_rate:,.0f} >= "
          f"{min_eps:,.0f} events/sec")
PY
echo "== centrality: exact vs sampled betweenness at 2048 nodes"
python3 - "$OUT_DIR/BENCH_centrality$SUFFIX.json" "${CENTRALITY_MIN_SPEEDUP:-}" <<'PY'
import json
import sys

path = sys.argv[1]
min_speedup = float(sys.argv[2]) if len(sys.argv) > 2 and sys.argv[2] else None
with open(path) as fh:
    report = json.load(fh)

times = {}
for bench in report["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    times[bench["name"]] = bench.get("real_time", 0.0)

for name in sorted(times):
    print(f"{name}: {times[name]:,.2f} ms")
    if times[name] <= 0.0:
        sys.exit(f"bench regression: {name} reported no time")

exact = times.get("BM_BetweennessExact/2048")
sampled = times.get("BM_BetweennessSampled/2048")
if not exact or not sampled:
    sys.exit(f"missing BM_BetweennessExact/2048 or "
             f"BM_BetweennessSampled/2048 in {path}")

speedup = exact / sampled
print(f"sampled betweenness speedup at 2048 nodes: {speedup:.2f}x")
if min_speedup is None:
    print(f"BENCH_CENTRALITY_MIN_SPEEDUP unset: reporting only (the bar on "
          f"quiet hardware is 10.0)")
elif speedup < min_speedup:
    sys.exit(f"bench regression: sampled centrality speedup {speedup:.2f}x "
             f"below required {min_speedup:.2f}x")
else:
    print(f"centrality guard passed: {speedup:.2f}x >= {min_speedup:.2f}x")
PY
echo "== ml substrate: fp64 vote forward + workspace arena (report only)"
python3 - "$OUT_DIR/BENCH_ml$SUFFIX.json" <<'PY'
import json
import sys

path = sys.argv[1]
with open(path) as fh:
    report = json.load(fh)

for bench in report["benchmarks"]:
    if bench.get("run_type") == "aggregate":
        continue
    rate = bench.get("items_per_second", 0.0)
    print(f"{bench['name']}: {rate:,.0f} items/sec")
    if rate <= 0.0:
        sys.exit(f"bench regression: {bench['name']} reported no throughput")
PY
echo "bench guard passed"
