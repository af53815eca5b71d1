#!/usr/bin/env bash
# Runs every bench binary with google-benchmark JSON output and
# aggregates the per-kernel timings into BENCH_<date>.json, so the perf
# trajectory of the analysis kernels is recorded run over run. The
# streaming-ingest replay throughput lines that bench_ingest prints
# ("tokyonet-ingest: key=value ...") are parsed into the JSON too, and
# each binary's peak RSS lands in the output's "memory" section so the
# bounded-memory promise of the shard store is tracked alongside speed.
#
# Usage: tools/run_bench.sh [--cache-dir DIR] [--smoke] [--allow-debug]
#                           [--shard-demo SCALE]
#                           [--out-of-core-demo SCALE]
#                           [--baseline FILE] [--allow-regression]
#                           [build_dir] [out.json]
#   --cache-dir DIR  enable the on-disk campaign cache: pre-warm DIR via
#                    `tokyonet snapshot warm`, then run every bench with
#                    TOKYONET_CACHE_DIR=DIR so campaigns are mmap-loaded
#                    instead of re-simulated. Hit/miss counts land in the
#                    output JSON.
#   --smoke          print only each binary's reproduction (skip kernel
#                    timings) — fast correctness pass, e.g. in ctest.
#                    Exempt from the Release-build requirement.
#   --allow-debug    record timings from a non-Release build anyway. By
#                    default the script refuses: a Debug/unset build type
#                    would quietly poison the BENCH JSON trajectory.
#   --shard-demo S   out-of-core demonstration at panel scale S: stream
#                    the 2015 campaign to a throwaway shard store
#                    (DESIGN.md §5i) and render the sharded battery from
#                    it, recording both steps' peak RSS plus the store's
#                    size under "memory"."shard_demo" in the JSON.
#   --out-of-core-demo S
#                    pipelined-scan comparison (DESIGN.md §5j) at panel
#                    scale S (use >= 4): stream the 2015 campaign to a
#                    16-shard store, then time the out-of-core battery
#                    at --resident-shards 0 (strict sequential), 1
#                    (prefetch pipeline) and 4 (K-parallel scan),
#                    recording wall time and peak RSS of each under
#                    "out_of_core" in the JSON.
#   --baseline FILE  after writing out.json, run tools/bench_guard.py
#                    against FILE (normally the committed
#                    BENCH_2026-08-07.json) and fail if any kernel
#                    regressed more than 5% relative to the run-wide
#                    median speed shift. This is the CI bench gate.
#   --allow-regression
#                    report --baseline regressions but exit 0 anyway
#                    (intentional perf trades; record why in the PR).
#   build_dir        defaults to ./build; configured + built at
#                    CMAKE_BUILD_TYPE=Release automatically if missing
#   out.json         defaults to BENCH_$(date +%Y%m%d).json in the repo root
#
# Respects TOKYONET_THREADS and TOKYONET_BENCH_SCALE; both are recorded
# in the output alongside each kernel's timings.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cache_dir=""
smoke=0
allow_debug=0
shard_demo_scale=""
ooc_demo_scale=""
baseline=""
allow_regression=0
positional=()
while [ $# -gt 0 ]; do
  case "$1" in
    --cache-dir)
      [ $# -ge 2 ] || { echo "error: --cache-dir needs a value" >&2; exit 2; }
      cache_dir="$2"; shift 2 ;;
    --smoke)
      smoke=1; shift ;;
    --allow-debug)
      allow_debug=1; shift ;;
    --shard-demo)
      [ $# -ge 2 ] || { echo "error: --shard-demo needs a scale" >&2; exit 2; }
      shard_demo_scale="$2"; shift 2 ;;
    --out-of-core-demo)
      [ $# -ge 2 ] || { echo "error: --out-of-core-demo needs a scale" >&2; exit 2; }
      ooc_demo_scale="$2"; shift 2 ;;
    --baseline)
      [ $# -ge 2 ] || { echo "error: --baseline needs a file" >&2; exit 2; }
      baseline="$2"; shift 2 ;;
    --allow-regression)
      allow_regression=1; shift ;;
    -*)
      echo "error: unknown flag $1" >&2; exit 2 ;;
    *)
      positional+=("$1"); shift ;;
  esac
done
build_dir="${positional[0]:-${repo_root}/build}"
out_json="${positional[1]:-${repo_root}/BENCH_$(date +%Y%m%d).json}"
bench_dir="${build_dir}/bench"

if [ ! -d "${bench_dir}" ]; then
  echo "${bench_dir} not found — configuring ${build_dir} at Release..."
  cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
  cmake --build "${build_dir}" -j
fi

# Timings from anything but an optimized build are noise; read the build
# type straight from the CMake cache so a stale Debug tree can't sneak
# into the trajectory.
build_type=""
if [ -f "${build_dir}/CMakeCache.txt" ]; then
  build_type="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' \
      "${build_dir}/CMakeCache.txt")"
fi
if [ "${smoke}" -eq 0 ] && [ "${build_type}" != "Release" ]; then
  if [ "${allow_debug}" -eq 1 ]; then
    echo "warning: recording timings from a '${build_type:-unset}' build" \
         "(--allow-debug)" >&2
  else
    echo "error: ${build_dir} is built with" \
         "CMAKE_BUILD_TYPE='${build_type:-unset}', not Release." >&2
    echo "  reconfigure with -DCMAKE_BUILD_TYPE=Release, or pass" \
         "--allow-debug to record timings from it anyway." >&2
    exit 1
  fi
fi

if [ -n "${cache_dir}" ]; then
  mkdir -p "${cache_dir}"
  export TOKYONET_CACHE_DIR="${cache_dir}"
  # Pre-warm: simulate each year once (or confirm the snapshots are
  # already there) so the bench binaries below all hit the cache. The
  # CLI default scale differs from the bench default, so pass it.
  echo "warming campaign cache in ${cache_dir}..."
  "${build_dir}/tools/tokyonet" snapshot warm \
      --scale "${TOKYONET_BENCH_SCALE:-1.0}"
else
  # A cache dir inherited from the environment would silently change
  # what this run measures; require the explicit flag.
  unset TOKYONET_CACHE_DIR
fi

tmp_dir="$(mktemp -d)"
trap 'rm -rf "${tmp_dir}"' EXIT

benches=()
for bin in "${bench_dir}"/bench_*; do
  [ -x "${bin}" ] || continue
  benches+=("${bin}")
done
if [ "${#benches[@]}" -eq 0 ]; then
  echo "error: no bench binaries under ${bench_dir}" >&2
  exit 1
fi

bench_args=()
if [ "${smoke}" -eq 1 ]; then
  # Match no benchmark: each binary prints its reproduction and exits.
  bench_args+=("--benchmark_filter=^$")
fi

# Runs a command and appends its peak RSS in kilobytes to the file
# named by the first argument (no /usr/bin/time in minimal containers,
# so lean on wait4()'s rusage via python's resource module).
measure_rss() {
  local rss_file="$1"; shift
  python3 - "${rss_file}" "$@" <<'PYRSS'
import resource, subprocess, sys
rc = subprocess.call(sys.argv[2:])
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(sys.argv[1], "w") as f:
    f.write(f"{kb}\n")
sys.exit(rc)
PYRSS
}

echo "running ${#benches[@]} bench binaries (threads=${TOKYONET_THREADS:-auto}," \
     "scale=${TOKYONET_BENCH_SCALE:-1.0}, cache=${cache_dir:-off})..."
for bin in "${benches[@]}"; do
  name="$(basename "${bin}")"
  echo "  ${name}"
  # The reproduction text goes to the log; the benchmark JSON goes to a
  # per-binary file for aggregation, and the binary's peak RSS to a
  # .rss file for the output's "memory" section. A failing bench aborts
  # the run: a broken kernel must not silently vanish from the
  # trajectory.
  measure_rss "${tmp_dir}/${name}.rss" \
      "${bin}" --benchmark_out="${tmp_dir}/${name}.json" \
               --benchmark_out_format=json \
               "${bench_args[@]}" \
      > "${tmp_dir}/${name}.log" 2>&1 \
    || { echo "error: ${name} failed; log follows" >&2; \
         cat "${tmp_dir}/${name}.log" >&2; exit 1; }
done

# Campaign-cache effectiveness: the bench binaries print one
# "tokyonet-cache: hit|miss <path>" line per campaign they materialize,
# on stderr, which the .log files capture along with stdout. The match
# is unanchored: the unbuffered stderr line can land after a partial,
# not yet newline-terminated block of buffered stdout.
cache_hits=0
cache_misses=0
if [ -n "${cache_dir}" ]; then
  cache_hits="$(cat "${tmp_dir}"/*.log | grep -c 'tokyonet-cache: hit ' || true)"
  cache_misses="$(cat "${tmp_dir}"/*.log | grep -c 'tokyonet-cache: miss ' || true)"
  echo "campaign cache: ${cache_hits} hits, ${cache_misses} misses"
fi

if [ "${smoke}" -eq 1 ]; then
  echo "smoke mode: reproductions only, skipping ${out_json}"
  exit 0
fi

# Out-of-core demonstration (DESIGN.md §5i): stream a campaign to a
# shard store and render the sharded battery from it, recording peak
# RSS of both steps so the bounded-memory claim has numbers next to it.
if [ -n "${shard_demo_scale}" ]; then
  cli="${build_dir}/tools/tokyonet"
  [ -x "${cli}" ] || { echo "error: ${cli} not built" >&2; exit 1; }
  demo_dir="${tmp_dir}/shard_demo_store"
  echo "shard demo: streaming 2015 at scale ${shard_demo_scale}..."
  measure_rss "${tmp_dir}/shard_stream.rss" \
      "${cli}" snapshot shard --year 2015 --scale "${shard_demo_scale}" \
               --out "${demo_dir}" --shards 0 \
      > "${tmp_dir}/shard_demo.log" 2>&1 \
    || { echo "error: snapshot shard failed; log follows" >&2; \
         cat "${tmp_dir}/shard_demo.log" >&2; exit 1; }
  echo "shard demo: out-of-core battery..."
  measure_rss "${tmp_dir}/shard_report.rss" \
      "${cli}" report --shard-dir "${demo_dir}" \
      >> "${tmp_dir}/shard_demo.log" 2>&1 \
    || { echo "error: out-of-core report failed; log follows" >&2; \
         cat "${tmp_dir}/shard_demo.log" >&2; exit 1; }
  # "streamed <D> devices / <S> samples to <dir> (<N> shards)"
  demo_line="$(sed -n 's/^streamed //p' "${tmp_dir}/shard_demo.log" | head -n 1)"
  demo_devices="$(echo "${demo_line}" | awk '{print $1}')"
  demo_samples="$(echo "${demo_line}" | awk '{print $4}')"
  demo_shards="$(echo "${demo_line}" | sed -n 's/.*(\([0-9]*\) shards)$/\1/p')"
  demo_disk_kb="$(du -sk "${demo_dir}" | cut -f1)"
  python3 - "${tmp_dir}" "${shard_demo_scale}" "${demo_devices:-0}" \
           "${demo_samples:-0}" "${demo_shards:-0}" "${demo_disk_kb}" <<'PY'
import json, sys
tmp, scale, devices, samples, shards, disk_kb = sys.argv[1:7]
def rss(name):
    with open(f"{tmp}/{name}.rss") as f:
        return int(f.read().strip())
with open(f"{tmp}/shard_demo.json", "w") as f:
    json.dump({
        "scale": float(scale),
        "devices": int(devices),
        "samples": int(samples),
        "shards": int(shards),
        "store_disk_kb": int(disk_kb),
        "stream_peak_rss_kb": rss("shard_stream"),
        "report_peak_rss_kb": rss("shard_report"),
    }, f)
PY
  rm -rf "${demo_dir}" "${tmp_dir}/shard_stream.rss" "${tmp_dir}/shard_report.rss"
  echo "shard demo: $(cat "${tmp_dir}/shard_demo.json")"
fi

# Pipelined out-of-core comparison (DESIGN.md §5j): one 16-shard store,
# three battery runs at --resident-shards 0 / 1 / 4, each with wall
# time and peak RSS. The K=0 run is the PR 8 sequential baseline the
# speedup is measured against.
if [ -n "${ooc_demo_scale}" ]; then
  cli="${build_dir}/tools/tokyonet"
  [ -x "${cli}" ] || { echo "error: ${cli} not built" >&2; exit 1; }
  ooc_dir="${tmp_dir}/ooc_demo_store"
  echo "out-of-core demo: streaming 2015 at scale ${ooc_demo_scale}" \
       "(16 shards)..."
  "${cli}" snapshot shard --year 2015 --scale "${ooc_demo_scale}" \
      --out "${ooc_dir}" --shards 16 \
      > "${tmp_dir}/ooc_demo.log" 2>&1 \
    || { echo "error: snapshot shard failed; log follows" >&2; \
         cat "${tmp_dir}/ooc_demo.log" >&2; exit 1; }
  for k in 0 1 4; do
    echo "out-of-core demo: battery at --resident-shards ${k}..."
    python3 - "${tmp_dir}/ooc_k${k}" "${cli}" report \
        --shard-dir "${ooc_dir}" --resident-shards "${k}" <<'PYOOC' \
      >> "${tmp_dir}/ooc_demo.log" 2>&1 \
      || { echo "error: out-of-core battery (K=${k}) failed; log follows" >&2; \
           cat "${tmp_dir}/ooc_demo.log" >&2; exit 1; }
import json, resource, subprocess, sys, time
t0 = time.monotonic()
rc = subprocess.call(sys.argv[2:])
seconds = time.monotonic() - t0
kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(sys.argv[1] + ".json", "w") as f:
    json.dump({"seconds": round(seconds, 3), "peak_rss_kb": kb}, f)
sys.exit(rc)
PYOOC
  done
  ooc_disk_kb="$(du -sk "${ooc_dir}" | cut -f1)"
  python3 - "${tmp_dir}" "${ooc_demo_scale}" "${ooc_disk_kb}" <<'PY'
import json, sys
tmp, scale, disk_kb = sys.argv[1:4]
out = {"scale": float(scale), "shards": 16, "store_disk_kb": int(disk_kb)}
for k in (0, 1, 4):
    with open(f"{tmp}/ooc_k{k}.json") as f:
        out[f"resident_shards_{k}"] = json.load(f)
seq = out["resident_shards_0"]["seconds"]
for k in (1, 4):
    run = out[f"resident_shards_{k}"]
    run["speedup_vs_sequential"] = round(seq / run["seconds"], 3) \
        if run["seconds"] > 0 else None
with open(f"{tmp}/ooc_demo.json", "w") as f:
    json.dump(out, f)
PY
  rm -rf "${ooc_dir}" "${tmp_dir}"/ooc_k*.json
  echo "out-of-core demo: $(cat "${tmp_dir}/ooc_demo.json")"
fi

# Streaming ingest throughput: bench_ingest prints one
# "tokyonet-ingest: key=value ..." line per replay configuration.
ingest_lines="${tmp_dir}/ingest_lines.txt"
cat "${tmp_dir}"/*.log | grep '^tokyonet-ingest: ' > "${ingest_lines}" || true

# Figure-catalog coverage: bench_all prints "tokyonet-figures: count=N"
# after rendering every registered reproduction.
figure_count="$(cat "${tmp_dir}"/*.log \
    | sed -n 's/^tokyonet-figures: count=//p' | head -n 1)"
figure_count="${figure_count:-0}"

# SIMD path the kernels compiled to, from the bench header
# ("tokyonet-simd: isa=sse2|neon|scalar").
simd_isa="$(cat "${tmp_dir}"/*.log \
    | sed -n 's/^tokyonet-simd: isa=//p' | head -n 1)"
simd_isa="${simd_isa:-unknown}"

python3 - "${tmp_dir}" "${out_json}" "${cache_dir}" "${cache_hits}" \
         "${cache_misses}" "${ingest_lines}" "${build_type}" \
         "${figure_count}" "${simd_isa}" <<'PY'
import json, os, sys
from datetime import datetime, timezone

tmp_dir, out_json, cache_dir, hits, misses, ingest_lines, build_type, \
    figure_count, simd_isa = sys.argv[1:10]

def parse_ingest_line(line):
    # "tokyonet-ingest: year=2015 mode=block shards=4 ... records_per_sec=..."
    out = {}
    for tok in line.split()[1:]:
        key, _, val = tok.partition("=")
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out

ingest_runs = []
if os.path.exists(ingest_lines):
    with open(ingest_lines) as f:
        ingest_runs = [parse_ingest_line(l) for l in f if l.strip()]

result = {
    "date": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
    "threads": os.environ.get("TOKYONET_THREADS", "auto"),
    "bench_scale": os.environ.get("TOKYONET_BENCH_SCALE", "1.0"),
    "build_type": build_type,
    "campaign_cache": {
        "enabled": bool(cache_dir),
        "hits": int(hits),
        "misses": int(misses),
    },
    "ingest": ingest_runs,
    "figures": int(figure_count),
    "simd_isa": simd_isa,
    "simulator_samples_per_sec": None,
    # Peak resident set size of each bench binary (wait4 rusage,
    # kilobytes) — the out-of-core shard store (DESIGN.md §5i) makes
    # this the number that must stay flat as campaign scale grows.
    "memory": {},
    "benches": {},
}
for fname in sorted(os.listdir(tmp_dir)):
    if not fname.endswith(".rss"):
        continue
    with open(os.path.join(tmp_dir, fname)) as f:
        result["memory"][fname[: -len(".rss")]] = {
            "peak_rss_kb": int(f.read().strip())
        }
# Out-of-core demonstration (--shard-demo): stream + sharded battery
# peak RSS and store size at the requested scale.
demo_json = os.path.join(tmp_dir, "shard_demo.json")
if os.path.exists(demo_json):
    with open(demo_json) as f:
        result["memory"]["shard_demo"] = json.load(f)
# Pipelined-scan comparison (--out-of-core-demo): battery wall time and
# peak RSS at resident-shards 0 / 1 / 4 over one 16-shard store.
ooc_json = os.path.join(tmp_dir, "ooc_demo.json")
if os.path.exists(ooc_json):
    with open(ooc_json) as f:
        result["out_of_core"] = json.load(f)
for fname in sorted(os.listdir(tmp_dir)):
    if not fname.endswith(".json"):
        continue
    if fname in ("shard_demo.json", "ooc_demo.json"):
        continue  # demo records, not benchmark outputs
    with open(os.path.join(tmp_dir, fname)) as f:
        try:
            data = json.load(f)
        except ValueError:
            # A binary with no registered kernels (bench_all only
            # renders the catalog) leaves its --benchmark_out empty.
            data = {}
    kernels = {}
    for b in data.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        entry = {
            "real_time": b.get("real_time"),
            "cpu_time": b.get("cpu_time"),
            "time_unit": b.get("time_unit", "ns"),
            "iterations": b.get("iterations"),
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        kernels[b["name"]] = entry
        # Campaign generation throughput, surfaced at the top level so
        # the simulator's trajectory is one jq expression away.
        if b["name"] == "BM_SimulateCampaign" and "items_per_second" in b:
            result["simulator_samples_per_sec"] = b["items_per_second"]
    result["benches"][fname[: -len(".json")]] = {
        "context": {
            k: data.get("context", {}).get(k)
            for k in ("num_cpus", "mhz_per_cpu", "library_build_type")
        },
        "kernels": kernels,
    }
with open(out_json, "w") as f:
    json.dump(result, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out_json} ({len(result['benches'])} benches)")
PY

# Kernel-battery regression gate: every kernel in the baseline BENCH
# JSON must still be within 5% of the run-wide median speed shift
# (bench_guard.py normalizes away machine differences). A deliberate
# perf trade ships with --allow-regression and a note in the PR.
if [ -n "${baseline}" ]; then
  guard_args=("${baseline}" "${out_json}")
  if [ "${allow_regression}" -eq 1 ]; then
    guard_args+=(--allow-regression)
  fi
  python3 "${repo_root}/tools/bench_guard.py" "${guard_args[@]}"
fi
