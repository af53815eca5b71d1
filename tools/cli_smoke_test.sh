#!/usr/bin/env bash
# Asserts the tokyonet CLI's documented exit-code contract:
#   0 success, 2 bad usage / malformed flags, 3 load/IO failure,
#   4 verification failure.
#
# Usage: tools/cli_smoke_test.sh [build_dir]
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
tokyonet="${build_dir}/tools/tokyonet"

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

expect() {
  local want="$1"
  shift
  local got=0
  "$@" >/dev/null 2>&1 || got=$?
  if [ "${got}" != "${want}" ]; then
    echo "FAIL: '$*' exited ${got}, want ${want}" >&2
    exit 1
  fi
  echo "ok (exit ${want}): $*"
}

# 0: success paths (tiny scale keeps this fast).
expect 0 "${tokyonet}" fig list
expect 0 "${tokyonet}" fig run table01 --year 2015 --scale 0.02 --format json

# Machine output stays machine-readable: with the campaign cache on, the
# cache hit/miss diagnostics go to stderr and stdout is pure JSON.
mkdir "${tmp}/cache"
TOKYONET_CACHE_DIR="${tmp}/cache" "${tokyonet}" fig run table01 \
    --year 2015 --scale 0.02 --format json 2>/dev/null \
  | python3 -m json.tool >/dev/null || {
  echo "FAIL: fig run --format json stdout is not JSON with" \
       "TOKYONET_CACHE_DIR set" >&2; exit 1; }
echo "ok: --format json stdout parses with the campaign cache on"

# A loopback ingest replay commits the campaign byte for byte.
ingest_out="$("${tokyonet}" ingest stats --year 2013 --scale 0.05 \
    --shards 2 2>/dev/null)" || {
  echo "FAIL: ingest stats exited non-zero" >&2; exit 1; }
echo "${ingest_out}" | grep -q "^verify:" || {
  echo "FAIL: ingest stats printed no verify: line" >&2; exit 1; }
echo "ok: ingest stats verifies the committed campaign"

# 2: bad usage and malformed flags (strict numeric parsing).
expect 2 "${tokyonet}" bogus-command
expect 2 "${tokyonet}" fig run table01 --year 20x5
expect 2 "${tokyonet}" report --year 2015 --scale abc
expect 2 "${tokyonet}" fig run table01 --year 2015 --seed -3
expect 2 "${tokyonet}" fig run no_such_figure
expect 2 "${tokyonet}" fig run fig01 --year 2015  # longitudinal: no --year
expect 2 "${tokyonet}" fig run table01 --year 2015 --format yaml
expect 2 "${tokyonet}" report --year 2020
# One worker thread per ingest shard: an absurd --shards is refused
# before any server (or simulation) starts.
expect 2 "${tokyonet}" ingest stats --year 2013 --shards 2000000000

# 3: missing inputs.
expect 3 "${tokyonet}" report --in "${tmp}/no-such-dir"
expect 3 "${tokyonet}" snapshot load --in "${tmp}/missing.snap"

# 4: verification failures.
echo "this is not a snapshot" > "${tmp}/corrupt.snap"
expect 4 "${tokyonet}" snapshot load --in "${tmp}/corrupt.snap"
mkdir "${tmp}/empty-goldens"
expect 4 "${tokyonet}" fig all --check-goldens --goldens "${tmp}/empty-goldens"

# Shard stores follow the same contract (DESIGN.md §5i): stream a tiny
# store, verify it, then corrupt it and watch info/report/fig fail
# with 4 (present but broken) vs 3 (missing entirely).
expect 0 "${tokyonet}" snapshot shard --year 2015 --scale 0.02 \
    --out "${tmp}/shards" --shards 2
expect 0 "${tokyonet}" snapshot info --in "${tmp}/shards"
expect 0 "${tokyonet}" report --shard-dir "${tmp}/shards"
expect 0 "${tokyonet}" report --shard-dir "${tmp}/shards" --resident-shards 0

# A shard store is always read out of core: every per-year figure works
# (the Fig 6 ratio scan included), a longitudinal figure — it spans all
# three campaigns, a store holds one — is rejected with 2 (and the
# supported ids on stderr), and so is another campaign year. The old
# --out-of-core switch is gone: it is now an unknown flag.
expect 0 "${tokyonet}" fig run table01 --shard-dir "${tmp}/shards"
expect 0 "${tokyonet}" fig run fig12 --shard-dir "${tmp}/shards" \
    --resident-shards 2
expect 0 "${tokyonet}" fig run fig06 --shard-dir "${tmp}/shards"
expect 0 "${tokyonet}" fig all --shard-dir "${tmp}/shards" --format json
# `fig all --format json` prints one JSON document: an array with one
# entry per out-of-core figure of the store's year (csv stays stacked).
"${tokyonet}" fig list > "${tmp}/fig-list.txt"
"${tokyonet}" fig all --shard-dir "${tmp}/shards" --format json \
    2>/dev/null > "${tmp}/fig-all.json"
python3 - "${tmp}/fig-list.txt" "${tmp}/fig-all.json" <<'PY' || {
import json, re, sys
rows = [re.split(r"\s{2,}", line.strip())
        for line in open(sys.argv[1]).read().splitlines()[2:] if "  " in line]
want = sum(1 for r in rows if r[2] == "yes" and "2015" in r[1].split())
got = json.load(open(sys.argv[2]))
assert isinstance(got, list) and len(got) == want, (len(got), want)
PY
  echo "FAIL: fig all --format json is not one array of the" \
       "out-of-core figures" >&2; exit 1; }
echo "ok: fig all --format json parses as one array per figure"
expect 2 "${tokyonet}" fig run fig01 --shard-dir "${tmp}/shards"  # longitudinal
expect 2 "${tokyonet}" fig run table01 --shard-dir "${tmp}/shards" \
    --year 2013  # the store holds 2015
expect 2 "${tokyonet}" fig run table01 --shard-dir "${tmp}/shards" \
    --out-of-core
expect 2 "${tokyonet}" report --shard-dir "${tmp}/shards" --out-of-core
rejection="$("${tokyonet}" fig run fig01 --shard-dir "${tmp}/shards" \
    2>&1 || true)"
if ! echo "${rejection}" | grep -q "fig12"; then
  echo "FAIL: rejected shard-store run must list the supported ids" >&2
  exit 1
fi
echo "ok: longitudinal rejection lists supported ids"

# `fig list` carries the ooc column: the per-year Fig 6 ratio scan runs
# out of core, the longitudinal Fig 1 does not.
list="$("${tokyonet}" fig list)"
echo "${list}" | grep -q " ooc " || {
  echo "FAIL: fig list is missing the ooc column" >&2; exit 1; }
echo "${list}" | grep "^fig06 " | grep -q " yes " || {
  echo "FAIL: fig06 must be marked ooc=yes" >&2; exit 1; }
if echo "${list}" | grep "^fig01 " | grep -q " yes "; then
  echo "FAIL: fig01 must not be marked ooc" >&2; exit 1
fi
echo "ok: fig list ooc column pins the out-of-core catalog"

expect 3 "${tokyonet}" snapshot info --in "${tmp}/no-such-store"
expect 3 "${tokyonet}" report --shard-dir "${tmp}/no-such-store"
rm "${tmp}/shards/shard-0001.tksnap"
expect 4 "${tokyonet}" snapshot info --in "${tmp}/shards"
expect 4 "${tokyonet}" report --shard-dir "${tmp}/shards"
expect 4 "${tokyonet}" fig run table01 --shard-dir "${tmp}/shards"

echo "PASS: exit-code contract holds"
