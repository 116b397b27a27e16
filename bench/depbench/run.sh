#!/usr/bin/env bash
# depbench: build the benchmark from this checkout's sources and run it.
#
#   run.sh                               every workload, one process each
#   run.sh --workload NAME               one workload; its last stdout line
#                                        is the result JSON
#          [--seed N] [--seconds S] [--trace 0|1]
#          [--runs R]                    R seeds (N, N+1, ...) per workload
#          [--out FILE]                  append each result as a JSON line
#   run.sh --trace                       the per-layer run (traces land in
#                                        .bench_build/depbench/traces)
#   run.sh --smoke                       tiny sizes, every gate, < 60 s
#   run.sh --compare A.jsonl B.jsonl     per-workload verdicts vs the bounds
#
# DEPMATCH_SANITIZE=address run.sh --smoke builds with ASan+UBSan into its
# own build directory. Exit status: 0 when every run passed its
# correctness gates, non-zero otherwise (and on build failure).
set -euo pipefail

HERE="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(cd "$HERE/../.." && pwd)"
cd "$ROOT"

WORKLOADS=(pair_match serve_search serve_ingest catalog_100k)
workloads=()
seed=1
seconds=""
trace=0
runs=1
out=""
smoke=0
compare=()

die() { echo "run.sh: $*" >&2; exit 1; }

while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) [[ $# -ge 2 ]] || die "--workload needs a name"; workloads+=("$2"); shift 2 ;;
    --seed) [[ $# -ge 2 ]] || die "--seed needs a value"; seed="$2"; shift 2 ;;
    --seconds) [[ $# -ge 2 ]] || die "--seconds needs a value"; seconds="$2"; shift 2 ;;
    --trace)
      if [[ $# -ge 2 && ( "$2" == 0 || "$2" == 1 ) ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --runs) [[ $# -ge 2 ]] || die "--runs needs a value"; runs="$2"; shift 2 ;;
    --out) [[ $# -ge 2 ]] || die "--out needs a file"; out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    --compare) [[ $# -ge 3 ]] || die "--compare needs two files"; compare=("$2" "$3"); shift 3 ;;
    *) die "unknown argument '$1' (see the header of $0)" ;;
  esac
done

if [[ ${#compare[@]} -gt 0 ]]; then
  exec python3 "$HERE/compare.py" "$ROOT/BENCHMARK.json" "${compare[0]}" "${compare[1]}"
fi
[[ "$seed" =~ ^[0-9]+$ ]] || die "--seed takes a whole number"
[[ "$runs" =~ ^[1-9][0-9]*$ ]] || die "--runs takes a positive whole number"
if [[ -z "$seconds" ]]; then
  # The measured length every recorded run used (BENCHMARK.json).
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json 2>/dev/null | head -1)"
  seconds="${seconds:-20}"
fi

# Everything a build or run leaves behind stays under .bench_build/.
# Paths are kept relative: the service's socket lives under the work
# directory, and AF_UNIX socket paths are limited to ~100 bytes.
build_root=".bench_build"
sanitize="${DEPMATCH_SANITIZE:-}"
build="$build_root/depbench${sanitize:+-$sanitize}"
work="$build/work"
traces="$build/traces"

build_type=Release
[[ -n "$sanitize" ]] && build_type=RelWithDebInfo
if [[ ! -f "$build/Makefile" && ! -f "$build/build.ninja" ]]; then
  cmake -S bench/depbench -B "$build" -DCMAKE_BUILD_TYPE="$build_type" \
    -DDEPMATCH_SANITIZE="$sanitize" >&2 || die "configure failed"
fi
cmake --build "$build" -j "$(nproc 2>/dev/null || echo 4)" >&2 || die "build failed"
bin="$build/depbench"

if [[ $smoke -eq 1 ]]; then
  exec "$bin" --smoke --workdir "$work"
fi

[[ ${#workloads[@]} -gt 0 ]] || workloads=("${WORKLOADS[@]}")
# A single untagged run (one workload, one seed, no --out): pass the
# binary's output and exit status straight through.
if [[ ${#workloads[@]} -eq 1 && $runs -eq 1 && -z "$out" ]]; then
  exec "$bin" --workload "${workloads[0]}" --seed "$seed" --seconds "$seconds" \
    --trace "$trace" --workdir "$work" --trace-dir "$traces"
fi

status=0
for workload in "${workloads[@]}"; do
  for ((r = 0; r < runs; ++r)); do
    s=$((seed + r))
    echo "== $workload seed=$s seconds=$seconds trace=$trace" >&2
    log="$(mktemp "$build/run.XXXXXX")"
    if ! "$bin" --workload "$workload" --seed "$s" --seconds "$seconds" \
        --trace "$trace" --workdir "$work" --trace-dir "$traces" > "$log"; then
      status=1
    fi
    cat "$log"
    result="$(tail -n 1 "$log")"
    rm -f "$log"
    if [[ -n "$out" && "$result" == "{"* ]]; then
      echo "{\"workload\": \"$workload\", \"seed\": $s, \"trace\": $trace, ${result#\{}" >> "$out"
    fi
  done
done
exit $status
