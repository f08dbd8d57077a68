#!/usr/bin/env bash
# Runs the fleet-scale storage/latency sweep (bench_scale) and records
# the numbers the fleet-scale acceptance criteria are judged against:
#
#   - bytes/rule of the columnar universal table and of the flattened
#     dp::Program (CI gates both against absolute ceilings);
#   - universal build, full TANE mine and binding construction (bind)
#     wall times;
#   - per-intent incremental compile latency with the rule_diff /
#     slice_merge / switch_apply phase split;
#   - peak RSS per tier and the drift gate (patched program == fresh
#     full rebuild, switch copy included).
#
# Output: BENCH_scale.json at the repo root. The default sweep covers
# 1k / 10k / 100k / 1M services x 8 backends; --smoke restricts it to
# the sub-second tiers for CI presubmit.
set -euo pipefail

repo_root="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${BUILD_DIR:-${repo_root}/build}"

sizes=""
for arg in "$@"; do
  case "${arg}" in
    --smoke) sizes="--sizes=1000,10000" ;;
    --sizes=*) sizes="${arg}" ;;
    *) echo "usage: $0 [--smoke] [--sizes=N,N,...]" >&2; exit 2 ;;
  esac
done

if [[ ! -x "${build_dir}/bench/bench_scale" ]]; then
  cmake -B "${build_dir}" -S "${repo_root}"
  cmake --build "${build_dir}" --target bench_scale -j "$(nproc)"
fi

# bench_scale writes BENCH_scale.json into its working directory; run it
# at the repo root so the artifact lands next to the other baselines.
cd "${repo_root}"
if [[ -n "${sizes}" ]]; then
  "${build_dir}/bench/bench_scale" "${sizes}"
else
  "${build_dir}/bench/bench_scale"
fi

echo "wrote ${repo_root}/BENCH_scale.json (host cores: $(nproc))"
