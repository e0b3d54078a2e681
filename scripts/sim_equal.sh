#!/usr/bin/env bash
# Do two git revisions simulate the same numbers?
#
#   scripts/sim_equal.sh REV_A REV_B
#
# For every workload in REV_B's BENCHMARK.json, seeds 1-3 and T in {0, 1},
# runs one scripts/bench_ab.sh pair (so both revisions run in its build-ab/
# worktrees, each building its own perfbench .bench_build/ on first use) of
#
#   python3 perfbench/run.py --workload W --seed S --seconds 1 --trace T
#
# and compares the two result lines on `attempted`, `failed` and every metric
# that is not a host measurement. Host measurements are host.*, ledger.*,
# peak_rss_mb, allocs_per_delivery and every metric whose unit is s, ns or
# 1/s. Prints one line per run and each differing value.
#
# Exit status: 0 when every compared value is equal, 1 on any difference or
# failed run, 2 on bad usage. A behaviour-preserving change runs
# `scripts/sim_equal.sh HEAD~1 HEAD` before it claims "every simulated
# number is unchanged".
set -euo pipefail
shopt -s inherit_errexit

[[ $# -eq 2 ]] || { echo "usage: $0 REV_A REV_B" >&2; exit 2; }

root=$(git rev-parse --show-toplevel)
out=$root/build-ab/out
mkdir -p "$out"
mapfile -t workloads < <(git -C "$root" show "$2:BENCHMARK.json" | python3 -c '
import json, sys
for w in json.load(sys.stdin)["workloads"]:
    print(w["name"])')

status=0
for w in "${workloads[@]}"; do
  for seed in 1 2 3; do
    for trace in 0 1; do
      run=$w-s$seed-t$trace
      if ! "$root/scripts/bench_ab.sh" "$1" "$2" 1 attempted -- sh -c \
          "python3 perfbench/run.py --workload $w --seed $seed --seconds 1 --trace $trace | tail -1 > {out}" \
          >"$out/sim-$run.log" 2>&1; then
        echo "$run: a run failed (logs: $out/sim-$run.log, $out/A-1.log, $out/B-1.log)"
        status=1
        continue
      fi
      python3 - "$run" "$out/A-1.json" "$out/B-1.json" <<'EOF' || status=1
import json, sys

def simulated(path):
    r = json.load(open(path))
    out = {"attempted": r["attempted"], "failed": r["failed"]}
    for name, m in r["metrics"].items():
        host = (name.startswith(("host.", "ledger.")) or
                name in ("peak_rss_mb", "allocs_per_delivery") or
                m["unit"] in ("s", "ns", "1/s"))
        if not host:
            out[name] = m["value"]
    return out

run, a, b = sys.argv[1], simulated(sys.argv[2]), simulated(sys.argv[3])
diff = [k for k in sorted(set(a) | set(b)) if a.get(k) != b.get(k)]
print(f"{run}: {len(a)} values, " + ("equal" if not diff else f"{len(diff)} differ"))
for k in diff:
    print(f"  {k}: A {a.get(k)}  B {b.get(k)}")
sys.exit(1 if diff else 0)
EOF
    done
  done
done
exit "$status"
