#!/usr/bin/env bash
# Interleaved A/B of one benchmark across two git revisions.
#
#   scripts/bench_ab.sh REV_A REV_B PAIRS [KEY] -- CMD...
#
# Checks out each revision in its own git worktree under build-ab/<sha>/ and
# builds nothing itself: CMD builds what it runs (perfbench/run.py builds its
# own .bench_build/). CMD runs PAIRS times per side from the worktree root,
# alternating the order (A first on odd pairs, B first on even ones) so drift
# on a shared host hits both sides alike; an unchanged build is a no-op after
# the first pair. `{out}` in CMD is replaced by the JSON path of that run, and
# `{pair}` by the pair number, counting from 1. KEY is the dotted path of the
# number to compare in that JSON (default: metrics.deliveries_per_s.value, a
# perfbench result line); a list is indexed by an integer part
# (fig6.rows.3.events_per_sec).
# Prints every run, then per side the median and quartiles, and in how many
# pairs B's value is higher than A's.
#
# Examples (the "before" leg of a change is its parent commit):
#   # perfbench, pair i at seed i:
#   scripts/bench_ab.sh HEAD~1 HEAD 10 -- sh -c \
#       'python3 perfbench/run.py --workload fig6_static --seed {pair} --seconds 25 --trace 0 | tail -1 > {out}'
#   scripts/bench_ab.sh HEAD~1 HEAD 10 fig6.rows.3.events_per_sec -- sh -c \
#       'cmake -S . -B build -DCMAKE_BUILD_TYPE=Release >/dev/null &&
#        cmake --build build --target bench_parallel >/dev/null &&
#        build/bench/bench_parallel --quick --out {out}'
#
# Worktrees are kept for reuse; drop them with `git worktree remove build-ab/<sha>`.
set -euo pipefail
shopt -s inherit_errexit

usage() { echo "usage: $0 REV_A REV_B PAIRS [KEY] -- CMD..." >&2; exit 2; }
[[ $# -ge 5 ]] || usage
rev_a=$1 rev_b=$2 pairs=$3
shift 3
key=metrics.deliveries_per_s.value
if [[ $1 != -- ]]; then key=$1; shift; fi
[[ $# -ge 2 && $1 == -- ]] || usage
shift
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage

root=$(git rev-parse --show-toplevel)
work=$root/build-ab
mkdir -p "$work/out"

checkout() {  # REV -> worktree dir of REV
  local sha dir
  sha=$(git -C "$root" rev-parse --short=12 "$1^{commit}")
  dir=$work/$sha
  [[ -d $dir ]] || git -C "$root" worktree add --detach "$dir" "$sha" >&2
  echo "$dir"
}
dir_a=$(checkout "$rev_a")
dir_b=$(checkout "$rev_b")

run() {  # SIDE DIR PAIR -> appends "SIDE value" to the results file
  local out=$work/out/$1-$3.json arg args=()
  for arg in "${cmd[@]}"; do
    arg=${arg//\{out\}/$out}
    args+=("${arg//\{pair\}/$3}")
  done
  (cd "$2" && "${args[@]}") >"$work/out/$1-$3.log" 2>&1
  python3 -c 'import json, sys
v = json.load(open(sys.argv[1]))
for k in sys.argv[2].split("."):
    v = v[int(k)] if isinstance(v, list) else v[k]
print(sys.argv[3], float(v))' "$out" "$key" "$1" | tee -a "$results"
}
cmd=("$@")
results=$work/out/results.txt
: >"$results"
for ((i = 1; i <= pairs; i++)); do
  if ((i % 2 == 1)); then
    run A "$dir_a" "$i"; run B "$dir_b" "$i"
  else
    run B "$dir_b" "$i"; run A "$dir_a" "$i"
  fi
done

python3 - "$results" "$key" "$rev_a" "$rev_b" <<'EOF'
import statistics, sys
rows = [line.split() for line in open(sys.argv[1])]
side = {s: [float(v) for t, v in rows if t == s] for s in "AB"}
print(f"{sys.argv[2]} over {len(side['A'])} interleaved pairs")
for s, rev in (("A", sys.argv[3]), ("B", sys.argv[4])):
    q1, med, q3 = statistics.quantiles(side[s], n=4) if len(side[s]) > 1 else [side[s][0]] * 3
    print(f"  {s} {rev}: median {med:.6g}  quartiles [{q1:.6g}, {q3:.6g}]")
wins = sum(b > a for a, b in zip(side["A"], side["B"]))
print(f"  B higher than A in {wins} of {len(side['A'])} pairs")
EOF
