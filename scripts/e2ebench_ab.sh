#!/usr/bin/env bash
# Interleaved A/B run of the benchmark: a parent revision against the
# working tree.
#
# Builds e2ebench from <parent-rev> and from the working tree (tracked and
# untracked files that git does not ignore, uncommitted edits included) at
# equal-length paths in one temporary directory: binaries built at paths of
# different lengths differ in .text layout, enough to move host_rps by about
# 10%. Then, for every workload in BENCHMARK.json (or the ones named after
# the seconds), it runs `pairs` seeded pairs, pair i at seed 100+i on both
# sides, alternating which side goes first. It prints one line per run and,
# per workload and end-to-end metric, each side's median [IQR], the median
# of the per-pair change/parent ratios and the change's wins (ties count for
# neither side). A metric whose median ratio is worse than its
# BENCHMARK.json bound is flagged.
#
# Exit status: 1 if a run reports `correct: false`, or a pair's vt_* values
# differ between the sides (virtual time depends only on the seed); 2 if a
# metric is flagged or the change fails a larger share of operations; else 0.
#
# Usage: scripts/e2ebench_ab.sh <parent-rev> [pairs] [seconds] [workload...]
#   pairs defaults to 10, seconds to BENCHMARK.json's run_seconds.
set -euo pipefail
parent=${1:?usage: scripts/e2ebench_ab.sh <parent-rev> [pairs] [seconds] [workload...]}
pairs=${2:-10}
repo=$(git rev-parse --show-toplevel)
seconds=${3:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$repo/BENCHMARK.json")}
shift $(($# < 3 ? $# : 3))
if (($# > 0)); then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c 'import json,sys; [print(w["name"]) for w in json.load(open(sys.argv[1]))["workloads"]]' "$repo/BENCHMARK.json")
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# "parent" and "change" have the same length, so both builds see paths of
# equal length.
mkdir -p "$tmp/parent" "$tmp/change" "$tmp/runs"
git -C "$repo" archive "$parent" | tar -x -C "$tmp/parent"
(cd "$repo" && git ls-files -z --cached --others --exclude-standard \
  | tar --null --ignore-failed-read -T - -cf -) 2>/dev/null | tar -x -C "$tmp/change"
for side in parent change; do
  echo "# building the $side" >&2
  env -u CARGO_TARGET_DIR cargo build --release --offline --quiet \
    --manifest-path "$tmp/$side/e2ebench/Cargo.toml"
done

echo "# parent=$parent pairs=$pairs seconds=$seconds seeds=101..$((100 + pairs)) nproc=$(nproc)"
for workload in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    seed=$((100 + i))
    order=(parent change)
    ((i % 2 == 0)) && order=(change parent)
    for side in "${order[@]}"; do
      out="$tmp/runs/$workload.$i.$side"
      # The run exits 1 on an output mismatch after printing its result
      # line; the summary below reads `correct` from that line.
      "$tmp/$side/e2ebench/target/release/e2ebench" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 > "$out" 2>&1 || true
      tail -n 1 "$out" | python3 -c '
import json, sys
side, workload, pair = sys.argv[1:4]
try:
    r = json.loads(sys.stdin.read())
except ValueError:
    print(f"{workload} pair {pair} {side}: no result line"); sys.exit()
m = " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items())
ok, failed, attempted = str(r["correct"]).lower(), r["failed"], r["attempted"]
print(f"{workload} pair {pair} {side}: correct={ok} failed={failed}/{attempted} {m}")
' "$side" "$workload" "$i"
    done
  done
done

python3 - "$repo/BENCHMARK.json" "$tmp/runs" "$pairs" "${workloads[@]}" <<'EOF'
import json, os, statistics, sys

bench_path, runs, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
bench = json.load(open(bench_path))

def result(workload, pair, side):
    path = os.path.join(runs, f"{workload}.{pair}.{side}")
    try:
        with open(path) as f:
            return json.loads(f.read().strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        k = (len(xs) - 1) * p
        lo, hi = int(k), min(int(k) + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)
    return q(0.25), q(0.5), q(0.75)

def spread(xs):
    q1, q2, q3 = quartiles(xs)
    return f"{q2:.5g} [{q1:.5g}-{q3:.5g}]"

status = 0
for workload in workloads:
    res = {side: [result(workload, i, side) for i in range(1, pairs + 1)]
           for side in ("parent", "change")}
    print(f"\n## {workload}")
    bad = {side: [i + 1 for i, r in enumerate(rs) if r is None or not r["correct"]]
           for side, rs in res.items()}
    if any(bad.values()):
        print(f"FAIL: runs that are not correct, by pair: {bad}")
        status = 1
        continue
    share = {side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
             for side, rs in res.items()}
    print(f"failed share: parent {share['parent']:.6f}, change {share['change']:.6f}")
    if share["change"] > share["parent"]:
        print("FLAG: the change fails a larger share of operations")
        status = max(status, 2)
    print(f"{'metric':<12} {'parent median [IQR]':>34} {'change median [IQR]':>34} "
          f"{'ratio':>7} {'wins':>6}  bound")
    for metric in bench["end_to_end"]:
        name, higher, bound = metric["name"], metric["better"] == "higher", metric["bound"]
        p = [r["metrics"][name]["value"] for r in res["parent"]]
        c = [r["metrics"][name]["value"] for r in res["change"]]
        if name.startswith("vt_") and p != c:
            print(f"FAIL: {name} differs between the sides: parent {p} change {c}")
            status = 1
            continue
        ratios = [b / a for a, b in zip(p, c) if a]
        ratio = statistics.median(ratios) if ratios else float("nan")
        wins = sum((b > a) if higher else (b < a) for a, b in zip(p, c))
        worse = ratio < 1 - bound if higher else ratio > 1 + bound
        flag = "  FLAG: worse than the bound" if worse else ""
        print(f"{name:<12} {spread(p):>34} {spread(c):>34} {ratio:>7.3f} "
              f"{wins:>3}/{len(ratios):<2}  {bound}{flag}")
        if worse:
            status = max(status, 2)
sys.exit(status)
EOF
