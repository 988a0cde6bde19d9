#!/usr/bin/env bash
# Same-host A/B runs of the cold benchmark: alternates bench/run.sh
# between a git ref and the working tree on one workload, then prints,
# for each end-to-end metric in BENCHMARK.json, both medians, the pairs
# the working tree won and the ref's interquartile range.
#
# Usage, from anywhere inside the repository:
#
#   scripts/ab.sh <ref> <workload> <pairs> [seed]    # seed defaults to 1
#   scripts/ab.sh HEAD~1 regen_cold 10
#
# The ref is exported with `git archive` into a temporary directory, which
# is removed on exit, and built there by its own bench/run.sh; the working
# tree side runs the checkout as it stands, uncommitted edits included.
# Every pair runs both sides back to back with `--seconds 15 --trace 0`,
# and the side that goes first flips each pair so that host drift favours
# neither. Each run's last JSON line on stdout is its result; a run that
# is not correct or has failed operations stops the comparison. Needs jq.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: scripts/ab.sh <ref> <workload> <pairs> [seed]" >&2
  exit 2
fi
ref=$1 workload=$2 pairs=$3 seed=${4:-1}
root="$(git rev-parse --show-toplevel)"
cd "$root"
rev="$(git rev-parse --short "$ref^{commit}")"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$rev" | tar -x -C "$tmp/ref"

# run <dir> <side> <pair>: one benchmark run, result kept as <side>-<pair>.json.
run() {
  local out="$tmp/$2-$3.json"
  (cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 0) |
    grep '^{' | tail -n 1 >"$out"
  if ! jq -e '.correct and .failed == 0' "$out" >/dev/null; then
    echo "ab: $2 run $3 is not a correct, failure-free result: $(cat "$out")" >&2
    exit 1
  fi
  echo "ab: pair $3 $2 done" >&2
}

for i in $(seq 1 "$pairs"); do
  if [ $((i % 2)) -eq 1 ]; then
    run "$tmp/ref" ref "$i"
    run "$root" work "$i"
  else
    run "$root" work "$i"
    run "$tmp/ref" ref "$i"
  fi
done

slurp() { for i in $(seq 1 "$pairs"); do cat "$tmp/$1-$i.json"; done | jq -s .; }

echo "$workload, seed $seed, $pairs pairs: ref $rev vs working tree"
jq -n -r --argjson ref "$(slurp ref)" --argjson work "$(slurp work)" \
  --slurpfile bench BENCHMARK.json '
  # Quantile by linear interpolation between the closest ranks.
  def q(p): sort as $s | ($s | length - 1) * p | floor as $lo
    | (($s | length - 1) * p - $lo) as $f
    | $s[$lo] + $f * ($s[[$lo + 1, ($s | length - 1)] | min] - $s[$lo]);
  def r4: . * 10000 | round / 10000;
  "metric\tref_median\twork_median\tchange\twork_won\tref_iqr",
  ($bench[0].end_to_end[] as $m
   | [$ref[].metrics[$m.name].value] as $r
   | [$work[].metrics[$m.name].value] as $w
   | [range(0; $r | length)
      | select(if $m.better == "lower" then $w[.] < $r[.] else $w[.] > $r[.] end)]
     | length as $won
   | ($r | q(0.5)) as $rm
   | ($w | q(0.5)) as $wm
   | [$m.name, ($rm | r4), ($wm | r4),
      (if $rm == 0 then "n/a" else "\((($wm - $rm) / $rm * 1000 | round) / 10)%" end),
      "\($won)/\($r | length)", ($r | q(0.75) - q(0.25) | r4)]
   | map(tostring) | join("\t"))'
