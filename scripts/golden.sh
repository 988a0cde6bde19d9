#!/usr/bin/env bash
# Golden-output regression for tnpu-bench and tnpu-plot.
#
# The evaluation pipeline promises byte-identical output regardless of
# worker scheduling, so the full text artifacts are directly diffable.
# Fixtures live in testdata/golden/, one file per pinned invocation; the
# checked-in report (docs/report.md, from tnpu-bench -md) and charts
# (docs/figures/, from tnpu-plot) are pinned the same way.
#
# Usage:
#   scripts/golden.sh check      # diff current output against fixtures (CI)
#   scripts/golden.sh generate   # regenerate fixtures after an intended change
#
# Set GOLDEN_OUTDIR to keep the generated outputs in that directory
# (CI uploads them as an artifact when the diff fails); by default they
# land in a temp directory removed at exit.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-check}"
case "$mode" in
  check | generate) ;;
  *)
    echo "usage: scripts/golden.sh [check|generate]" >&2
    exit 2
    ;;
esac
golden=testdata/golden

# name|tnpu-bench arguments
cases=(
  "bench-default.txt|"
  "bench-df-agz-ncf.txt|-models df,agz,ncf"
  "attack-df-agz-ncf.txt|-attack"
  "hwcost.txt|-only hwcost"
)

if [ -n "${GOLDEN_OUTDIR:-}" ]; then
  mkdir -p "$GOLDEN_OUTDIR"
  outdir="$GOLDEN_OUTDIR"
  bindir="$(mktemp -d)"
  trap 'rm -rf "$bindir"' EXIT
else
  outdir="$(mktemp -d)"
  bindir="$outdir"
  trap 'rm -rf "$outdir"' EXIT
fi
bin="$bindir/tnpu-bench"
plot="$bindir/tnpu-plot"
go build -o "$bin" ./cmd/tnpu-bench
go build -o "$plot" ./cmd/tnpu-plot

status=0
# compare <fixture> <fresh output> <what>: a file or a directory.
compare() {
  local fixture="$1" out="$2" what="$3"
  if [ "$mode" = generate ]; then
    mkdir -p "$(dirname "$fixture")"
    rm -rf "$fixture"
    cp -r "$out" "$fixture"
    echo "wrote $fixture"
  elif ! diff -ru "$fixture" "$out"; then
    echo "golden mismatch: $fixture ($what)" >&2
    echo "if the change is intended, run: scripts/golden.sh generate" >&2
    status=1
  else
    echo "ok: $fixture"
  fi
}

for c in "${cases[@]}"; do
  name="${c%%|*}"
  args="${c#*|}"
  # shellcheck disable=SC2086  # word splitting of $args is intended
  "$bin" $args >"$outdir/$name"
  compare "$golden/$name" "$outdir/$name" "tnpu-bench $args"
done

"$bin" -md "$outdir/report.md" >/dev/null
compare docs/report.md "$outdir/report.md" "tnpu-bench -md"

"$plot" -out "$outdir/figures" >/dev/null
compare docs/figures "$outdir/figures" "tnpu-plot"
exit $status
