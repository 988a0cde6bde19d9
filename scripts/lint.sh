#!/usr/bin/env bash
# One-shot local lint runner: the same checks the CI lint job gates
# merges on, in the same order. Runs gofmt, go vet, and the repo's own
# invariant suite (cmd/tnpu-vet, DESIGN.md §7c) unconditionally;
# staticcheck and govulncheck run only if already installed, since this
# tree builds offline with no module dependencies.
#
# Usage:
#   scripts/lint.sh                     # everything
#   scripts/lint.sh --only <analyzer>   # one tnpu-vet analyzer (e.g.
#                                       # --only detmap), skipping
#                                       # the other linters — the fast
#                                       # loop while fixing one class of
#                                       # finding
set -euo pipefail
cd "$(dirname "$0")/.."

only=""
if [ "${1:-}" = "--only" ]; then
  if [ $# -lt 2 ]; then
    echo "usage: scripts/lint.sh [--only <analyzer>]" >&2
    exit 1
  fi
  only="$2"
fi

status=0

bin="$(mktemp -d)/tnpu-vet"
trap 'rm -rf "$(dirname "$bin")"' EXIT
go build -o "$bin" ./cmd/tnpu-vet

if [ -n "$only" ]; then
  echo "== tnpu-vet -only $only"
  "$bin" -only "$only" ./... || status=1
  if [ "$status" -ne 0 ]; then
    echo "lint: FAIL" >&2
  else
    echo "lint: ok"
  fi
  exit $status
fi

echo "== gofmt"
out="$(gofmt -l .)"
if [ -n "$out" ]; then
  echo "gofmt needed on:" >&2
  echo "$out" >&2
  status=1
fi

echo "== go vet"
go vet ./... || status=1

echo "== tnpu-vet (invariant suite)"
"$bin" ./... || status=1

if command -v staticcheck >/dev/null 2>&1; then
  echo "== staticcheck"
  staticcheck ./... || status=1
else
  echo "== staticcheck (not installed; skipped — CI runs the pinned version)"
fi

if command -v govulncheck >/dev/null 2>&1; then
  echo "== govulncheck"
  govulncheck ./... || status=1
else
  echo "== govulncheck (not installed; skipped — CI runs the pinned version)"
fi

if [ "$status" -ne 0 ]; then
  echo "lint: FAIL" >&2
else
  echo "lint: ok"
fi
exit $status
