#!/usr/bin/env bash
# run.sh — the repository benchmark's entry point. Run from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload svc-small --seed 1 --seconds 20 --trace 0
#
# Builds ximdd, ximdc and the benchmark program from the checkout's source
# into .bench_build/ (the Go build cache lives there too, so nothing is
# written outside the checkout), then runs one workload. The last line of
# standard output is the JSON result. Exits non-zero without a result when
# the checkout does not hold the program's source.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/ximdd ] || [ ! -d cmd/ximdc ] || [ ! -f perfbench/go.mod ]; then
  echo "perfbench: run from the root of a ximd checkout (go.mod, cmd/ximdd, cmd/ximdc not found)" >&2
  exit 2
fi

# Fall back to $GOROOT/bin and Go's default install location when the
# toolchain is not on PATH.
PATH="$PATH${GOROOT:+:$GOROOT/bin}:/usr/local/go/bin"
command -v go >/dev/null 2>&1 || { echo "perfbench: the go toolchain is not on PATH" >&2; exit 2; }

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOPROXY=off GOWORK=off GOTOOLCHAIN=local TMPDIR="$build/gotmp"

go build -o "$build/bin/ximdd" ./cmd/ximdd
go build -o "$build/bin/ximdc" ./cmd/ximdc
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
