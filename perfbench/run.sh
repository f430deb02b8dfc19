#!/bin/sh
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the checkout root:
#
#   sh perfbench/run.sh --workload engine-sparsify --seed 1 --seconds 20 --trace 0
#
# Every build product (Go build cache, binary, result files) stays under
# .bench_build/ in the checkout.
set -eu
root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench/run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off
# VCS stamping is off: the checkout may not be a git repository. The
# revision, when there is one, is passed in explicitly.
commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
go -C perfbench build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
