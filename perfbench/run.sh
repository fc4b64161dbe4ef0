#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fabric-forward --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and anything the Go toolchain would write
# under the home directory stay in .bench_build; results and spans go to
# .bench_out.
set -euo pipefail
if [[ ! -f go.mod || ! -f perfbench/go.mod ]] || ! grep -q '^module speedlight$' go.mod; then
	echo "perfbench: run from the root of a speedlight checkout" >&2
	exit 2
fi
out=$PWD/.bench_build
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
