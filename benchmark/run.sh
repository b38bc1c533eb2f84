#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout, passing every argument through:
#
#   bash benchmark/run.sh --workload maxbatch --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build in the checkout; the build never touches the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd benchmark && go build -o "$out/capbench" .)
exec "$out/capbench" "$@"
