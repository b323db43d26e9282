#!/usr/bin/env bash
# Builds the benchmark and the shipped imtransd from the checkout it is run
# in, then runs the benchmark with the given arguments. Run it from the root
# of the checkout:
#
#   bash perfbench/run.sh --workload design-grid --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binaries, the daemon's temporary stores
# and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(
	cd "$root/perfbench"
	go build -o "$out/bin/perfbench" .
	go build -o "$out/bin/imtransd" imtrans/cmd/imtransd
) >&2

exec "$out/bin/perfbench" -imtransd "$out/bin/imtransd" -out "$out" "$@"
