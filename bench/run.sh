#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload values-bulk --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporaries, the go
# command's configuration and telemetry, the binary) stays under
# .bench_build/ at the repository root. Offline by design: the module has
# no dependencies outside this repository.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GO111MODULE=on

go -C "$root/bench" build -o "$out/ddbenchmark" .
cd "$root"
exec "$out/ddbenchmark" "$@"
