#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it from the
# checkout's root:
#
#   bash perfbench/run.sh --workload pretrain-500x2 --seed 1 --seconds 20 --trace 0
#
# Every build product (binary, Go build cache, temporary files) stays in
# .bench_build/ at the root. A failed build exits non-zero before anything
# is measured.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS="" GOWORK=off GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
