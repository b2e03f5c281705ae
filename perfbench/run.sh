#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of the
# repository:
#
#   bash perfbench/run.sh --workload batch-miss --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, the binary) stays under
# .bench_build/ in the current directory, and the Go toolchain is kept
# offline.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

commit=unknown
if [ -d .git ]; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi

go build -C "$here" -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --commit "$commit" "$@"
