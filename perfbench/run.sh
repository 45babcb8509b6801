#!/usr/bin/env bash
# Builds the benchmark and the mpicollperfd daemon from the checkout it
# is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload calib_bcast --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache and
# the workloads' scratch files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/mpicollperfd" mpicollperf/cmd/mpicollperfd) >&2

exec "$out/perfbench" -daemon "$out/mpicollperfd" -workdir "$out" -root "$root" "$@"
