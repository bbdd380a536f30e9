#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload dispatch --seed 1 --seconds 60 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the Go
# command's own config and telemetry, the binary) stays under
# .bench_build at the repository root.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f go.mod ]]; then
	echo "perfbench: no go.mod at $root; run from a full checkout" >&2
	exit 2
fi
# Fall back to the Go distribution's default install location when go
# is not on PATH.
command -v go >/dev/null || PATH="/usr/local/go/bin:$PATH"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
# Write the build out now rather than while the run measures.
sync -f "$out"
exec "$out/perfbench" "$@"
