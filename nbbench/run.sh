#!/usr/bin/env bash
# Builds the nbandit binary and the benchmark into .bench_build (with a
# Go build cache kept there too, so nothing is written outside the
# checkout), then runs the benchmark with the given arguments, e.g.
#
#   bash nbbench/run.sh --workload sweep-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/nbandit" ]]; then
	echo "nbbench: run from the repository root; no netbandit sources in $root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
# The go command keeps its settings and telemetry under the user config dir.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$build/bin/nbandit" ./cmd/nbandit
(cd nbbench && go build -o "$build/bin/nbbench" .)
exec "$build/bin/nbbench" --nbandit "$build/bin/nbandit" "$@"
