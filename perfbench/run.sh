#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload tpch-olap --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail

root="$PWD"
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/home"
# The go command keeps its caches, temporary files and telemetry under
# .bench_build, builds offline with the installed toolchain, and ignores
# any go.work above the checkout.
(
	export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
	export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
	cd "$root/perfbench" && go build -o "$build/perfbench" .
)
exec "$build/perfbench" -workdir "$build" "$@"
