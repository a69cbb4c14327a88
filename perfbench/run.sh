#!/usr/bin/env bash
# Builds the benchmark and the ardad daemon from this checkout's sources,
# then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload augment-rifs --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache and the run's scratch files all stay in
# .bench_build/ under the root. Without the repository's sources next to
# perfbench/ the build fails and nothing is printed on stdout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
# Keep the Go toolchain's cache, temporary files and telemetry counters
# inside the checkout as well.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off GOTELEMETRY=off

(
	cd perfbench
	go build -o "$build/perfbench" .
	go build -o "$build/ardad" github.com/arda-ml/arda/cmd/ardad
) >&2

exec "$build/perfbench" -ardad "$build/ardad" -work "$build/work" "$@"
