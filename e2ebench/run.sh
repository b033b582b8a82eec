#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the repository root. Build outputs, the Go build cache
# and run reports all go under .bench_build/ in the repository root.
#
#   bash e2ebench/run.sh --workload mc-faulty --seed 1 --seconds 10 --trace 0
set -euo pipefail
bench_dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$bench_dir")
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
# Keep the toolchain's caches, temporary files and settings inside the
# checkout, offline.
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/home/go" \
	GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd "$bench_dir" && go build -o "$out/bin/e2ebench" .)
cd "$root"
exec "$out/bin/e2ebench" "$@"
