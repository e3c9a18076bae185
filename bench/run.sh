#!/usr/bin/env bash
# Builds depbench and runs it from the repository root with the given
# arguments. The Go build cache, module cache, Go's config and telemetry
# files, and every output stay in .bench_build.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/bin/depbench" .)
cd "$root"
exec "$out/bin/depbench" "$@"
