#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source into
# .bench_build/ at the root of the checkout (nothing is written outside the
# checkout: the go build cache, GOPATH and temp dirs all live there) and
# runs it. The harness builds the daemons it drives the same way.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/bin/css-e2e-bench" .)
exec "$build/bin/css-e2e-bench" -root "$root" "$@"
