#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source into
# .bench_build/ at the root of the checkout, then runs it from that root.
# Every Go cache and temp directory is pointed inside the checkout, so a run
# reads and writes nothing outside it and needs no network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/vssbench" .) >&2
cd "$root"
exec "$out/vssbench" -workdir "$out/work" "$@"
