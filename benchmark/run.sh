#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build writes — the binary, Go's build and module
# caches, its temporary files, the go command's own counters (which it
# keeps under the user's config directory) — goes under .bench_build/ in
# the checkout, so a run reads and writes nothing outside it. The first run
# in a checkout compiles the standard library into that cache; later runs
# only relink.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"

(cd "$here" && go build -o "$out/softstate-bench" .)
cd "$root"
exec "$out/softstate-bench" "$@"
