#!/usr/bin/env bash
# Builds the perf harness from source into .bench_build/ (inside the
# checkout, so nothing is read or written outside it) and runs it with
# the arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload city_ref --seed 1 --seconds 10 --trace 0
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

# Keep everything the toolchain writes — caches, temporary files, its own
# usage counters — inside the checkout, and never reach for the network:
# the module has no dependencies beyond the repository itself. Without
# cgo the build needs no C compiler either.
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-modcacherw
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

# The commit goes into the result files' host block. Never look for a
# repository above the checkout, and never let VCS stamping fail the build.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)

(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/caraoke-perf" .)
exec "$build/caraoke-perf" "$@"
