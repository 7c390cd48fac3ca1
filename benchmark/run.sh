#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Invoked from the root of a
# checkout as `bash benchmark/run.sh --workload <name> --seed <n> --seconds
# <s> --trace <0|1>`; see README.md for the other flags.
#
# Everything the build writes stays inside the checkout: the Go build
# cache, temporary files and the binary live under benchmark/.build.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

# The commit goes into every run file's hardware stamp. A checkout that
# is not a git repository (the pipeline's) is stamped "unknown".
commit="$(git -C "$here" rev-parse HEAD 2>/dev/null || echo unknown)"

# The build cache makes this a no-op when nothing changed; a checkout
# without the repository's sources fails here with a non-zero status.
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" .)

exec "$build/benchmark" "$@"
