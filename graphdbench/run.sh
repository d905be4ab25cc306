#!/usr/bin/env bash
# Builds graphdbench from this checkout and runs it with the given flags.
# Run from the repository root:
#
#   bash graphdbench/run.sh --workload road-fusion --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the run's graph files and the
# traced run's spans.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps its settings and local telemetry under the user
# config directory; keep that in the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/graphdbench" && go build -buildvcs=false -o "$out/graphdbench" .)

# The commit for the provenance block; git must not look above the checkout.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)

exec "$out/graphdbench" -commit "$commit" -dir "$out" "$@"
