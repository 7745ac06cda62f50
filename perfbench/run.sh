#!/usr/bin/env bash
# Builds the benchmark and the shiftserver it serves through, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload lookup-10m --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/
# in the working directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/shiftserver" ]]; then
	echo "perfbench: run from the repository root (go.mod and cmd/shiftserver not found)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/home" "$out/tmp" "$out/gocache"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOPATH="$out/home/go" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/shiftserver" ./cmd/shiftserver >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -server-bin "$out/bin/shiftserver" -work "$out" "$@"
