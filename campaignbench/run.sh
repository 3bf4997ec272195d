#!/usr/bin/env bash
# Builds the campaign benchmark from the sources of the checkout it is
# run in, then runs it with the given arguments. Run it from the root
# of the checkout:
#
#   bash campaignbench/run.sh --workload mesh8-sparse --seed 3 --seconds 20 --trace 0
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/campaignbench" && go build -o "$out/campaignbench" .)
exec "$out/campaignbench" "$@"
