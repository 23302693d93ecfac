#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root; arguments pass through:
#
#   bash perfbench/run.sh --workload optimize --seed 1 --seconds 30 --trace 0
#
# Every build and cache file stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build), and nothing is fetched:
# the benchmark module depends only on the repository's own module.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
