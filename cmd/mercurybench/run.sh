#!/usr/bin/env bash
# Builds mercurybench from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash cmd/mercurybench/run.sh -workload kernel-mix -seed 1 -seconds 10
#
# The binary, the Go build cache and the go command's own state stay in
# the checkout, under $CARGO_TARGET_DIR when it is set and .bench_build
# otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
if [ ! -e "$out/config/go/telemetry/mode" ]; then
	go telemetry off
fi
(cd "$here" && go build -o "$out/mercurybench" .)
exec "$out/mercurybench" "$@"
