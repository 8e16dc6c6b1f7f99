#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload fleet --seed 1 --seconds 20 --trace 0
#
# It builds perfbench (this directory's Go module), the dwcsd daemon, and a
# CPU-profiling build of dwcsd from the checkout it runs in, then hands every
# argument to perfbench. Builds, the Go build cache, and temporary run files
# all live under .bench_build/ in the repository root, so a run writes
# nothing outside its checkout. The first run in a fresh checkout also
# compiles the standard library (about 20 s on a 2-core machine).
set -euo pipefail

root=$(pwd)
bench="$root/perfbench"
out="$root/.bench_build"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -d "$root/cmd/dwcsd" ]; then
	echo "perfbench: run from the repository root; no Go module with internal/ and cmd/dwcsd here" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	echo "perfbench: the go toolchain is not on PATH" >&2
	exit 2
fi

mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOENV=off GOWORK=off GOFLAGS= CGO_ENABLED=0

# The profiling build adds perfbench/hook/profile.go to cmd/dwcsd through an
# overlay; the daemon's own sources are compiled unchanged.
cat >"$out/overlay.json" <<JSON
{"Replace": {"$root/cmd/dwcsd/zz_perfbench_profile.go": "$bench/hook/profile.go"}}
JSON

cd "$bench"
go build -o "$out/bin/perfbench" . >&2
go build -o "$out/bin/dwcsd" repro/cmd/dwcsd >&2
go build -tags perfbenchhook -overlay "$out/overlay.json" -o "$out/bin/dwcsd-profiled" repro/cmd/dwcsd >&2
cd "$root"

exec "$out/bin/perfbench" -dwcsd "$out/bin/dwcsd" -dwcsd-profiled "$out/bin/dwcsd-profiled" \
	-work "$out/work" "$@"
