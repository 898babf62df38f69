#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's source and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload fig1_pdes --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (Go build
# cache, module cache, toolchain telemetry, the binary) stays under
# .bench_build/ in the current directory. The last line of standard output is
# the result object; build logs go to standard error. Without the approxsim
# module beside perfbench/ the build fails and the script exits nonzero.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache
export GOPATH=$out/gopath
export GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local
export GOFLAGS=
export GOWORK=off
export GOPROXY=off
export GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
