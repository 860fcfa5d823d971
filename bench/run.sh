#!/usr/bin/env bash
# The benchmark's one command: bash bench/run.sh --workload <name> --seed <n>
# --seconds <s> --trace <0|1>, from the repository root. It only pins the Go
# toolchain's caches inside the checkout, so a run reads and writes nothing
# outside it, and hands over to the Go program (`go run ./bench` does the
# same with the caches where the user keeps them).
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
exec go run ./bench "$@"
