#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, and the run's scratch state goes there too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gotmp"
export GOCACHE="${out}/gocache" GOTMPDIR="${out}/gotmp" GOPATH="${out}/gopath" GOMODCACHE="${out}/gopath/pkg/mod" \
  GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
cd "${root}"
exec "${out}/perfbench" "$@"
