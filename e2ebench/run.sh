#!/usr/bin/env bash
# Builds the programs under test (atomd, atomize, gensim) and the
# benchmark from this checkout, then runs the benchmark. Run it from
# the repository root:
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 6 --trace 0
#
# Everything it builds, generates or caches goes under $CARGO_TARGET_DIR
# (default .bench_build), Go's build cache included.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root"
go build -o "$out/bin/" ./cmd/atomd ./cmd/atomize ./cmd/gensim >&2
(cd "$here" && go build -o "$out/bin/e2ebench" .) >&2
exec "$out/bin/e2ebench" --bin "$out/bin" --cache "$out/worlds" --out "$out/traces" "$@"
