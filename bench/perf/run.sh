#!/bin/sh
# Builds the benchmark from source and runs it from the repository root;
# every argument goes to main.exe (see README.md).
cd "$(dirname "$0")/../.." || exit 2
exec dune exec --root . --display quiet ./bench/perf/main.exe -- "$@"
