#!/usr/bin/env bash
# Check that this checkout's nufd writes the same outputs as another commit's.
#
# Usage: scripts/compare_outputs.sh <rev>
#
# Extracts the src/ tree of <rev> into a temporary directory, runs this
# checkout's scripts/cli_outputs.sh against it and against this checkout's
# src/ (so both sides run the same commands), and compares the two output
# trees with `diff -r`.  Exits 0 when every output is byte-identical and 1
# when any differs; the temporary directory is removed either way.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

git -C "$root" archive "$1" src | tar -x -C "$tmp"
"$root/scripts/cli_outputs.sh" "$tmp/src" "$tmp/out-rev"
"$root/scripts/cli_outputs.sh" "$root/src" "$tmp/out-work"
if diff -r "$tmp/out-rev" "$tmp/out-work"; then
    echo "identical: $(ls "$tmp/out-work" | wc -l) commands give the same outputs at $1 and in this checkout"
else
    echo "outputs differ between $1 and this checkout" >&2
    exit 1
fi
