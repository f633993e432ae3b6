#!/usr/bin/env bash
# Check that this checkout's nufd writes the same outputs as another commit's.
#
# Usage: scripts/compare_outputs.sh <rev>
#
# Extracts the src/ tree of <rev> into a temporary directory and replays the
# commands of scripts/cli_commands.txt against it and against this checkout's
# src/, each tree in its own interpreter through this checkout's
# record_cli_outputs.replay (so both sides run the same commands).  Each
# replay keeps every command's files and stdout in <out>/NN-name/ and its
# record lines, errors included, in <out>/record; the two output trees are
# compared with `diff -r`.  Exits 0 when every output is byte-identical and 1
# when any differs; the temporary directory is removed either way.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 <rev>" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

replay() (  # <src-dir> <out-dir>; run from $tmp, so no nufd in the caller's directory shadows <src-dir>
    cd "$tmp" && PYTHONPATH="$1:$root/scripts" python3 -c '
import sys
from pathlib import Path
from record_cli_outputs import replay
out = Path(sys.argv[1])
lines = replay(out)
(out / "record").write_text("".join(line + "\n" for line in lines))' "$2"
)

git -C "$root" archive "$1" src | tar -x -C "$tmp"
replay "$tmp/src" "$tmp/out-rev"
replay "$root/src" "$tmp/out-work"
if diff -r "$tmp/out-rev" "$tmp/out-work"; then
    echo "identical: $(ls -d "$tmp/out-work"/*/ | wc -l) commands give the same outputs at $1 and in this checkout"
else
    echo "outputs differ between $1 and this checkout" >&2
    exit 1
fi
