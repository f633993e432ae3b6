#!/usr/bin/env bash
# Run the nufd commands of scripts/cli_commands.txt against one source tree
# and keep every output.
#
# Usage: scripts/cli_outputs.sh <src-dir> <out-dir>
#
# <src-dir> is the directory that holds the nufd package (a checkout's src/).
# Each command writes its files into its own <out-dir>/<NN>-<name>/, together
# with its stdout, stderr and exit code, so the outputs of two trees can be
# compared with `diff -r`.  A failing command does not stop the script.
set -euo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 <src-dir> <out-dir>" >&2
    exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
out=$(cd "$2" && pwd)
n=0

run() {
    local dir
    dir=$(printf '%s/%02d-%s' "$out" "$n" "$1")
    shift
    n=$((n + 1))
    mkdir -p "$dir"
    local code=0
    PYTHONPATH="$src" python3 -m nufd.cli --out "$dir" "$@" </dev/null >"$dir/stdout" 2>"$dir/stderr" || code=$?
    echo "$code" >"$dir/exit_code"
}

while IFS= read -r line; do
    case "$line" in '' | '#'*) continue ;; esac
    eval "argv=($line)"
    run "${argv[@]}"
done <"$(dirname "$0")/cli_commands.txt"
