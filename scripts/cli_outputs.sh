#!/usr/bin/env bash
# Run a fixed set of nufd commands against one source tree and keep every output.
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
    PYTHONPATH="$src" python3 -m nufd.cli --out "$dir" "$@" >"$dir/stdout" 2>"$dir/stderr" || code=$?
    echo "$code" >"$dir/exit_code"
}

study="sinusoid:amplitude=-1,frequency=4pi"
paper_mesh="geometric:0,0.1,50/59,200"

for name in ex5_1 ex5_2 ex5_3 ex5_4 ex5_5 fig5_1; do
    run "preset-$name" preset "$name"
    run "preset-$name-beta0.3" --beta 0.3 preset "$name"
    run "preset-$name-json" --format json preset "$name"
done

run mesh-uniform mesh "uniform:0,1,23"
run mesh-equiarc-insert mesh "equiarc:sinusoid:frequency=2pi,0,1,12+insert:0.7"

run diff-ffwd diff --mesh "uniform:0,1,12+insert:0.5" --function "$study" --op "d+ d+"
run diff-central-order2 diff --mesh "$paper_mesh" --function "poly:c0=1,c1=2,c2=3" --op c --order 2
run diff-d2 --format json diff --mesh "geometric:0,0.05,1.1,30" --function "$study" --op d2

run oscillator-paper oscillator --mesh "$paper_mesh"
run oscillator-d2 oscillator --mesh "uniform:0,1,11" --operator d2
run oscillator-data --format json oscillator --kappa 9 --mesh "uniform:0,2,41+insert:0.3" \
    --initial-value 0.5 --initial-slope 2
run oscillator-zero oscillator --mesh "uniform:0,1,11" --initial-value 0 --initial-slope 0
run oscillator-diverging oscillator --kappa 1e6 --mesh "uniform:0,10,101"

run consistency-alpha consistency --spec "d+ d+" --alpha 1.3
run consistency-mesh consistency --spec "d- d+" --mesh "uniform:0,1,23+insert:0.3" --k 5
run consistency-paper --format json consistency --spec "c c" --mesh "$paper_mesh" --k 100
run order order --op c --function "$study" \
    --mesh "uniform:0,1,23" --mesh "uniform:0,1,45" --mesh "uniform:0,1,89"

run fail-mesh-spec mesh "uniform:0,1"
run fail-alpha-overflow consistency --spec "d+ d+" --alpha 1e200
run oscillator-unstable oscillator --kappa 1e6 --mesh "uniform:0,1,11"
run oscillator-unstable-geometric oscillator --kappa 1e6 --mesh "geometric:0,0.1,1.01,10"
run oscillator-forward-backward oscillator --mesh "$paper_mesh" --operator "d+ d-"
run fail-oscillator-unmarchable oscillator --mesh "uniform:0,1,11" --operator "c c"
run consistency-d2-paper consistency --spec d2 --mesh "$paper_mesh" --k 100
run diff-forward-central diff --mesh "$paper_mesh" --function "$study" --op "d+ c"
run diff-backward-forward diff --mesh "$paper_mesh" --function "$study" --op "d- d+"
run diff-d2-paper diff --mesh "$paper_mesh" --function "$study" --op d2
run diff-forward-paper diff --mesh "$paper_mesh" --function "$study" --op d+
run diff-backward-paper diff --mesh "$paper_mesh" --function "$study" --op d-
run diff-central-pair-blocks diff --mesh "uniform:0,1,4200+insert:0.3" --function "$study" --op "c c"
run diff-forward-blocks diff --mesh "uniform:0,1,4200+insert:0.3" --function "$study" --op d+
run fail-function-sinusoid-parameter diff --mesh "uniform:0,1,11" --function "sinusoid:wavelength=2" --op c
run fail-function-poly-power diff --mesh "uniform:0,1,11" --function "poly:c7=1" --op c
run fail-function-oscillator-kappa diff --mesh "uniform:0,1,11" --function oscillator --op c
run oscillator-d2-blocks oscillator --mesh "uniform:0,1,20000" --operator d2
run diff-backward-forward-geometric-blocks diff --mesh "geometric:0,1e-4,1.0001,19998" \
    --function "sinusoid:frequency=4pi" --op "d- d+"
run fail-order-exact order --op c --function "poly:c1=1" \
    --mesh "uniform:0,1,11" --mesh "uniform:0,1,21" --mesh "uniform:0,1,41"
run fail-consistency-subnormal-steps consistency --spec "d+ d+" --mesh "uniform:0,1e-310,9" --k 4
run fail-mesh-tied-points mesh "geometric:0,1e-300,1e-10,5"
run fail-consistency-alpha-and-mesh consistency --spec "d+ d+" --alpha 2 --mesh "uniform:0,1,9" --k 4
run fail-mesh-geometric-overflow mesh "geometric:0,1,10,400"
run fail-mesh-uniform-overflow mesh "uniform:-1e308,1e308,5"
run fail-diff-sinusoid-overflow diff --mesh "uniform:1e300,2e300,5" --function "sinusoid:frequency=1e10" --op c
run fail-oscillator-data-overflow oscillator --mesh "uniform:0,1,5" --initial-value 1e308 --initial-slope 1e308
run fail-consistency-mesh-square-overflow consistency --spec "d+ d+" --mesh "uniform:0,1e200,9" --k 3
run fail-consistency-alpha-cube-overflow consistency --spec "d+ d+" --alpha 1e60
run fail-consistency-alpha-collapsed-points consistency --spec "d+ d+" --alpha 1e-60
run fail-consistency-d2-alpha-nan consistency --spec d2 --alpha 1e-103
run oscillator-stable-overflowing-bounds oscillator --kappa 1e124 --mesh "uniform:0,1e-61,11"
run fail-function-poly-coefficient-overflow diff --mesh "uniform:0,1,11" --function "poly:c1=1e400" --op d+
run fail-function-sinusoid-phase-overflow diff --mesh "uniform:0,1,11" \
    --function "sinusoid:amplitude=1,frequency=1,phase=1e400" --op d+
run diff-poly-derivative-tables-overflow diff --mesh "uniform:0,1,11" --function "poly:c5=1e307" --op d+
run fail-diff-poly-derivative-order-overflow diff --mesh "uniform:0,1,11" --function "poly:c5=1e307" --op "d+ d+"
run mesh-subnormal-steps-blocks mesh "uniform:0,1e-300,20001"
run mesh-exponent-switch-blocks mesh "uniform:1e15,1e18,20001"
run diff-poly-exact-zeros-blocks diff --mesh "uniform:0,1,20001" --function "poly:c2=1" --op "c c"
run diff-negative-fixed-blocks diff --mesh "uniform:-1,1,20001" --function "poly:c1=1" --op d+
