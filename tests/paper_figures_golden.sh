#!/bin/sh
# Figures golden: paper_figures at a small fixed sizing must write
# tests/data/golden_paper_figures.json byte for byte, so every table
# of Figures 4, 14, 15 and 17 and Table 5 is under test. With
# DMT_UPDATE_GOLDEN=1 (any value but empty or 0) the run rewrites the
# golden instead. Writes only into its own mktemp -d directory.
#
# usage: paper_figures_golden.sh PAPER_FIGURES GOLDEN
set -eu

figures=$1
golden=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

# The golden is taken on the scaled machine.
unset DMT_BENCH_FULL_MACHINE
DMT_BENCH_SCALE=256 DMT_BENCH_ACCESSES=5000 DMT_BENCH_WARMUP=1000 \
    "$figures" --json="$dir/paper_figures.json" > /dev/null

case ${DMT_UPDATE_GOLDEN:-0} in
  ""|0) ;;
  *)
    cp "$dir/paper_figures.json" "$golden"
    echo "paper figures golden: rewrote $golden"
    exit 0
    ;;
esac
if ! cmp "$dir/paper_figures.json" "$golden"; then
    echo "paper figures golden: a table differs from $golden" \
         "(DMT_UPDATE_GOLDEN=1 rewrites it if intended)" >&2
    exit 1
fi
echo "paper figures golden: every table identical"
