#!/bin/sh
# Cross-driver oracle: dmt-campaign and dmtsim build every cell
# through the same driver::Cell, so one cell at one seed must write
# the same .dmtevents bytes from both. Runs all 30 valid GUPS cells,
# 4 KB and THP, in dmt-campaign, then each of them in dmtsim (with
# interval audit sweeps, which must not change a byte), and cmps
# every pair. Writes only into its own mktemp -d directory.
#
# usage: cross_driver_oracle.sh DMT_CAMPAIGN DMTSIM
set -eu

campaign=$1
dmtsim=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

grid="--workloads GUPS --thp"
sizes="--scale 256 --accesses 20000 --warmup 5000"
# shellcheck disable=SC2086
"$campaign" $grid $sizes --threads 2 --quiet --out "$dir/campaign.json" \
    --events-dir "$dir/campaign"
# shellcheck disable=SC2086
"$campaign" $grid $sizes --list > "$dir/cells"

pairs=0
while read -r env workload design mode seed; do
    case $seed in
      seed=*) ;;
      *) continue ;;  # the closing "N cells" line
    esac
    thp=""
    if [ "$mode" = thp ]; then
        thp="--thp"
    fi
    # shellcheck disable=SC2086
    "$dmtsim" --workload "$workload" --design "$design" --env "$env" \
        $thp $sizes --seed "${seed#seed=}" --audit=5000 \
        --events "$dir/dmtsim.dmtevents" > /dev/null
    file="${env}_${workload}_${design}_${mode}.dmtevents"
    if ! cmp "$dir/campaign/$file" "$dir/dmtsim.dmtevents"; then
        echo "cross-driver oracle: $file differs between dmt-campaign" \
             "and dmtsim" >&2
        exit 1
    fi
    pairs=$((pairs + 1))
done < "$dir/cells"

expected=$(tail -n 1 "$dir/cells" | cut -d' ' -f1)
if [ "$pairs" -ne "$expected" ] || [ "$pairs" -eq 0 ]; then
    echo "cross-driver oracle: compared $pairs of $expected cells" >&2
    exit 1
fi
echo "cross-driver oracle: $pairs cells identical"
