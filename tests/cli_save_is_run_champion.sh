#!/bin/sh
# `run --save` must write the champion of the run it just made: the
# saved genome's header fitness, rounded to 6 decimals as the --csv
# trace prints it, equals the largest `best` in that trace.
#
#   sh cli_save_is_run_champion.sh <e3_cli> <output dir>
cli="$1"
dir="$2"
mkdir -p "$dir" || exit 1
"$cli" run --env lunar_lander --backend cpu --pop 40 --generations 4 \
    --seed 3 --save "$dir/l.genome" --csv "$dir/l.csv" > /dev/null
code=$?
if [ "$code" -gt 2 ]; then
    echo "run exited $code"
    exit 1
fi
saved=$(awk 'NR == 1 { printf "%.6f", $3 }' "$dir/l.genome")
best=$(awk -F, 'NR > 1 && (!seen || $2 + 0 > max + 0) { max = $2; seen = 1 }
                END { print max }' "$dir/l.csv")
if [ -z "$saved" ] || [ "$saved" != "$best" ]; then
    echo "saved champion has fitness '$saved', the run's best is '$best'"
    exit 1
fi
