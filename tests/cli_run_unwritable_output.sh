#!/bin/sh
# `run` must exit 1, not 0 or 2, when an output file it was asked for
# cannot be written. The output's parent is a regular file, so the
# open fails even for root.
#
#   sh cli_run_unwritable_output.sh <e3_cli> <csv|metrics|trace> <regular file>
cli="$1"
flag="$2"
parent="$3"
if [ ! -f "$parent" ]; then
    echo "'$parent' is not a regular file"
    exit 1
fi
"$cli" run --env cartpole --backend cpu --pop 20 --generations 2 \
    --seed 3 --quiet "--$flag" "$parent/out" > /dev/null 2>&1
code=$?
if [ "$code" -ne 1 ]; then
    echo "run --$flag into '$parent/out' exited $code, want 1"
    exit 1
fi
