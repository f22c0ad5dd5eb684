#!/bin/sh
# A snapshot whose species names a genome it does not store must not
# abort --resume: the loader rejects it, warns, and falls back to the
# next-newest snapshot, so the resumed run still reproduces the
# uninterrupted run's trace byte for byte.
#
#   sh cli_resume_corrupt_members.sh <e3_cli> <work dir>
cli="$1"
dir="$2"
run="run --env lunar_lander --backend cpu --pop 24 --episodes 1 --seed 3
     --quiet"
rm -rf "$dir"
mkdir -p "$dir" || exit 1

# Exit 2 means "budget exhausted, not solved": a normal finish.
finished() { [ "$1" -eq 0 ] || [ "$1" -eq 2 ]; }

# shellcheck disable=SC2086
"$cli" $run --generations 9 --csv "$dir/straight.csv"
finished $? || exit 1
# shellcheck disable=SC2086
"$cli" $run --generations 7 --checkpoint-dir "$dir/ck" \
    --checkpoint-every 2
finished $? || exit 1

newest="$dir/ck/$(tail -n 1 "$dir/ck/MANIFEST" | cut -d ' ' -f 3)"
test -f "$newest" || { echo "no snapshot listed in MANIFEST"; exit 1; }
awk '!done && $1 == "members" && $2 > 0 { $3 = "999999"; done = 1 }
     { print }' "$newest" > "$newest.edit" && mv "$newest.edit" "$newest"
grep -q '^members [1-9][0-9]* 999999' "$newest" ||
    { echo "edit did not land in $newest"; exit 1; }

# shellcheck disable=SC2086
"$cli" $run --generations 9 --checkpoint-dir "$dir/ck" \
    --checkpoint-every 2 --resume --csv "$dir/resumed.csv" \
    2> "$dir/resume.err"
code=$?
cat "$dir/resume.err"
finished "$code" || { echo "resume exited $code"; exit 1; }
grep -q "skipping checkpoint.*member 999999 names no stored genome" \
    "$dir/resume.err" || { echo "no fallback warning"; exit 1; }
cmp "$dir/straight.csv" "$dir/resumed.csv"
