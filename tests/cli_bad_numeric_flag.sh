#!/bin/sh
# Feeds one numeric e3_cli flag a table of malformed values and
# requires each to be refused as a usage error: exit code 64 and the
# usage text on stderr, within one second.
#
#   sh cli_bad_numeric_flag.sh <e3_cli> <flag> <command> [<arg>...]
#
# <command> and its args form the rest of the command line, e.g.
# `run --env cartpole --backend cpu`.
cli="$1"
flag="$2"
shift 2
err="${TMPDIR:-/tmp}/e3_cli_bad_numeric_$$.txt"
status=0
for value in abc -5 -1 99999999999999999999999 7x 1.5 0x10 ' 3'; do
    timeout 1 "$cli" "$@" "--$flag" "$value" > /dev/null 2> "$err"
    code=$?
    if [ "$code" -ne 64 ]; then
        echo "$1 --$flag '$value': exit $code, want 64"
        status=1
    elif ! grep -q '^usage:' "$err"; then
        echo "$1 --$flag '$value': no usage text on stderr"
        status=1
    fi
done
rm -f "$err"
exit $status
