#!/bin/sh
# Feeds one numeric flag of a command-line tool a table of malformed
# values and requires each to be refused as a usage error: exit code
# 64 and the usage text on stderr, within one second.
#
#   sh cli_bad_numeric_flag.sh [--real] <tool> <flag> [<command> [<arg>...]]
#
# <command> and its args form the rest of the command line, e.g.
# `run --env cartpole --backend cpu`. With --real the flag takes a
# decimal number, so 1.5 is valid and the non-finite spellings take
# its place in the table.
values='abc|-5|-1|99999999999999999999999|7x|1.5|0x10| 3'
if [ "$1" = "--real" ]; then
    values='abc|-5|-1|1e999|7x|nan|inf|-inf|0x10| 3'
    shift
fi
cli="$1"
flag="$2"
shift 2
err="${TMPDIR:-/tmp}/e3_cli_bad_numeric_$$.txt"
status=0
IFS='|'
for value in $values; do
    unset IFS
    timeout 1 "$cli" "$@" "--$flag" "$value" > /dev/null 2> "$err"
    code=$?
    if [ "$code" -ne 64 ]; then
        echo "$cli --$flag '$value': exit $code, want 64"
        status=1
    elif ! grep -q '^usage:' "$err"; then
        echo "$cli --$flag '$value': no usage text on stderr"
        status=1
    fi
done
rm -f "$err"
exit $status
