#!/bin/sh
# Runs one binary on each garbage command line and checks that every
# run exits with the usage code and names the problem on stderr.
#
# Usage: cli_garbage.sh EXIT TEXT BINARY ARGS...
#   Each ARGS word is one command line, split on spaces; every run
#   must exit with EXIT and print TEXT somewhere on stderr.
code=$1 text=$2 bin=$3
shift 3
status=0
for args in "$@"; do
    # shellcheck disable=SC2086  # ARGS is split on purpose.
    err=$("$bin" $args 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne "$code" ] ||
        ! printf '%s\n' "$err" | grep -qF -- "$text"; then
        echo "$bin $args: exit $rc, want $code and \"$text\" in:" >&2
        printf '%s\n' "$err" >&2
        status=1
    fi
done
exit $status
