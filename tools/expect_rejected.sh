#!/bin/sh
# expect_rejected.sh TOOL ARGS...
#
# Runs TOOL once per ARGS word (itself split on spaces into flags) and
# exits 1 unless every run exits non-zero with the tool's usage text on
# stderr: the contract for a flag value a tool cannot parse. Prints one
# "ARGS: exit=N" line per run. The tier-1 *_rejects_bad_values ctest
# entries in tools/CMakeLists.txt drive it.
tool=$1
shift
status=0
for args in "$@"; do
  # $args is unquoted on purpose: one string holds a run's flags.
  err=$("$tool" $args 2>&1 >/dev/null)
  code=$?
  echo "$args: exit=$code"
  case $err in
    *usage:*) [ "$code" -ne 0 ] || status=1 ;;
    *) status=1 ;;
  esac
done
exit $status
