#!/bin/sh
# CLI error-path contract: each failure mode exits with its documented
# distinct code and a one-line diagnostic on stderr — never a backtrace.
#
# Usage: cli_errors.sh path/to/tinyvm_cli.exe
set -u

CLI=$1
fails=0

# expect NAME EXPECTED_CODE CMD...
expect() {
  name=$1; want=$2; shift 2
  err=$("$@" 2>&1 >/dev/null)
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: expected exit $want, got $got" >&2
    echo "     stderr: $err" >&2
    fails=$((fails + 1))
    return
  fi
  case $err in
    *"Raised at"* | *"Raised by"* | *"Called from"* | *Fatal\ error* | *Stack\ overflow*)
      echo "FAIL $name: backtrace leaked to stderr:" >&2
      echo "$err" >&2
      fails=$((fails + 1))
      return ;;
  esac
  if [ "$(printf '%s' "$err" | grep -c .)" -gt 1 ]; then
    echo "FAIL $name: diagnostic is not one line:" >&2
    echo "$err" >&2
    fails=$((fails + 1))
    return
  fi
  echo "ok   $name (exit $got)"
}

# expect_code NAME EXPECTED_CODE CMD...: the exit code only (for cmdliner
# usage errors, whose diagnostic spans several lines).
expect_code() {
  name=$1; want=$2; shift 2
  "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL $name: expected exit $want, got $got" >&2
    fails=$((fails + 1))
    return
  fi
  echo "ok   $name (exit $got)"
}

# Discover a feasible transition point dynamically so the script never
# goes stale when the pipeline changes ("#NN -> #MM" with a landing).
AT=$("$CLI" osr-points bzip2 | sed -n 's/^ *#\([0-9][0-9]*\) *-> *#[0-9].*/\1/p' | head -1)
if [ -z "$AT" ]; then
  echo "FAIL: no feasible OSR point found for bzip2" >&2
  exit 1
fi
echo "using feasible point #$AT"

# The happy path still works (and exits 0).
expect "osr-run clean"          0 "$CLI" osr-run bzip2 --at "$AT"

# Injected faults surface as typed errors with their documented codes.
expect "guard trap -> 12"      12 "$CLI" osr-run bzip2 --at "$AT" --inject guard-trap
expect "chi trap -> 13"        13 "$CLI" osr-run bzip2 --at "$AT" --inject chi-trap

# Fuel exhaustion is a typed error on both entry points.
expect "run --fuel -> 14"      14 "$CLI" run bzip2 --fuel 10
expect "osr-run --fuel -> 14"  14 "$CLI" osr-run bzip2 --at "$AT" --fuel 10

# A nonexistent program point is a typed error, not an abort() or a 125.
expect "bad --at -> 16"        16 "$CLI" osr-run bzip2 --at 999999

# An unknown debug-study group is a usage error, like an unknown kernel.
expect_code "debug-study unknown -> 124" 124 "$CLI" debug-study nosuch

# Malformed IR given to `opt`: a parse error, a duplicate label and an SSA
# violation each exit 19 with one line naming the file.
IR=$(mktemp -d)
trap 'rm -rf "$IR"' EXIT
printf 'func @f(%%x) {\nentry:\n  %%y = bogus %%x\n  ret %%y\n}\n' > "$IR/parse.ir"
printf 'func @f(%%x) {\nentry:\n  br a\na:\n  br a\na:\n  ret %%x\n}\n' > "$IR/dup.ir"
printf 'func @f(%%x) {\nentry:\n  ret %%nope\n}\n' > "$IR/ssa.ir"
expect "opt parse error -> 19"      19 "$CLI" opt "$IR/parse.ir"
expect "opt duplicate label -> 19"  19 "$CLI" opt "$IR/dup.ir"
expect "opt SSA violation -> 19"    19 "$CLI" opt "$IR/ssa.ir"

# Aborted-but-recovered runs (misfire/suppress keep the source alive).
expect "suppress recovers"      0 "$CLI" osr-run bzip2 --at "$AT" --inject suppress

if [ "$fails" -ne 0 ]; then
  echo "$fails CLI error-path check(s) failed" >&2
  exit 1
fi
echo "all CLI error-path checks passed"
