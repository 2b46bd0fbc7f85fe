#!/usr/bin/env sh
# Parser parity: examples/explore and the bench drivers both route their
# option handling through exec::configure_threads' strict parser, so the
# same garbage input must be rejected identically — exit code 2 — by both
# front doors.  A drift here means one of them grew a lenient hand-rolled
# path again (the bug this test pins: explore used to silently ignore
# unknown and repeated options the drivers rejected).
#
# Usage: cli_parity.sh EXPLORE_BINARY BENCH_DRIVER_BINARY
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: $0 EXPLORE_BINARY BENCH_DRIVER_BINARY" >&2
  exit 2
fi
explore=$1
driver=$2
fail=0

check() {
  desc=$1
  shift
  "$explore" gennaro none uniform "$@" >/dev/null 2>&1
  a=$?
  "$driver" "$@" >/dev/null 2>&1
  b=$?
  if [ "$a" -ne 2 ] || [ "$b" -ne 2 ]; then
    echo "FAIL [$desc]: explore exit $a, driver exit $b (want 2 from both)" >&2
    fail=1
  else
    echo "ok   [$desc]: both exit 2"
  fi
}

check "unknown option"         --bogus=1
check "repeated option"        --threads=2 --threads=2
check "malformed thread count" --threads=banana
check "bad transport"          --transport=carrier-pigeon
check "removed socket backend" --transport=socket
check "bad drop probability"   --drop=1.5
check "empty json path"        --json=
check "empty log path"         --log=
check "empty status path"      --status=
check "bad status interval"    --status-interval=banana
check "zero status interval"   --status-interval=0
check "repeated status path"   --status=a --status=b
check "malformed net timeout"  --net-timeout=abc
check "zero net timeout"       --net-timeout=0
check "negative net timeout"   --net-timeout=-1
check "sub-ms net timeout"     --net-timeout=0.0001
check "trailing-junk timeout"  --net-timeout=5s
check "repeated net timeout"   --net-timeout=5 --net-timeout=5
check "removed chaos knob"     --chaos=loss:0.1
# explore's own knobs: a bench driver rejects them as unknown arguments,
# explore must reject the malformed values and repeats just as loudly.
check "malformed party count"  --n=abc
check "trailing-junk party count" --n=5x
check "repeated party count"   --n=4 --n=5
check "empty corrupt id"       --corrupt=1,,3
check "malformed seed"         --seed=zz
check "negative sample count"  --samples=-1

# explore's positional distribution spec has no bench-driver counterpart, so
# these rows run explore alone: a malformed spec must exit 2 with the usage
# line, not abort (exit 134) on an uncaught parse exception.
check_explore() {
  desc=$1
  shift
  "$explore" gennaro none "$@" >/dev/null 2>&1
  a=$?
  if [ "$a" -ne 2 ]; then
    echo "FAIL [$desc]: explore exit $a (want 2)" >&2
    fail=1
  else
    echo "ok   [$desc]: explore exit 2"
  fi
}

check_explore "malformed product probability" product:0.3,abc,0.5,0.5,0.5
check_explore "non-bit singleton"             singleton:10x11 --n=5

# Fractional --net-timeout must be *accepted* (the knob takes seconds, and
# sub-second deadlines are what keep negative network tests fast).  explore
# alone carries the acceptance row: with one in-process sample it exits 0 in
# milliseconds, while a bench driver would run its whole grid.
"$explore" gennaro none uniform --samples=1 --net-timeout=0.5 >/dev/null 2>&1
a=$?
if [ "$a" -ne 0 ]; then
  echo "FAIL [fractional net timeout accepted]: explore exit $a (want 0)" >&2
  fail=1
else
  echo "ok   [fractional net timeout accepted]: explore exit 0"
fi

exit $fail
