#!/usr/bin/env bash
# CLI flag matrix: the flags each subcommand accepts are exactly the ones
# its --help synopsis lists (plus hunt's unlisted --inject-straddle-bug),
# every row of the parser's flag table is in that synopsis, and every
# malformed command line exits 2 before any NF work.
#
#   tests/cli_flags.sh path/to/bolt_cli path/to/tools/bolt_cli.cpp
#
# Each probe ends in '--zz': a flag that applies is parsed (its value
# included) and parsing reaches '--zz', an unknown flag; a flag that does
# not apply stops the run first. No probe runs a monitor or generates a
# contract, except 'predict nat' on a bad binding.
set -u

usage="usage: cli_flags.sh path/to/bolt_cli path/to/tools/bolt_cli.cpp"
bolt=${1:?$usage}
source=${2:?$usage}
bolt=$(cd "$(dirname "$bolt")" && pwd)/$(basename "$bolt")
# The flag names of the kFlags table, one '{"--name", ...' row each.
table=$(grep -o -e '^ *{"--[a-z][a-z-]*"' "$source" | grep -o -e '--[a-z-]*' |
        sort -u)
# No probe writes more than a few KiB: a parser that misread a count would
# stop at the file-size limit, not fill the disk.
ulimit -f 10240
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

failures=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# run ARGS...: runs bolt_cli, leaving its exit code in $code and its stderr
# in $err.
run() {
  "$bolt" "$@" > /dev/null 2> stderr.txt
  code=$?
  err=$(cat stderr.txt)
}

# expect2 PATTERN ARGS...: bolt_cli ARGS exits 2 with PATTERN on stderr.
expect2() {
  local pattern=$1
  shift
  run "$@"
  if [ "$code" -ne 2 ] || ! grep -q -e "$pattern" stderr.txt; then
    fail "bolt_cli $*: want exit 2 and /$pattern/, got $code: ${err%%$'\n'*}"
  fi
}

help=$("$bolt" --help) || { echo "FAIL: --help exited non-zero" >&2; exit 1; }

# "cmd flag placeholder" per synopsis entry, and "cmd - -" per subcommand
# (so subcommands without flags are listed too). The synopsis ends at the
# 'bolt --help' line.
synopsis=$(printf '%s\n' "$help" | awk '
  /bolt --help/ { exit }
  match($0, /bolt [a-z]+/) {
    cmd = substr($0, RSTART + 5, RLENGTH - 5)
    print cmd, "-", "-"
  }
  {
    line = $0
    while (match(line, /--[a-z-]+( [A-Z][A-Za-z\/]*)?/)) {
      n = split(substr(line, RSTART, RLENGTH), tok, " ")
      print cmd, tok[1], (n > 1 ? tok[2] : "-")
      line = substr(line, RSTART + RLENGTH)
    }
  }')

commands=$(printf '%s\n' "$synopsis" | awk '{ print $1 }' | sort -u)
# Every flag the help names anywhere, and every row of the flag table.
flags=$( (printf '%s\n' "$help" | grep -o -e '--[a-z][a-z-]*';
          printf '%s\n' "$table") | grep -v -x -e '--help' | sort -u)

# The table side: each row is a flag some subcommand's synopsis lists, so
# no flag ships without its help line. --inject-straddle-bug is the one
# unlisted row.
[ "$(printf '%s\n' "$table" | wc -l)" -ge 25 ] ||
  fail "read only $(printf '%s\n' "$table" | wc -l) kFlags rows from $source"
for flag in $table; do
  [ "$flag" = --inject-straddle-bug ] && continue
  printf '%s\n' "$synopsis" | awk -v f="$flag" '
    $2 == f { found = 1 } END { exit !found }' ||
    fail "kFlags row $flag is in no --help synopsis"
done
printf '%s\n' "$table" | grep -q -x -e --inject-straddle-bug ||
  fail "kFlags has no --inject-straddle-bug row"

# accepts CMD FLAG: the synopsis lists FLAG for CMD.
accepts() {
  [ "$1" = hunt ] && [ "$2" = --inject-straddle-bug ] && return 0
  printf '%s\n' "$synopsis" | awk -v c="$1" -v f="$2" '
    $1 == c && $2 == f { found = 1 } END { exit !found }'
}

# placeholder FLAG: the value a flag takes in the synopsis, '-' for none.
placeholder() {
  printf '%s\n' "$synopsis" | awk -v f="$1" '$2 == f { print $3; exit }' |
    grep . || echo -
}

# sample PLACEHOLDER: a valid value of that kind.
sample() {
  case $1 in
    I/N) echo 0/1 ;;
    F) echo json ;;
    N | PCT | P) echo 1 ;;
    *) echo x ;;
  esac
}

summary=
for cmd in $commands; do
  accepted=0
  for flag in $flags; do
    ph=$(placeholder "$flag")
    value=()
    [ "$ph" != - ] && value=("$(sample "$ph")")
    if accepts "$cmd" "$flag"; then
      accepted=$((accepted + 1))
      expect2 "unknown flag '--zz'" "$cmd" nat "$flag" ${value[@]+"${value[@]}"} --zz
      if [ "$ph" != - ]; then
        # The value is required, not optional.
        expect2 "^error: $flag requires a value\$" "$cmd" nat "$flag"
      fi
      case $ph in
        # Numbers are digits only: a sign is never read as a huge value.
        N | PCT | P)
          expect2 "^error: bad $flag value '-1'" "$cmd" nat "$flag" -1 --zz ;;
      esac
    else
      expect2 "^error: flag '$flag' does not apply to '$cmd'\$" \
        "$cmd" nat "$flag" ${value[@]+"${value[@]}"} --zz
    fi
  done
  summary="$summary $cmd=$accepted"
done
# Every subcommand reached the matrix, each with its number of flags: a
# flag dropped from a synopsis (and from the parser with it) changes these.
want=" adversary=10 contract=2 distill=0 gen=0 hunt=14 merge=8 monitor=22"
want="$want paths=1 predict=0 scenarios=1"
[ "$summary" = "$want" ] ||
  fail "flags accepted per subcommand:$summary, want$want"

# Malformed command lines: exit 2, naming the problem.
expect2 "unknown flag '--zz'" monitor nat --zz
expect2 "unknown flag '--shards'" monitor nat --shards 2
expect2 "'merge' requires --spool" merge nat
expect2 "bad --fleet value '1/1'" monitor nat --fleet 1/1
expect2 "bad --metrics-format value 'xml'" monitor nat --metrics-format xml
expect2 "^error: bad .* value 'abc'" predict nat e=abc
expect2 "^error: bad .* value 'abc'" gen zipf bad.pcap abc
expect2 "^error: bad .* value '12abc'" gen zipf bad.pcap 12abc
# Numbers are digits only, within 64 bits (each probe stops at '--zz' if
# its value were taken).
expect2 "^error: bad --violation-threshold value '-1'" \
  monitor nat --violation-threshold -1 --zz
expect2 "^error: bad --packets value '+5'" monitor nat --packets +5 --zz
expect2 "^error: bad --packets value ' 5'" monitor nat --packets ' 5' --zz
expect2 "^error: bad --packets value '18446744073709551616'" \
  monitor nat --packets 18446744073709551616 --zz
expect2 "^error: bad --fleet value '0/-1'" monitor nat --fleet 0/-1 --zz
expect2 "^error: bad --fleet value '0/4294967297'" \
  monitor nat --fleet 0/4294967297 --zz
expect2 "^error: bad --fleet value '+0/1'" monitor nat --fleet +0/1 --zz
expect2 "^error: bad e value '-1'" predict nat e=-1
expect2 "^error: bad count value '-5'" gen zipf neg.pcap -5
[ -e neg.pcap ] && fail "gen with a bad count wrote neg.pcap"
# A capture is the traffic: a generator flag next to --pcap is rejected
# before the capture is opened or any traffic generated (none.pcap does
# not exist).
expect2 "error: --pcap and --packets cannot be combined" \
  monitor nat --pcap none.pcap --packets 10
expect2 "error: --pcap and --workload cannot be combined" \
  monitor nat --pcap none.pcap --workload drift
expect2 "error: --pcap and --workload cannot be combined" \
  monitor nat --follow --idle-exit-ms 1 --pcap none.pcap --workload drift

if [ "$failures" -ne 0 ]; then
  echo "$failures CLI check(s) failed" >&2
  exit 1
fi
echo "CLI flag matrix, flags accepted per subcommand:$summary"
