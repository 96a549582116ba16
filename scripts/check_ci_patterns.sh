#!/bin/sh
# check_ci_patterns.sh — every test pattern of CI's kernel-bench step must
# select something.
#
# The "kernel-bench smoke" step of .github/workflows/ci.yml runs named
# subsets of the tier-1 tests and benchmarks through -run and -bench
# patterns. A test that is deleted or renamed leaves its alternative in the
# pattern matching nothing, and `go test` stays silent about it. For each
# `go test` line of that step this script lists the packages' tests and
# benchmarks (`go test -list`, offline) and fails when any |-alternative of
# the line's -run pattern names no test, fuzz target or example, or any
# alternative of its -bench pattern names no benchmark. '^$' (run nothing)
# is skipped.
#
# Usage: scripts/check_ci_patterns.sh   (from anywhere in the repo)
set -eu
cd "$(dirname "$0")/.."

ci=.github/workflows/ci.yml
step='kernel-bench smoke'

# The step's go test lines: from its "- name:" line to the next step's.
cmds=$(awk -v s="$step" '/^ *- name: /{on = index($0, s) > 0; next} on && /go test /' "$ci")
if [ -z "$cmds" ]; then
    echo "check_ci_patterns: no go test line in step '$step' of $ci"
    exit 1
fi

fail=0
# check ALTS NAMES FLAG: every |-alternative of ALTS must match a line of NAMES.
check() {
    for alt in $(printf '%s\n' "$1" | tr '|' '\n'); do
        [ "$alt" = '^$' ] && continue
        if ! printf '%s\n' "$2" | grep -Eq -- "$alt"; then
            echo "ci.yml '$step': $3 alternative '$alt' matches nothing in $pkgs"
            fail=1
        fi
    done
}

nl='
'
IFS_save=$IFS
IFS=$nl
for cmd in $cmds; do
    IFS=$IFS_save
    pkgs=$(printf '%s\n' "$cmd" | tr ' ' '\n' | grep '^\./' | tr '\n' ' ')
    run=$(printf '%s\n' "$cmd" | sed -n "s/.*-run '\([^']*\)'.*/\1/p")
    bench=$(printf '%s\n' "$cmd" | sed -n "s/.*-bench '\([^']*\)'.*/\1/p")
    # shellcheck disable=SC2086 # pkgs is a word list
    names=$(go test -list '.*' $pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)')
    [ -n "$run" ] && check "$run" "$(printf '%s\n' "$names" | grep -Ev '^Benchmark')" -run
    [ -n "$bench" ] && check "$bench" "$(printf '%s\n' "$names" | grep -E '^Benchmark')" -bench
    IFS=$nl
done
IFS=$IFS_save

if [ "$fail" -ne 0 ]; then
    echo "CI pattern check failed — drop or rename the dead alternatives"
    exit 1
fi
echo "CI pattern check: every -run/-bench alternative of '$step' selects a test"
