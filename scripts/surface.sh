#!/bin/sh
# surface.sh — the three numbers ROADMAP item 4 ("one Plan, one Executor") is
# judged by, so a simplicity PR quotes a script instead of a hand count.
#
#   code lines      non-test Go lines under internal/ and cmd/
#   option structs  struct types named *Options or *Config in that code
#   flags           flag definitions under cmd/ (on the flag package or on a
#                   FlagSet named fs)
#
# A report, not a gate: CI prints it in its "surface report" step.
set -eu
cd "$(dirname "$0")/.."

src() { find internal cmd -name '*.go' ! -name '*_test.go'; }

lines=$(src | xargs cat | wc -l)
structs=$(src | xargs grep -hE '^type [A-Za-z0-9_]*(Options|Config) struct' | wc -l)
flags=$(find cmd -name '*.go' ! -name '*_test.go' | xargs grep -hoE '\b(flag|fs)\.(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(Var)?\(' | wc -l)

printf 'code lines (internal/ + cmd/, non-test): %d\n' "$lines"
printf 'Options/Config structs:                  %d\n' "$structs"
printf 'flag definitions under cmd/:             %d\n' "$flags"
