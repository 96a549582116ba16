#!/bin/sh
# prodcov.sh — production coverage: what the benchmark workloads run of
# internal/, against what the tier-1 tests run (ROADMAP item 21).
#
#   1. builds ./bench with -cover -coverpkg=./internal/... into a temp dir and
#      runs every workload of BENCHMARK.json once, one after the other in the
#      foreground, with -seconds 1 under GOCOVERDIR;
#   2. runs the tier-1 tests (go test ./...) with the same -coverpkg;
#   3. prints the per-package statement coverage of both, then every function
#      under internal/ that the tests reach and no workload does;
#   4. of those, prints the test-only ones: functions that no program of the
#      repository (cmd/, bench/, examples/) links. The programs are built with
#      inlining off, so a function every caller inlines still counts as
#      linked, and the linker drops whatever no program can reach.
#
# A function on the first list is production code a workload could run but
# does not (a fault path, a CLI feature); one on the second is code that only
# tests call (an oracle, a superseded API), which belongs in a _test.go file
# or a …ref package. A report, not a gate: CI prints it after the surface
# report. Takes a minute or two; needs nothing beyond the Go toolchain.
set -eu
cd "$(dirname "$0")/.."
export LC_ALL=C

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
mkdir "$tmp/prod"

# The main package must be instrumented too, or the binary writes no
# coverage data; its own lines drop out of the report below.
go build -cover -coverpkg=./internal/...,./bench -o "$tmp/bench" ./bench
workloads=$(sed -n '/"workloads"/,$ s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
for w in $workloads; do
	if ! GOCOVERDIR="$tmp/prod" "$tmp/bench" -workload "$w" -seconds 1 > "$tmp/$w.log" 2>&1; then
		echo "prodcov: workload $w failed; its coverage counts as far as it ran:"
		tail -n 3 "$tmp/$w.log"
	fi
done
go tool covdata textfmt -i="$tmp/prod" -o "$tmp/prod.out"

if ! go test -coverpkg=./internal/... -coverprofile="$tmp/tier1.out" ./... > "$tmp/tier1.log" 2>&1; then
	echo "prodcov: tier-1 tests failed; their coverage counts as far as they ran:"
	grep -E '^(FAIL|---)' "$tmp/tier1.log" | head -n 20
fi

# Per-package statement coverage from a profile: statements with a non-zero
# count over all statements, every block counted once (a block two test
# binaries both report is the same statements).
pkgcov() {
	awk 'NR > 1 {
		split($1, a, ":"); f = a[1]; sub(/\/[^\/]*$/, "", f)
		key = $1; n = $(NF-1); c = $NF
		if (!(key in stmts)) { stmts[key] = n; pkg[key] = f }
		if (c > 0) hit[key] = 1
	}
	END {
		for (k in stmts) { tot[pkg[k]] += stmts[k]; if (k in hit) cov[pkg[k]] += stmts[k] }
		for (p in tot) printf "%s %d %d\n", p, cov[p], tot[p]
	}' "$1" | sort
}
pkgcov "$tmp/tier1.out" > "$tmp/tier1.pkg"
pkgcov "$tmp/prod.out" > "$tmp/prod.pkg"

echo "statement coverage, tier-1 tests vs the $(echo $workloads | wc -w) bench workloads:"
join -a 1 "$tmp/tier1.pkg" "$tmp/prod.pkg" | awk '
	{ t = $3; tc += $2; tt += t; pc += $4; printf "  %-34s %6.1f%% %6.1f%%\n", $1, 100*$2/t, 100*$4/t }
	END { printf "  %-34s %6.1f%% %6.1f%%\n", "total", 100*tc/tt, 100*pc/tt }'

# Function coverage: "file:line: name pct%" lines, joined on file:line.
go tool cover -func="$tmp/tier1.out" | awk '$1 != "total:" { print $1, $2, $3 }' | sort > "$tmp/tier1.func"
go tool cover -func="$tmp/prod.out" | awk '$1 != "total:" { print $1, $2, $3 }' | sort > "$tmp/prod.func"
join "$tmp/tier1.func" "$tmp/prod.func" |
	awk '$3 != "0.0%" && $5 == "0.0%" { sub(/^qframan\//, "", $1); sub(/:$/, "", $1); print $1, $2 }' > "$tmp/testonly"
echo
echo "functions the tests reach and no workload does: $(wc -l < "$tmp/testonly")"
sed 's/^/  /' "$tmp/testonly"

# Test-only: the symbol of each listed function — pkg.Name, pkg.(*T).Name or
# pkg.T.Name, the receiver read from the declaration — in no program's
# symbol table.
mkdir "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./bench ./examples/...
for b in "$tmp"/bin/*; do go tool nm "$b"; done | awk '$2 == "T" || $2 == "t" { print $3 }' | sort -u > "$tmp/linked"
while read -r loc name; do
	file=${loc%:*}
	recv=$(sed -n "${loc##*:}p" "$file" | sed -n 's/^func (\([^)]*\)).*/\1/p' | awk '{ print $NF }' | sed 's/\[.*//')
	pkg=qframan/${file%/*}
	case $recv in
	"") sym="$pkg.$name" ;;
	\**) sym="$pkg.(${recv}).$name" ;;
	*) sym="$pkg.$recv.$name" ;;
	esac
	# A value-receiver method also links as its pointer wrapper.
	grep -qxF -e "$sym" -e "$pkg.(*$recv).$name" "$tmp/linked" || echo "$loc $name"
done < "$tmp/testonly" > "$tmp/unlinked"
echo
echo "of those, linked into no program (test-only): $(wc -l < "$tmp/unlinked")"
sed 's/^/  /' "$tmp/unlinked"
