#!/bin/sh
# fma.sh — how many fused multiply-adds the Go compiler emits for arm64 in
# each numeric package: the count of FMADDD, FMSUBD, FNMADDD and FNMSUBD lines
# in the assembly of GOARCH=arm64 go build -gcflags=-S. amd64 fuses none, so
# each one is a place where an arm64 build rounds differently from the amd64
# build the SHA goldens and store keys were recorded on (ROADMAP item 16).
#
# A report, not a gate: CI prints it after "go vet (arm64)". It cross-compiles
# with the installed toolchain and needs no arm64 host or network.
set -eu
cd "$(dirname "$0")/.."

for pkg in scf linalg poisson dfpt lanczos; do
	n=$(GOARCH=arm64 go build -gcflags=-S "./internal/$pkg" 2>&1 | grep -cE 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' || true)
	printf '%-8s %s\n' "$pkg" "$n"
done
