#!/usr/bin/env bash
# Rewrites the reference outputs in this directory from the source tree:
# the five caraoke-sim scenarios CI runs (wall-clock lines dropped),
# caraoke-bench -runs 2, and the five examples. All of them are seeded,
# so the files only change when a code change moves bytes; then
# `git diff -- testdata/golden` shows the lines that moved, and CI fails
# on that diff.
#
#	bash testdata/golden/update.sh
set -euo pipefail
cd "$(dirname "$0")/../.."
out=testdata/golden
bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/" ./cmd/caraoke-sim ./cmd/caraoke-bench ./examples/...

sim() { "$bin/caraoke-sim" "$@" | grep -v wall; }
sim -readers 8 -vehicles 200 -seed 1 > "$out/run1.txt"
sim -readers 8 -vehicles 200 -seed 1 -chaos -loss 0.1 -kill-interval 10 -churn 0.15 > "$out/chaos1.txt"
sim -readers 8 -vehicles 30 -parked 6 -duration 6s -seed 7 -decode-every 2 -partitions 1 > "$out/part1.txt"
sim -readers 8 -vehicles 20 -duration 8s -seed 11 -partitions 2 -kill-partition 0 -kill-at-seq 3 > "$out/kill1.txt"
sim -readers 8 -vehicles 20 -duration 8s -seed 11 -chaos -partitions 2 -kill-partition 0 -kill-at-seq 2 > "$out/chaoskill1.txt"
"$bin/caraoke-bench" -runs 2 > "$out/bench.txt"
for ex in city intersection parking quickstart speedtrap; do
	"$bin/$ex" > "$out/example-$ex.txt"
done
