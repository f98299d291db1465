#!/usr/bin/env bash
# Rewrites the reference outputs in this directory from the source tree:
# the five caraoke-sim scenarios CI runs (wall-clock lines dropped),
# caraoke-bench -runs 2, the five examples, and score.txt: the reference
# city's `score:` lines for seeds 1-5, each prefixed `seed N `
# (internal/city's TestScoreLedger holds the file to its runs, and
# ratchet.sh prints its diff against a parent). All of them are seeded,
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
sim -readers 8 -vehicles 200 -seed 1 -loss 0.1 -kill-interval 10 -churn 0.15 -drift-ppm 50 -resync-every 10 > "$out/chaos1.txt"
sim -readers 8 -vehicles 30 -parked 6 -duration 6s -seed 7 -decode-every 2 -partitions 1 > "$out/part1.txt"
sim -readers 8 -vehicles 20 -duration 8s -seed 11 -partitions 2 -kill 0@3 > "$out/kill1.txt"
sim -readers 8 -vehicles 20 -duration 8s -seed 11 -loss 0.05 -kill-interval 25 -churn 0.1 -drift-ppm 50 -resync-every 10 -partitions 2 -kill 0@2 > "$out/chaoskill1.txt"
for seed in 1 2 3 4 5; do
	sim -readers 8 -vehicles 200 -seed "$seed" | sed -n "s/^score: /seed $seed &/p"
done > "$out/score.txt"
"$bin/caraoke-bench" -runs 2 > "$out/bench.txt"
for ex in city intersection parking quickstart speedtrap; do
	"$bin/$ex" > "$out/example-$ex.txt"
done
