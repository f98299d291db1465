#!/usr/bin/env bash
# Holds the score's bounds (internal/city/testdata/bounds.txt) to their
# copy at <rev>: fails when a bound line is gone, a floor (>=) drops, a
# ceiling (<=) rises, a bound changes direction, or a seed set loses a
# seed. Raising a floor, lowering a ceiling, adding a seed or a line
# pass. Then prints how score.txt, the reference city's score for seeds
# 1-5, moved since <rev>: the per-seed deltas a change reports. A <rev>
# without a bounds table holds nothing and passes.
#
#	bash testdata/golden/ratchet.sh HEAD^
set -euo pipefail
cd "$(dirname "$0")/../.."
rev=${1:?usage: ratchet.sh <rev>}
table=internal/city/testdata/bounds.txt
git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
	echo "ratchet: no commit $rev" >&2
	exit 2
}
if old=$(git show "$rev:$table" 2>/dev/null); then
	# Both tables through one awk, the old one on stdin: seed sets
	# expand "1-3,5" to " 1 2 3 5 ".
	awk '
		function seeds(s,   parts, i, r, n, out, k) {
			out = " "
			n = split(s, parts, ",")
			for (i = 1; i <= n; i++) {
				if (split(parts[i], r, "-") == 1) r[2] = r[1]
				for (k = r[1] + 0; k <= r[2] + 0; k++) out = out k " "
			}
			return out
		}
		/^[ \t]*(#|$)/ { next }
		which == "old" { op[$1] = $2; val[$1] = $3; set[$1] = seeds($4); next }
		{ nop[$1] = $2; nval[$1] = $3; nset[$1] = seeds($4) }
		END {
			bad = 0
			for (name in op) {
				if (!(name in nop)) { print "ratchet: " name " is gone"; bad = 1; continue }
				if (nop[name] != op[name]) { print "ratchet: " name " turned " op[name] " into " nop[name]; bad = 1; continue }
				if (op[name] == ">=" && nval[name] + 0 < val[name] + 0) { print "ratchet: floor " name " dropped " val[name] " -> " nval[name]; bad = 1 }
				if (op[name] == "<=" && nval[name] + 0 > val[name] + 0) { print "ratchet: ceiling " name " rose " val[name] " -> " nval[name]; bad = 1 }
				n = split(set[name], s, " ")
				for (i = 1; i <= n; i++)
					if (index(nset[name], " " s[i] " ") == 0) { print "ratchet: " name " no longer holds seed " s[i]; bad = 1 }
			}
			exit bad
		}
	' which=old - which=new "$table" <<<"$old" || {
		echo "ratchet: $table loosens a bound of $rev; a change may raise a floor or lower a ceiling, never the reverse" >&2
		exit 1
	}
	echo "ratchet: every bound of $rev holds in $table"
else
	echo "ratchet: $rev has no $table; nothing to hold"
fi
echo "score since $rev:"
git --no-pager diff "$rev" -- testdata/golden/score.txt
