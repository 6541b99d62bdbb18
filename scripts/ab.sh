#!/usr/bin/env bash
# A/B comparison of one benchmark workload between a parent revision and
# this checkout, in the form a performance claim is judged by.
#
#   scripts/ab.sh <rev> <workload> <seed>...
#   scripts/ab.sh HEAD~1 serve-cold 11 12 13 14 15 16 17 18 19 20
#
# <rev> is checked out as a git worktree under .bench_build/ab-<sha>
# (kept for the next call; `git worktree remove --force <dir>` deletes
# it). For each seed, one pair of runs of
#
#   bash bench/run.sh --workload <workload> --seed <seed> --seconds 15 --trace 0
#
# is made, one on the parent and one on this checkout's working tree,
# alternating which side runs first. Every run's full output is kept
# under .bench_build/ab-<stamp>/. The script prints each run's result
# line, then per end-to-end metric each side's quartiles, the pairs the
# change won (ties count for neither side) and the verdict of the rule a
# claimed gain must meet: at least nine tenths of the pairs won, and a
# median gap larger than the parent's interquartile range. Every
# end-to-end metric of BENCHMARK.json is lower-is-better.
set -euo pipefail

if [ $# -lt 3 ]; then
	echo "usage: $0 <rev> <workload> <seed>..." >&2
	exit 2
fi
rev=$1 workload=$2
shift 2

cd "$(dirname "$0")/.."
root=$PWD
sha=$(git rev-parse --short "$rev^{commit}")
parent="$root/.bench_build/ab-$sha"
if [ ! -d "$parent" ]; then
	mkdir -p "$root/.bench_build"
	git worktree add --detach "$parent" "$sha" >&2
fi
out="$root/.bench_build/ab-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out"

# run <side> <dir> <seed>: one benchmark run, its result line appended to
# $out/<side>.jsonl.
run() {
	local side=$1 dir=$2 seed=$3 log="$out/$1-$workload-$3.log"
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 15 --trace 0) >"$log" 2>&1 || true
	local line
	line=$(tail -n 1 "$log")
	case $line in
	'{'*) ;;
	*) line='{"correct":false,"error":"no result line"}' ;;
	esac
	echo "$line" >>"$out/$side.jsonl"
	printf '%-7s seed %-4s %s\n' "$side" "$seed" "$line"
}

i=0
for seed in "$@"; do
	if [ $((i % 2)) -eq 0 ]; then
		run parent "$parent" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run parent "$parent" "$seed"
	fi
	i=$((i + 1))
done

# value <file> <metric>: the metric's value from every result line, one
# per line, "nan" where a line lacks it.
value() {
	while IFS= read -r line; do
		v=$(printf '%s\n' "$line" | sed -n "s/.*\"$2\":{\"value\":\([-0-9.eE+]*\).*/\1/p")
		echo "${v:-nan}"
	done <"$1"
}

metrics=$(head -n 1 "$out/change.jsonl" | grep -o '"[a-z_]*":{"value"' | sed 's/"\([a-z_]*\)".*/\1/' | sort)
echo
echo "$workload, ${#@} pairs, logs in $out"
for side in parent change; do
	printf '%-7s correct %s/%s, failed operations %s\n' "$side" \
		"$(grep -c '"correct":true' "$out/$side.jsonl" || true)" "$(wc -l <"$out/$side.jsonl")" \
		"$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' "$out/$side.jsonl" | awk '{s += $1} END {print s + 0}')"
done
printf '%-10s %27s %27s %6s %8s  %s\n' metric "parent q1/median/q3" "change q1/median/q3" won change verdict
for m in $metrics; do
	paste <(value "$out/parent.jsonl" "$m") <(value "$out/change.jsonl" "$m") | awk -v m="$m" '
	function q(a, n, p,   h, lo) { # linear interpolation between order statistics
		h = (n - 1) * p; lo = int(h)
		return lo + 1 < n ? a[lo] + (h - lo) * (a[lo + 1] - a[lo]) : a[lo]
	}
	function sort(a, n,   i, j, t) {
		for (i = 1; i < n; i++) for (j = i; j > 0 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	BEGIN { n = 0; won = 0 }
	$1 != "nan" && $2 != "nan" { p[n] = $1 + 0; c[n] = $2 + 0; if (c[n] < p[n]) won++; n++ }
	END {
		if (n == 0) { printf "%-10s no paired values\n", m; exit }
		sort(p, n); sort(c, n)
		pm = q(p, n, 0.5); cm = q(c, n, 0.5); iqr = q(p, n, 0.75) - q(p, n, 0.25)
		gain = won >= 0.9 * n && pm - cm > iqr
		printf "%-10s %8.3f/%8.3f/%8.3f %8.3f/%8.3f/%8.3f %3d/%-2d %+7.1f%%  %s\n", m,
			q(p, n, 0.25), pm, q(p, n, 0.75), q(c, n, 0.25), cm, q(c, n, 0.75), won, n,
			100 * (cm - pm) / pm, gain ? "gain (>= 9/10 won, gap " sprintf("%.3f", pm - cm) " > IQR " sprintf("%.3f", iqr) ")" : "no gain claimable"
	}'
done
