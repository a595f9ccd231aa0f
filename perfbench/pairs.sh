#!/usr/bin/env bash
# Runs alternating pairs of the benchmark on two checkouts — the parent
# commit and the change — and appends one JSON line per run to
# <outdir>/parent.jsonl and <outdir>/change.jsonl, ready for the
# comparator:
#
#   bash perfbench/pairs.sh <parent-checkout> <change-checkout> <outdir> \
#        <workload> <seconds> <seed>...
#   (cd perfbench && go run ./compare -bench ../BENCHMARK.json \
#        <outdir>/parent.jsonl <outdir>/change.jsonl)
#
# Pair i runs the parent first when i is even and the change first when i
# is odd. Both checkouts run with the same workload, seconds and seeds.
set -euo pipefail
if [ $# -lt 6 ]; then
	echo "usage: $0 parent-checkout change-checkout outdir workload seconds seed..." >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
workload=$4
seconds=$5
shift 5

order=0
one() { # side checkout seed
	local line
	# A run with a wrong answer exits 1 but still prints its result line,
	# which is recorded; a run that printed nothing stops the script.
	line=$(cd "$2" && bash perfbench/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1) || true
	case "$line" in
	"{"*) ;;
	*)
		echo "$0: $1 run with seed $3 printed no result" >&2
		exit 1
		;;
	esac
	printf '{"workload":"%s","seed":%s,"order":%d,"result":%s}\n' "$workload" "$3" "$order" "$line" >>"$out/$1.jsonl"
	order=$((order + 1))
}

i=0
for seed in "$@"; do
	if [ $((i % 2)) -eq 0 ]; then
		one parent "$parent" "$seed"
		one change "$change" "$seed"
	else
		one change "$change" "$seed"
		one parent "$parent" "$seed"
	fi
	i=$((i + 1))
done
