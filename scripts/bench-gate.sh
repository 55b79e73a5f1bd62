#!/usr/bin/env bash
# bench-gate: run the repo benchmark on a base commit and on this checkout and
# gate on what repeats exactly.
#
#   scripts/bench-gate.sh [base-commit]    (default: merge-base with origin/main,
#                                           or HEAD~1 when that is HEAD itself)
#
# Both trees are exported into separate directories under a temporary one and
# built there, so neither run sees the other's binary or out/.
# Every workload runs short: three untraced runs (seeds 1-3) and one traced
# run (seed 1) of two seconds on each side. The two sides run alternately, one
# child run of the benchmark binary at a time, and which side goes first
# switches from pair to pair, so drift in the machine's load over the ten
# minutes reaches both sides alike instead of reading as a change. Each side's
# runs are assembled (jq) into the result file `benchmark -check` reads. The
# -check table goes to stdout and, in CI, into the job summary. The gate fails
# only on:
#   - a "worse" allocs_per_call or bytes_per_call row (counts repeat to 0.1 %);
#   - a perfmodel.* value that moved (simulated results are exact);
#   - a failed operation on either side.
# Timings are in the table for the reader; two-second windows on a shared
# runner cannot resolve them, so they are reported, not gated.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
base=${1:-}
if [ -z "$base" ]; then
	base=$(git merge-base HEAD origin/main 2>/dev/null || true)
	if [ -z "$base" ] || [ "$base" = "$(git rev-parse HEAD)" ]; then
		base=$(git rev-parse HEAD~1)
	fi
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base" "$tmp/head"
git archive "$base" | tar -x -C "$tmp/base"
# The head side is the checkout as it stands (tracked and new files, ignored
# ones left out): HEAD itself in CI, work in progress on a desk.
git ls-files -z --cached --others --exclude-standard | while IFS= read -r -d '' f; do
	[ -e "$f" ] && printf '%s\0' "$f"
done | tar -c --null -T - | tar -x -C "$tmp/head"

export GOFLAGS=-buildvcs=false
for side in base head; do
	go build -C "$tmp/$side/benchmark" -o "$tmp/$side/bench" . ||
		{ echo "bench-gate: the $side build failed" >&2; exit 1; }
done

runs=3 seconds=2
# child SIDE WORKLOAD SEED TRACE runs the benchmark once on one side and
# appends its result line, tagged with the workload and trace flag, to the
# side's runs.jsonl.
child() {
	local side=$1 w=$2 seed=$3 trace=$4
	(cd "$tmp/$side" && ./bench --workload "$w" --seed "$seed" --seconds "$seconds" \
		--trace "$trace" --out "$tmp/$side/out") >"$tmp/$side/child.out" 2>"$tmp/$side/child.err" || {
		cat "$tmp/$side/child.err" >&2
		echo "bench-gate: the $side run of $w (seed $seed, trace $trace) failed" >&2
		exit 1
	}
	tail -n 1 "$tmp/$side/child.out" |
		jq -c --arg w "$w" --argjson trace "$trace" '{workload: $w, trace: $trace} + .' >>"$tmp/$side/runs.jsonl"
}

echo "bench-gate: base $base against the checkout, alternating" >&2
pair=0
for w in $("$tmp/head/bench" -print-spec | jq -r '.workloads[].name'); do
	echo "bench-gate: $w" >&2
	for run in $(seq "$runs") traced; do
		seed=$run trace=0
		if [ "$run" = traced ]; then
			seed=1 trace=1
		fi
		order="base head"
		if [ $((pair % 2)) = 1 ]; then
			order="head base"
		fi
		for side in $order; do
			child "$side" "$w" "$seed" "$trace"
		done
		pair=$((pair + 1))
	done
done

# One side's runs in the shape `benchmark -check` reads (its out/result.json):
# per workload, the untraced runs' end-to-end values in seed order, the traced
# run's per-layer values, and operation counts summed over every run.
for side in base head; do
	jq -s --argjson seconds "$seconds" --argjson runs "$runs" '{
		seconds: $seconds, runs: $runs,
		workloads: (group_by(.workload) | map({key: .[0].workload, value: {
			attempted: (map(.attempted) | add),
			failed: (map(.failed) | add),
			end_to_end: ([.[] | select(.trace == 0) | .metrics | to_entries[]]
				| group_by(.key) | map({key: .[0].key, value: map(.value.value)}) | from_entries),
			per_layer: ([.[] | select(.trace == 1) | .metrics | map_values(.value)] | add)
		}}) | from_entries)
	}' "$tmp/$side/runs.jsonl" >"$tmp/$side/result.json"
done

table=$tmp/check.txt
"$tmp/head/bench" -check "$tmp/base/result.json" "$tmp/head/result.json" >"$table" || true
cat "$table"
if [ -n "${GITHUB_STEP_SUMMARY:-}" ]; then
	{
		echo "### bench-gate: $base -> checkout"
		echo '```'
		cat "$table"
		echo '```'
	} >>"$GITHUB_STEP_SUMMARY"
fi

# -check exits 1 on any "worse" row, timings included; apply the gate's own rule.
if grep -E '(allocs_per_call|bytes_per_call) .* (worse|missing)$|moved \(exact simulated value\)|failed operations:' "$table" >&2; then
	echo "bench-gate: FAIL (rows above)" >&2
	exit 1
fi
echo "bench-gate: ok (counts no worse, simulated values identical, no failed operation)" >&2
