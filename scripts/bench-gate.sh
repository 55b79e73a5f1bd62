#!/usr/bin/env bash
# bench-gate: run the repo benchmark on a base commit and on this checkout and
# gate on what repeats exactly.
#
#   scripts/bench-gate.sh [base-commit]    (default: merge-base with origin/main,
#                                           or HEAD~1 when that is HEAD itself)
#
# Both trees are exported into separate directories under a temporary one and
# built there, so neither run sees the other's binary or out/.
# Every workload runs short (--runs 3 --seconds 2). The -check table goes to
# stdout and, in CI, into the job summary. The gate fails only on:
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
	echo "bench-gate: $side ($([ $side = base ] && echo "$base" || echo checkout))" >&2
	(
		cd "$tmp/$side"
		go build -C benchmark -o "$tmp/$side/bench" .
		"$tmp/$side/bench" --runs 3 --seconds 2 --out "$tmp/$side/out" >"$tmp/$side/run.log" 2>&1
	) || { cat "$tmp/$side/run.log" >&2; echo "bench-gate: the $side run failed" >&2; exit 1; }
done

table=$tmp/check.txt
"$tmp/head/bench" -check "$tmp/base/out/result.json" "$tmp/head/out/result.json" >"$table" || true
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
