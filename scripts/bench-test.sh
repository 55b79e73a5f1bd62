#!/usr/bin/env bash
# bench-test: vet, test and smoke the benchmark module, which ./... does not
# reach.
#
# One assertion is an expected failure. TestSmokeEveryWorkload wants
# exec.queues_per_call > 0 on the real workloads; since ISSUE 20 a warmed
# engine creates no queue per call, which was that issue's target for the
# metric. An engine change may not edit benchmark/, so until a benchmark-only
# change takes the name off that list (ROADMAP open item 0) this script lets
# exactly that line fail. Any other failing test, any other message in those
# subtests, a panic or a build error still fails the gate. Delete the allowance
# together with the assertion.
set -uo pipefail
cd "$(git rev-parse --show-toplevel)"

go vet -C benchmark ./... || exit 1

log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -C benchmark ./... 2>&1 | tee "$log"
if [ "${PIPESTATUS[0]}" -ne 0 ]; then
	expected='exec\.queues_per_call = 0 on a real workload$|^ *--- FAIL: TestSmokeEveryWorkload(/real_[a-z_]+)? \(|^FAIL$|^FAIL	rpcoib/benchmark	[0-9.]+s$'
	if grep -vE "$expected" "$log" | grep -E '^ *--- FAIL|^FAIL|^panic:|_test\.go:[0-9]+: |\[[a-z]+ failed\]' >&2; then
		echo "bench-test: FAIL (lines above are not the expected failure)" >&2
		exit 1
	fi
	echo "bench-test: the only failure is the expected one (exec.queues_per_call = 0)" >&2
fi

bash benchmark/run.sh --workload real_observed --seconds 2 --trace 0
