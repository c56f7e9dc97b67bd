#!/bin/sh
# go test exits 0 when a -run or -bench expression matches nothing, so a
# renamed test silently drops out of the steps that name it. This walks
# every quoted -run/-bench expression of the workflow and fails when one of
# its |-alternatives matches no test in the packages of that step.
set -eu
wf=${1:-.github/workflows/ci.yml}
steps=$(mktemp)
trap 'rm -f "$steps"' EXIT
sed -n "s/.*go test .*-\(run\|bench\) '\([^']*\)'\(.*\)/\2	\3/p" "$wf" >"$steps"
[ -s "$steps" ] || { echo "no -run/-bench expression found in $wf"; exit 1; }
status=0
while IFS='	' read -r expr rest; do
	# What follows the expression: flags (and their values) first, then packages.
	pkgs=$(echo "$rest" | tr ' ' '\n' | grep -E '^(\.|\./.*)$' | tr '\n' ' ')
	names=$(go test -list . $pkgs | grep -E '^(Test|Benchmark|Fuzz|Example)')
	for alt in $(echo "$expr" | tr '|' ' '); do
		if ! echo "$names" | grep -qE "$alt"; then
			echo "pattern '$alt' matches no test in: $pkgs"
			status=1
		fi
	done
done <"$steps"
exit $status
