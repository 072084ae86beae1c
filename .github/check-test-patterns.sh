#!/usr/bin/env bash
# Checks the test selections of a workflow: every |-alternative of each
# `go test -run` and `-fuzz` pattern must name at least one test, fuzz
# target or benchmark that `go test -list` finds in that command's
# packages. `go test -run X` passes when X matches nothing, so a renamed
# test would otherwise drop out of CI without a trace.
#
#   .github/check-test-patterns.sh [workflow]   (default: .github/workflows/ci.yml)
#
# The patterns `^$` and `xxx` deliberately select no test (fuzz and
# benchmark-only steps) and are skipped. A pattern that holds a group
# "(...)" is checked whole, and only its part before the first "/"
# (subtests are not listed).
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
failed=0

while IFS= read -r line; do
	cmd=${line#*go test }
	read -ra words <<<"$cmd"
	flags=() pkgs=() patterns=()
	for ((i = 0; i < ${#words[@]}; i++)); do
		w=${words[i]}
		case $w in
		-race | -tags=*) flags+=("$w") ;;
		-run | -fuzz)
			p=${words[i + 1]}
			p=${p#\'}
			p=${p%\'}
			patterns+=("$p")
			i=$((i + 1))
			;;
		./*) pkgs+=("$w") ;;
		esac
	done
	[[ ${#pkgs[@]} -gt 0 ]] || pkgs=(.)
	selections=()
	for p in "${patterns[@]}"; do
		case $p in
		'^$' | xxx) continue ;;
		*'('*) selections+=("${p%%/*}") ;;
		*)
			IFS='|' read -ra alts <<<"$p"
			for a in "${alts[@]}"; do selections+=("${a%%/*}"); done
			;;
		esac
	done
	[[ ${#selections[@]} -gt 0 ]] || continue
	if ! listed=$(go test "${flags[@]}" -list . "${pkgs[@]}"); then
		echo "go test -list failed for: go test $cmd" >&2
		failed=1
		continue
	fi
	names=$(grep -vE '^(ok|\?|FAIL)[[:space:]]' <<<"$listed" || true)
	for s in "${selections[@]}"; do
		if ! grep -qE -- "$s" <<<"$names"; then
			echo "no test in ${pkgs[*]} matches \"$s\" (from: go test $cmd)" >&2
			failed=1
		fi
	done
done < <(grep -E 'go test .*-(run|fuzz) ' "$workflow")

if [[ $failed -ne 0 ]]; then
	exit 1
fi
echo "every -run and -fuzz alternative in $workflow names a test"
