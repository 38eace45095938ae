#!/usr/bin/env bash
# `go test -run 'A|B'` exits 0 when A or B matches no test at all, so a
# renamed or deleted test silently drops out of CI. This check reads every
# `go test ... -run <pattern> <packages>` line of the workflow and fails
# if any |-alternative of a pattern matches zero tests, fuzz targets,
# benchmarks or examples in the packages that line runs against.
# (Alternatives are split on a bare `|`; the workflow's patterns use no
# groups. `-run '^$'`, the run-nothing idiom of the bench smoke, is
# skipped.) It also fails if a test outside bench/ is armed by a BENCH_*
# environment variable, the other way a check drops out of `go test ./...`.
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
status=0
while IFS= read -r line; do
	pattern=$(sed -E "s/.*[[:space:]]-run[[:space:]=]+('([^']*)'|\"([^\"]*)\"|([^[:space:]]+)).*/\2\3\4/" <<<"$line")
	if [ "$pattern" = '^$' ]; then
		continue
	fi
	pkgs=()
	for word in $line; do
		case $word in
		. | ./*) pkgs+=("$word") ;;
		esac
	done
	if [ ${#pkgs[@]} -eq 0 ]; then
		echo "cannot find the packages of: $line" >&2
		status=1
		continue
	fi
	IFS='|' read -r -a alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		listed=$(go test -list "$alt" "${pkgs[@]}")
		if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
			echo "-run alternative '$alt' matches nothing in ${pkgs[*]} (from: ${line#"${line%%[![:space:]]*}"})" >&2
			status=1
		fi
	done
done < <(grep -E 'go test.*[[:space:]]-run[[:space:]=]' "$workflow")

# pxbench (bench/) is the only performance instrument. A test elsewhere
# that reads a BENCH_* environment variable is an env-armed gate, which
# plain `go test ./...` would skip: refuse it.
if grep -rnE --include='*_test.go' --exclude-dir=bench '[Ee]nv\("BENCH_' .; then
	echo "a _test.go outside bench/ reads a BENCH_* environment variable (see above)" >&2
	status=1
fi
exit $status
