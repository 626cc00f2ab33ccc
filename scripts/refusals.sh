#!/bin/sh
# Render README.md's table of refused command lines.
#
#   scripts/refusals.sh [SRC]
#
# Runs each command line of the list below with the wavecrit package in SRC
# (PYTHONPATH, default: src) and writes one Markdown row per line: the command,
# its exit code and the stderr line that holds "error:" (a dash when there is
# none, as for a check that fails and writes its report).  The rows replace
# everything between the lines <!-- refusals:begin --> and <!-- refusals:end -->
# of README.md.  Every run writes into a temporary output root, which is
# removed.  PYTHON names the interpreter (default: python).
#
# argparse words its usage errors differently across Python versions, so a
# table rendered by one version may differ from another's.  A refusal whose
# message depends on the machine (physical memory) has no row.
set -eu

if [ "$#" -gt 1 ]; then
    echo "usage: $0 [SRC]" >&2
    exit 2
fi
src=${1:-src}
readme="$(dirname "$0")/../README.md"
begin='<!-- refusals:begin -->'
end='<!-- refusals:end -->'
grep -qx "$begin" "$readme" && grep -qx "$end" "$readme" || {
    echo "$readme has no $begin ... $end block" >&2
    exit 1
}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

{
    echo '| Command line | Exit | Message |'
    echo '| --- | --- | --- |'
    set -f  # the commands' words are their arguments, never globs
    while read -r line; do
        [ -n "$line" ] || continue
        code=0
        # shellcheck disable=SC2086  # the command's words are its arguments
        PYTHONPATH="$src" "${PYTHON:-python}" -W error::RuntimeWarning -m wavecrit.cli \
            ${line#wavecrit } --quiet --out-dir "$tmp/out" < /dev/null > /dev/null 2> "$tmp/err" ||
            code=$?
        message=$(grep -m 1 'error:' "$tmp/err" || true)
        # a | inside a cell would end it
        printf '| `%s` | %s | %s |\n' "$line" "$code" \
            "$(if [ -n "$message" ]; then printf '`%s`' "$message" | sed 's/|/\\|/g'; else echo '-'; fi)"
    done <<'EOF'
wavecrit exponents --n 0
wavecrit mu check --family powerlaw --cl 3
wavecrit mu check --family logpower --gamma nan
wavecrit mu check --family iterlog --gamma inf
wavecrit mu check --family doublelog --gamma -0.5
wavecrit mu check --family doublelog --gamma -1e300
wavecrit mu check --family doublelog --gamma=-1e300
wavecrit mu check --family iterlog --gamma 1 --k 5
wavecrit mu check --family triplelog --gamma -0.5 --k 3
wavecrit mu check --family doublelog --tau0 0.5
wavecrit mu check --family logpower --gamma 10000 --tau0 0.5
wavecrit mu check --family logpower --gamma 1e300
wavecrit mu check --family iterlog --gamma 1e300
wavecrit mu check --family powerlaw --n 1
wavecrit lemmas verify --which ball-integral --n 2 --lambda0 5
wavecrit lemmas verify --which kernel-bounds --n 3 --lambda0 nan
wavecrit lemmas verify --which kernel-bounds --n 3 --lambda0 1e300
wavecrit sequences --n 3 --J -1
wavecrit sequences --n 3 --J 803
wavecrit onset --family iterlog --gamma 1 --n 4
wavecrit onset --family powerlaw --tmax nan
wavecrit onset --family powerlaw --c6 -1
wavecrit onset --family powerlaw --c7 0
wavecrit onset --family iterlog --gamma 2
wavecrit onset --family powerlaw --tmax 1e250
wavecrit solve --family logpower --gamma 0.2 --cl 10 --eps nan --h 0.05 --horizon 2
wavecrit solve --family powerlaw --eps 1 --h 0.05 --horizon inf
wavecrit solve --family powerlaw --eps 0.01 --h 1e-300 --horizon 1e300
wavecrit solve --family logpower --gamma 0.2 --cl 10 --eps 1 --h 0.05 --horizon 2 --cap -1
wavecrit solve --family iterlog --gamma 1 --eps 1 --h 0.05 --horizon 2
wavecrit solve --family logpower --gamma 0.2 --cl 10 --tau0 0.9 --eps 1 --h 0.05 --horizon 2
wavecrit lifespan --family logpower --gamma 0.2 --cl 10 --eps-list 2,x
wavecrit lifespan --family logpower --gamma 0.2 --cl 10 --eps-list 2 --h nan
wavecrit lifespan --family powerlaw --eps-list 2 --horizon 0.001
wavecrit lifespan --family logpower --gamma 0.2 --cl 10 --eps-list 2,3 --h 0.1 --horizon 2
wavecrit verify-global --family logpower --gamma 0.2 --cl 10 --horizon 2 --cap 0
wavecrit verify-global --family logpower --gamma 0.2 --cl 10 --horizon 2 --h 0.1
wavecrit verify-global --family powerlaw --horizon 2 --eps0 1.5
wavecrit verify-global --family logpower --gamma 0.2 --cl 10 --horizon 5
wavecrit key-integral --family powerlaw --xi-list nan,100
wavecrit key-integral --family iterlog --gamma=1e300 --tau0=0.1 --xi-list 10,100
wavecrit key-integral --family logpower --gamma 2 --cl 5e-324 --xi-list 10
wavecrit key-integral --family logpower --gamma 0.3 --cl 5e-324 --xi-list 1e-12
EOF
} > "$tmp/table"

awk -v table="$tmp/table" -v begin="$begin" -v end="$end" '
    $0 == end { while ((getline row < table) > 0) print row; skip = 0 }
    !skip { print }
    $0 == begin { skip = 1 }
' "$readme" > "$tmp/README.md"
cat "$tmp/README.md" > "$readme"
