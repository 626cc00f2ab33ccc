#!/bin/sh
# Run every command-line example of README.md's "Command line" block.
#
#   scripts/readme_examples.sh SRC OUT
#
# SRC is the directory that holds the wavecrit package (PYTHONPATH), OUT a
# fresh output root.  Example k writes its files into OUT/k, and OUT/commands
# lists the examples in order.  Two runs, of one tree or of two, compare with
#
#   diff -r --exclude=manifest.json OUT1 OUT2
#
# since every file but the timestamped manifest is deterministic.  PYTHON
# names the interpreter (default: python).
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 SRC OUT" >&2
    exit 2
fi
src=$1
out=$2
readme="$(dirname "$0")/../README.md"

mkdir -p "$out/raw"
sed -n '/^## Command line/,/^## /p' "$readme" | grep '^wavecrit ' > "$out/commands"
test -s "$out/commands"
k=0
while read -r line; do
    k=$((k + 1))
    echo "$line"
    # an example's result directory is OUT/raw/k/<command>/<timestamp>; it becomes OUT/k
    # shellcheck disable=SC2086  # the example's words are its arguments
    PYTHONPATH="$src" "${PYTHON:-python}" -W error::RuntimeWarning -m wavecrit.cli \
        ${line#wavecrit } --quiet --out-dir "$out/raw/$k" < /dev/null
    mv "$out/raw/$k"/*/* "$out/$k"
done < "$out/commands"
rm -r "$out/raw"
