#!/bin/sh
# Run every benchmark workload for 5 s at each SEED and check its output.
#
#   scripts/benchmark_gate.sh SEED...
#
# A run must report correct: true and fail no larger share of the operations
# it attempts than it does today: lemma-suite's mu checks of iterlog (both
# seeds) and doublelog (seed 0) exit 2, so 2/17 at seed 0 and 1/17 at seed
# 11; nothing else fails.  Each run's last line, its JSON record, is echoed.
# A RuntimeWarning fails the run.  PYTHON names the interpreter (default:
# python3).
set -eu

if [ "$#" -eq 0 ]; then
    echo "usage: $0 SEED..." >&2
    exit 2
fi
run="$(dirname "$0")/../perfbench/run.py"
out=$(mktemp -d)
trap 'rm -r "$out"' EXIT

for seed in "$@"; do
    for workload in lemma-suite global-verify lifespan-sweep; do
        "${PYTHON:-python3}" -W error::RuntimeWarning "$run" --workload "$workload" \
            --seed "$seed" --seconds 5 > "$out/$workload-$seed.out"
        tail -n 1 "$out/$workload-$seed.out"
        case "$workload-$seed" in
            lemma-suite-0) share=2/17 ;;
            lemma-suite-11) share=1/17 ;;
            *) share=0 ;;
        esac
        tail -n 1 "$out/$workload-$seed.out" | "${PYTHON:-python3}" -c '
import json, sys
from fractions import Fraction
r = json.load(sys.stdin)
if r["correct"] is not True or Fraction(r["failed"], r["attempted"]) > Fraction(sys.argv[1]):
    sys.exit("%s: correct=%s, failed %s of %s, more than %s"
             % (sys.argv[2], r["correct"], r["failed"], r["attempted"], sys.argv[1]))
' "$share" "$workload at seed $seed"
    done
done
