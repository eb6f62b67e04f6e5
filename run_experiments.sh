#!/bin/bash
# Runs the full experiment campaign at the fast profile (single-core box).
# Tables land in results/logs/<name>.txt, CSVs in results/, and each
# binary's obs event stream in results/logs/<name>.jsonl (the
# qdgnn-obs-validate / qdgnn-obs-flame input format).
cd "$(dirname "$0")" || exit 1
BIN=target/release
mkdir -p results/logs
run() {
  name=$1; bin=$2; shift 2
  start=$SECONDS
  "$BIN/$bin" "$@" --metrics-out results/logs/$name.jsonl \
    > results/logs/$name.txt 2> results/logs/$name.err
  rc=$?
  echo "=== $name done rc=$rc in $((SECONDS-start))s ==="
}
run datasets datasets --profile fast
run fig6   fig6   --profile fast
run fig7a  fig7a  --profile fast
run fig7b  fig7b  --profile fast
run table2 table2 --profile fast
run table3 table3 --profile fast
run fig8a  fig8a  --profile fast
run fig8b  fig8b  --profile fast
run fig10  fig10  --profile fast --datasets FB-414,FB-686
run fig9   fig9   --profile fast --datasets FB-414,FB-686
run table4 table4 --profile fast
echo ALL_DONE
