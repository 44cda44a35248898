#!/usr/bin/env bash
# byte_identity.sh — byte-compare gum_cli stdout and --save-values of two
# builds over the engine x algorithm x graph matrix: gum and gunrock x
# bfs/sssp/pr/wcc, plus async sssp/astar, on a 128x128 road grid and a
# weighted RMAT scale-14 graph. A change that claims byte-identical output
# (a host-side speedup, a refactor) must pass it against its parent build.
#
# Usage: tools/byte_identity.sh BASE_GUM_CLI NEW_GUM_CLI [OUT_DIR]
# Exits non-zero at the first differing cell, naming it.
set -euo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 BASE_GUM_CLI NEW_GUM_CLI [OUT_DIR]" >&2
  exit 2
fi
base=$1
new=$2
out=${3:-byte-identity}
mkdir -p "$out"

graphs=("road|--gen=road --rows=128 --cols=128"
        "rmat|--gen=rmat --scale=14 --weighted")
cells=()
for graph in "${graphs[@]}"; do
  name=${graph%%|*}
  flags=${graph#*|}
  for engine in gum gunrock; do
    for algo in bfs sssp pr wcc; do
      cells+=("${name}_${engine}_${algo}|$flags --engine=$engine --algo=$algo")
    done
  done
  for algo in sssp astar; do
    cells+=("${name}_async_${algo}|$flags --mode=async --algo=$algo")
  done
done

for cell in "${cells[@]}"; do
  id=${cell%%|*}
  # shellcheck disable=SC2086  # the flag string splits on purpose
  set -- ${cell#*|} --devices=8
  "$base" "$@" --save-values="$out/$id.base.values" > "$out/$id.base.stdout"
  "$new" "$@" --save-values="$out/$id.new.values" > "$out/$id.new.stdout"
  if ! cmp -s "$out/$id.base.stdout" "$out/$id.new.stdout" ||
     ! cmp -s "$out/$id.base.values" "$out/$id.new.values"; then
    echo "byte-identity FAILED: $id ($*)" >&2
    exit 1
  fi
  echo "identical: $id"
done
