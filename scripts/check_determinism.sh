#!/bin/sh
# Determinism gate for the seeded experiments.
#
#   scripts/check_determinism.sh OUT_DIR ID...
#
# For each experiment id, runs `centaur exp ID --quick --seed 42` on one
# domain, on four domains, and once more on four domains, keeping stdout
# in OUT_DIR/ID.d1.txt, ID.d4.txt and ID.d4-rerun.txt. Fails unless the
# three are byte-identical for every id. Wall-clock timings go to
# stderr, which is shown but not compared.
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 OUT_DIR ID..." >&2
  exit 2
fi
out=$1
shift
mkdir -p "$out"
dune build bin/main.exe
exe=_build/default/bin/main.exe

status=0
for id in "$@"; do
  for run in d1:1 d4:4 d4-rerun:4; do
    CENTAUR_DOMAINS=${run#*:} "$exe" exp "$id" --quick --seed 42 \
      > "$out/$id.${run%%:*}.txt"
  done
  if diff "$out/$id.d1.txt" "$out/$id.d4.txt" \
    && diff "$out/$id.d4.txt" "$out/$id.d4-rerun.txt"; then
    echo "determinism: $id ok"
  else
    echo "determinism: $id differs across runs" >&2
    status=1
  fi
done
exit "$status"
