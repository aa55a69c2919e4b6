#!/usr/bin/env bash
# check_tables.sh [DOC] — regenerate the full E1–E14 tables and fail
# unless the output appears verbatim in DOC (default EXPERIMENTS.md).
#
# This is the byte-determinism invariant end to end: the seed-42,
# 3-repeat table output must match the committed tables exactly. A
# change that moves a cell on purpose updates EXPERIMENTS.md in the
# same commit.
set -euo pipefail

DOC="${1:-EXPERIMENTS.md}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

go run ./cmd/benchtab -seed 42 -repeats 3 -format table > "$TMP/tables.txt"

if [ ! -s "$TMP/tables.txt" ]; then
  echo "check_tables: benchtab produced no output" >&2
  exit 1
fi

# Whole-output substring match (not line by line), so every table, row
# order and separator must agree. Command substitution drops trailing
# newlines on both sides, which keeps the fence after the block from
# mattering.
out="$(cat "$TMP/tables.txt")"
doc="$(cat "$DOC")"
if [[ "$doc" != *"$out"* ]]; then
  echo "check_tables: benchtab -seed 42 -repeats 3 -format table output differs from $DOC" >&2
  # Show the first differing lines against the doc's fenced tables.
  awk '/^## Tables/{t=1;next} t&&/^```/{if(in_block){exit};in_block=1;next} in_block' "$DOC" > "$TMP/doc_tables.txt"
  diff "$TMP/doc_tables.txt" "$TMP/tables.txt" | head -40 >&2 || true
  exit 1
fi
echo "check_tables: output ($(wc -l < "$TMP/tables.txt") lines) appears verbatim in $DOC"
