#!/usr/bin/env bash
# Runs each named experiment binary in full mode and diffs its stdout against
# the matching "==== <bin> ====" block of experiments_output.txt. Exits
# non-zero on the first difference, printing it as a unified diff.
#
#   scripts/check_experiments_output.sh fig2 remount_ablation bug_detection
set -euo pipefail
cd "$(dirname "$0")/.."
[ "$#" -gt 0 ] || { echo "usage: $0 <bin>..." >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for b in "$@"; do
  awk -v head="==== $b ====" '
    $0 == head { on = 1; next }
    /^==== .* ====$/ { on = 0 }
    on' experiments_output.txt > "$tmp/$b.expected"
  [ -s "$tmp/$b.expected" ] || { echo "no '$b' block in experiments_output.txt" >&2; exit 1; }
  cargo run --release --quiet -p mcfs-bench --bin "$b" > "$tmp/$b.actual"
  diff -u "$tmp/$b.expected" "$tmp/$b.actual"
  echo "$b: matches experiments_output.txt"
done
