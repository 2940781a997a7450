#!/usr/bin/env bash
# Count non-test source lines: for each .rs file, the lines above its first
# top-level `#[cfg(test)]`, i.e. one at the start of a line (the whole file
# when it has none). An indented `#[cfg(test)]` on an item inside a module
# does not end the count. A directory argument counts every .rs file under
# it. Prints one line per file, then the total over all arguments.
#
# Usage: scripts/nontest_lines.sh <file-or-dir>...
#
#   scripts/nontest_lines.sh crates/serve/src
#   scripts/nontest_lines.sh crates/obs/src/spsc.rs crates/tee/src/lib.rs
set -euo pipefail
if [ "$#" -eq 0 ]; then
  echo "usage: $0 <file-or-dir>..." >&2
  exit 2
fi
for path in "$@"; do
  if [ -d "$path" ]; then
    find "$path" -name '*.rs' -type f | LC_ALL=C sort
  elif [ -f "$path" ]; then
    echo "$path"
  else
    echo "$0: no such file or directory: $path" >&2
    exit 2
  fi
done | while IFS= read -r file; do
  awk -v f="$file" '
    /^#\[cfg\(test\)\]/ { exit }
    { n++ }
    END { printf "%6d %s\n", n, f }
  ' "$file"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
