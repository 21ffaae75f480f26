#!/usr/bin/env bash
# Regenerates every recorded block of EXPERIMENTS.md — a fenced block
# whose first line is `$ go run …` — by running that command from the
# repository root, and diffs what it prints against the rest of the
# block. Exits non-zero on the first block that differs.
#
#   scripts/check_recorded.sh            # from anywhere in the checkout
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

awk -v dir="$tmp" '
/^```/ { if (inb) { inb = 0; out = "" } else { inb = 1; first = 1 }; next }
inb && first {
	first = 0
	if ($0 ~ /^\$ go run /) {
		n++
		out = dir "/" n ".want"
		print substr($0, 3) > (dir "/" n ".cmd")
		printf "" > out
	}
	next
}
inb && out != "" { print > out }
' EXPERIMENTS.md

found=0
for cmd in "$tmp"/*.cmd; do
	[ -e "$cmd" ] || continue
	found=$((found + 1))
	n=${cmd%.cmd}
	echo "== $(cat "$cmd")"
	bash -c "$(cat "$cmd")" > "$n.got"
	diff -u "$n.want" "$n.got"
done
if [ "$found" -eq 0 ]; then
	echo "no recorded block found in EXPERIMENTS.md" >&2
	exit 1
fi
echo "$found recorded blocks regenerate byte for byte"
