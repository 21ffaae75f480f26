#!/usr/bin/env bash
# Reruns every fixed point and writes each output back in place:
#   - every recorded block of EXPERIMENTS.md: a fenced block whose first
#     line is `$ go run …`, the rest of the block being what it printed;
#   - every file in testdata/fixed/: the same format, one command a file;
#   - internal/experiments/testdata/fig7_atomic_golden.txt, which has no
#     command line (bench/ reads its bytes); its command is below.
# Commands run from the repository root. Prints the path of each file
# that changed and exits 1 if any did. To check, run it on a clean tree;
# to move a fixed point, run it and review `git diff`.
#
#   scripts/check_recorded.sh            # from anywhere in the checkout
set -euo pipefail
cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
changed=0

# rerun CMD: runs the recorded command CMD, which must exit 0.
rerun() {
	bash -c "$1" || { echo "failed ($?): $1" >&2; exit 2; }
}

# settle FILE: FILE becomes $tmp/new, and is named if that changed it.
settle() {
	if ! cmp -s "$tmp/new" "$1"; then
		cat "$tmp/new" > "$1"
		echo "$1"
		changed=1
	fi
}

# EXPERIMENTS.md: each block's command, then the file rebuilt with each
# block's body replaced by what its command prints now.
awk -v dir="$tmp" '
/^```/ { inb = !inb; first = inb; next }
inb && first { first = 0; if ($0 ~ /^\$ go run /) print substr($0, 3) > (dir "/" ++n ".cmd") }
' EXPERIMENTS.md
n=0
while [ -e "$tmp/$((n + 1)).cmd" ]; do
	n=$((n + 1))
	rerun "$(cat "$tmp/$n.cmd")" > "$tmp/$n.got"
done
if [ "$n" -eq 0 ]; then
	echo "no recorded block found in EXPERIMENTS.md" >&2
	exit 2
fi
awk -v dir="$tmp" '
/^```/ { inb = !inb; first = inb; rec = 0; print; next }
inb && first {
	first = 0
	print
	if ($0 ~ /^\$ go run /) {
		rec = 1
		got = dir "/" ++n ".got"
		while ((getline line < got) > 0) print line
		close(got)
	}
	next
}
!rec { print }
' EXPERIMENTS.md > "$tmp/new"
settle EXPERIMENTS.md

for f in testdata/fixed/*.txt; do
	head -n 1 "$f" > "$tmp/new"
	rerun "$(head -n 1 "$f" | cut -c 3-)" >> "$tmp/new"
	settle "$f"
done

rerun "go run ./cmd/experiments -fig7 -scale 1 -seeds 1" > "$tmp/new"
settle internal/experiments/testdata/fig7_atomic_golden.txt

exit "$changed"
