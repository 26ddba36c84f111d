#!/usr/bin/env bash
# netlines.sh — prints the repository's non-test Go line count, the
# figure each change reports as its net line delta: every tracked .go
# file, minus _test.go files, minus the perfbench/ benchmark module.
#
# Usage: scripts/netlines.sh [git-rev]
#   git-rev  count the files of that revision instead of the work tree
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -gt 0 ]; then
    git ls-tree -r --name-only "$1" | grep '\.go$' | grep -v '_test\.go$' | grep -v '^perfbench/' |
        while read -r f; do git show "$1:$f"; done | wc -l
else
    git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^perfbench/' | xargs cat | wc -l
fi
