#!/usr/bin/env bash
# Net line counts of the Rust sources between a revision and the working
# tree.
#
#   scripts/net_lines.sh PARENT_REV
#
# Prints, per crate, the non-test and in-file test lines of its
# `crates/<crate>/src` files at PARENT_REV and in the working tree, with
# the change. Every line of a source file before its first `#[cfg(test)]`
# is non-test; that line and the rest of the file are in-file tests. Then
# it prints the lines of the integration tests (`crates/*/tests` and
# `tests/`, all of them test code), and the totals. The working tree
# counts tracked and untracked files that git does not ignore.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 PARENT_REV" >&2
    exit 2
fi
root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$1^{commit}")
cd "$root"

# "SIDE GROUP NONTEST TEST" for every Rust source in the paths read from
# stdin, each file's text printed by the command in "$2".
tally() {
    local side=$1 show=$2 path group
    while read -r path; do
        case $path in
            crates/*/src/*.rs) group=${path#crates/} group=${group%%/*} ;;
            crates/*/tests/*.rs | tests/*.rs) group="integration tests" ;;
            *) continue ;;
        esac
        $show "$path" | awk -v side="$side" -v group="$group" '
            /#\[cfg\(test\)\]/ { test = 1 }
            { if (test) t++; else n++ }
            END { printf "%s\t%s\t%d\t%d\n", side, group, n, t }'
    done
}

show_rev() { git show "$rev:$1"; }
show_tree() { cat "$1"; }

{
    git ls-tree -r --name-only "$rev" -- crates tests | tally parent show_rev
    git ls-files --cached --others --exclude-standard -- crates tests |
        while read -r path; do [ -f "$path" ] && echo "$path"; done | tally tree show_tree
} | awk -F '\t' -v rev="$1" '
    {
        n[$1, $2] += $3; t[$1, $2] += $4
        if (!($2 in seen)) { seen[$2] = 1; groups[++count] = $2 }
    }
    function row(label, pn, tn, pt, tt) {
        printf "%-20s %8d %8d %+7d %10d %8d %+7d\n", label, pn, tn, tn - pn, pt, tt, tt - pt
    }
    END {
        printf "%-20s %25s %27s\n", "lines at " rev " ->", "non-test", "in-file tests"
        printf "%-20s %8s %8s %7s %10s %8s %7s\n", "crate", "parent", "tree", "change", "parent", "tree", "change"
        # Crates in name order, then the integration tests.
        for (i = 1; i <= count; i++) for (j = i + 1; j <= count; j++)
            if (groups[j] < groups[i]) { g = groups[i]; groups[i] = groups[j]; groups[j] = g }
        for (i = 1; i <= count; i++) {
            g = groups[i]
            if (g == "integration tests") continue
            row(g, n["parent", g], n["tree", g], t["parent", g], t["tree", g])
            pn += n["parent", g]; tn += n["tree", g]; pt += t["parent", g]; tt += t["tree", g]
        }
        row("crates/*/src", pn, tn, pt, tt)
        g = "integration tests"
        pt = n["parent", g] + t["parent", g]; tt = n["tree", g] + t["tree", g]
        printf "%-20s %8s %8s %7s %10d %8d %+7d\n", g, "-", "-", "-", pt, tt, tt - pt
    }'
