#!/usr/bin/env sh
# Non-test Rust lines and panic sites per crate. Run from the repository
# root. A file's non-test lines are those before its first `#[cfg(test)]`;
# only `src/` trees count, so benches, integration tests and examples do
# not. Panic sites are the `.unwrap()`, `.expect(`, `panic!`, `assert!` and
# `unreachable!` occurrences on those lines.
set -eu

count() {
    # $1: crate label, $2: src directory
    find "$2" -name '*.rs' -type f | sort | xargs awk -v label="$1" '
        FNR == 1 { live = 1 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { live = 0 }
        live {
            lines++
            line = $0
            sites += gsub(/\.unwrap\(\)|\.expect\(|(^|[^_[:alnum:]])(panic|assert|unreachable)!/, "", line)
        }
        END { printf "%-16s %7d %6d\n", label, lines, sites }
    '
}

rows=$(
    for dir in crates/*/ shims/*/; do
        [ -d "${dir}src" ] && count "$(basename "$dir")" "${dir}src"
    done
    count phpf src
)
printf "%-16s %7s %6s\n" crate lines panics
echo "$rows"
echo "$rows" | awk '{ l += $2; s += $3 } END { printf "%-16s %7d %6d\n", "total", l, s }'
