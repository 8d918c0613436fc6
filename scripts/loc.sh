#!/usr/bin/env bash
# Rust line counts for the "report net LOC in every PR" rule (ROADMAP).
#
#   bash scripts/loc.sh [repo-root]
#
# Four buckets, physical lines, target/ excluded:
#   product     crates/, src/, examples/ — up to each file's test module
#   test        tests/ trees, plus every `#[cfg(test)] mod …` tail (the
#               repo's convention: the test module closes the file)
#   benchmarks  benchmarks/
#   vendor      vendor/ — the offline stand-ins for external crates, code
#               we own; printed on its own line and kept out of `total`
#               so totals stay comparable with readings taken before the
#               line existed
# Run it on the parent checkout and on the change; the PR's net is the
# difference of the totals (plus the vendor line's). Code moved from product into a test module
# shows up as product − / test +, never as a removal.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

find . -name '*.rs' \
    -not -path '*/target/*' -not -path './.bench_build/*' \
    -print0 | sort -z | xargs -0 awk '
    FNR == 1 {
        in_test = 0; cfg = 0
        if (FILENAME ~ /^\.\/benchmarks\//) bucket = "benchmarks"
        else if (FILENAME ~ /^\.\/vendor\//) bucket = "vendor"
        else if (FILENAME ~ /\/tests\//) bucket = "test"
        else bucket = "product"
    }
    {
        if (bucket == "product" && !in_test && cfg && $0 ~ /^mod /) {
            # the `#[cfg(test)]` line above belongs to the test module too
            in_test = 1; n["product"]--; n["test"]++
        }
        cfg = ($0 == "#[cfg(test)]")
        n[(bucket == "product" && in_test) ? "test" : bucket]++
    }
    END {
        total = n["product"] + n["test"] + n["benchmarks"]
        printf "product     %6d\n", n["product"]
        printf "test        %6d\n", n["test"]
        printf "benchmarks  %6d\n", n["benchmarks"]
        printf "vendor      %6d\n", n["vendor"]
        printf "total       %6d\n", total
    }'
