#!/usr/bin/env bash
# README's performance tables, printed from the committed BENCH_*.json
# files (ROADMAP housekeeping: generated, not hand-copied).
#
#   bash scripts/bench_tables.sh [repo-root]
#
# Prints two markdown tables — the batched tier (BENCH_batched.json) and
# the two wide adaptive cases (BENCH_adaptive_tau.json). After
# regenerating a BENCH file, paste the matching table over the one in
# README.md.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# One `key=value` record per result row: strips the JSON punctuation so
# awk can read fields by name.
rows() {
    grep '"model"' "$1" | sed -e 's/[{}"]//g' -e 's/: /=/g' -e 's/, /;/g' -e 's/,$//' -e 's/^ *//'
}

echo "<!-- BENCH_batched.json -->"
echo "| model | scalar (fires/s) | batch w8 | w32 | w64 | w8 / w32 / w64 ratio |"
echo "|---|---|---|---|---|---|"
rows BENCH_batched.json | awk -F';' '
    {
        delete f
        for (i = 1; i <= NF; i++) { split($i, kv, "="); f[kv[1]] = kv[2] }
        key = (f["mode"] == "scalar") ? "s" : f["width"]
        rate[f["model"], key] = f["steps_per_sec"]
        if (!(f["model"] in seen)) { seen[f["model"]] = 1; order[++n] = f["model"] }
    }
    END {
        for (k = 1; k <= n; k++) {
            m = order[k]; s = rate[m, "s"]
            printf "| `%s` | %.1fM | %.1fM | %.1fM | %.1fM | %.2fx / %.2fx / %.2fx |\n", m,
                s / 1e6, rate[m, 8] / 1e6, rate[m, 32] / 1e6, rate[m, 64] / 1e6,
                rate[m, 8] / s, rate[m, 32] / s, rate[m, 64] / s
        }
    }'

echo
echo "<!-- BENCH_adaptive_tau.json -->"
echo "| case | ssa (fires/s) | adaptive-0.05 | full-recompute replica | hybrid | adaptive vs ssa | vs replica |"
echo "|---|---|---|---|---|---|---|"
rows BENCH_adaptive_tau.json | awk -F';' '
    {
        delete f
        for (i = 1; i <= NF; i++) { split($i, kv, "="); f[kv[1]] = kv[2] }
        rate[f["model"], f["engine"]] = f["firings_per_sec"]
    }
    END {
        n = split("wide_flat_cycle wide_flat_cycle_crit", cases, " ")
        for (k = 1; k <= n; k++) {
            m = cases[k]
            s = rate[m, "ssa"]; a = rate[m, "adaptive-0.05"]
            r = rate[m, "adaptive-0.05-fullrecompute"]; h = rate[m, "hybrid"]
            printf "| `%s` | %.1fM | %.1fM | %.2fM | %.1fM | %.2fx | %.1fx |\n", m,
                s / 1e6, a / 1e6, r / 1e6, h / 1e6, a / s, a / r
        }
    }'
