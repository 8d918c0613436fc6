#!/usr/bin/env bash
# README's performance tables, printed from the committed BENCH_*.json
# files (ROADMAP housekeeping: generated, not hand-copied).
#
#   bash scripts/bench_tables.sh [repo-root]
#
# Prints two markdown tables — the exact tier's step throughput
# (BENCH_ssa_step.json) and the two wide adaptive cases
# (BENCH_adaptive_tau.json). After
# regenerating a BENCH file, paste the matching table over the one in
# README.md.
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"

# One `key=value` record per result row: strips the JSON punctuation so
# awk can read fields by name.
rows() {
    grep '"model"' "$1" | sed -e 's/[{}"]//g' -e 's/: /=/g' -e 's/, /;/g' -e 's/,$//' -e 's/^ *//'
}

# The run header of a BENCH file, when it has one, as one sentence.
header() {
    grep '"header"' "$1" | sed -e 's/.*"header": {//' -e 's/},*$//' -e 's/"//g' | awk -F', ' '
        {
            for (i = 1; i <= NF; i++) { split($i, kv, ": "); f[kv[1]] = kv[2] }
            printf "Run header: %s (%s logical CPUs), %s kernels, commit `%s`, calibration spin %s ms at start / %s ms at end.\n",
                f["cpu"], f["logical_cpus"], f["kernel"], f["commit"],
                f["calibration_start_ms"], f["calibration_end_ms"]
        }'
}

echo "<!-- BENCH_ssa_step.json -->"
echo "| model | engine | incremental (steps/s) | full re-enumeration | ratio |"
echo "|---|---|---|---|---|"
rows BENCH_ssa_step.json | awk -F';' '
    {
        delete f
        for (i = 1; i <= NF; i++) { split($i, kv, "="); f[kv[1]] = kv[2] }
        key = f["model"] SUBSEP f["engine"]
        rate[key, f["mode"]] = f["steps_per_sec"]
        if (f["mode"] == "full_reenum") { order[++n] = key }
    }
    END {
        for (k = 1; k <= n; k++) {
            split(order[k], me, SUBSEP)
            i = rate[order[k], "incremental"]; r = rate[order[k], "full_reenum"]
            printf "| `%s` | %s | %.1fM | %.1fM | %.2fx |\n", me[1], me[2], i / 1e6, r / 1e6, i / r
        }
    }'
echo
header BENCH_ssa_step.json

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
echo
header BENCH_adaptive_tau.json
