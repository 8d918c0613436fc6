#!/usr/bin/env bash
# The `pipeline` benchmark's one command.
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out <file.jsonl>]
#   run.sh compare <a.jsonl> <b.jsonl>
#   run.sh manifest            # prints BENCHMARK.json
#   run.sh test                # the package's unit + smoke tests
#
# Builds the root worker binaries and the bench binaries into ONE target
# directory ($CARGO_TARGET_DIR, default <repo>/target) so `cwc-shard` and
# `cwc-workerd` sit next to the bench executables, where
# `ProcessTransport::new()` and the harness look for them. The two bench
# binaries are built separately: `pipeline-trace` names layer-internal
# items, and its build breaking after a layer-API change must not take the
# gated `pipeline-bench` numbers down with it.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
cd "$root"

target=${CARGO_TARGET_DIR:-$root/target}
case $target in /*) ;; *) target=$root/$target ;; esac
export CARGO_TARGET_DIR=$target

# Cargo's progress goes to stderr; stdout is reserved for the result.
build_root_bins() {
    cargo build --release --offline --manifest-path "$root/Cargo.toml" \
        --bin cwc-shard --bin cwc-workerd 1>&2
}
build_bench_bin() {
    cargo build --release --offline --manifest-path "$here/Cargo.toml" --bin "$1" 1>&2
}

if [[ ${1:-} == test ]]; then
    build_root_bins
    exec cargo test --release --offline --manifest-path "$here/Cargo.toml" 1>&2
fi

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ ${args[i]} == --trace ]]; then trace=${args[i + 1]:-}; fi
done

build_root_bins
case $trace in
0) bin=pipeline-bench ;;
1) bin=pipeline-trace ;;
*)
    echo "run.sh: --trace takes 0 or 1, got '$trace'" >&2
    exit 2
    ;;
esac
if ! build_bench_bin "$bin"; then
    if [[ $bin == pipeline-trace ]]; then
        # Stated, not skipped: the per-layer record of this run is missing
        # because the traced build is broken, not because it measured 0.
        echo '{"layers": null, "trace_status": "build_failed"}' >&2
    fi
    exit 1
fi
exec "$target/release/$bin" "$@"
