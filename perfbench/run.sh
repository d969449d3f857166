#!/usr/bin/env bash
# Build the benchmark, and the `manic` CLI it drives, from this checkout's
# source, then run one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The last line of stdout is the JSON result; see perfbench/README.md.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
# Both binaries must land in one directory: the benchmark finds `manic`
# next to itself.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;;
esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p manic-cli
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml"
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
