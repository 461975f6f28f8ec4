#!/bin/sh
# Formatting, lints and tests for the benchmark crate alone (offline; the
# root workspace does not list this crate, so its own checks never see it).
set -eu
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
