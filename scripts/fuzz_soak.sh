#!/usr/bin/env bash
# Bounded coverage-guided fuzz soak (a verify.sh tier).
#
# Three gates, all seed- and iteration-capped so the whole tier runs in
# seconds and behaves identically on every machine:
#
#  1. Determinism: two campaigns with the same seed must produce
#     byte-identical output (everything runs on the virtual clock from
#     one seeded RNG).
#  2. Coverage: the campaign must reach strictly more distinct coverage
#     points than replaying the scripted seed corpus alone — the printed
#     summary shows both — and must find no violations (any reproducer it
#     prints is a real differential/oracle bug).
#  3. Negative self-test: with a deliberately planted reference-model bug
#     the campaign must catch it within the same budget and the shrinker
#     must reduce the seeded known-bad script to the exact committed
#     fixture (tests/repro/selftest_truncate_extend.repro), proving the
#     whole find-shrink-commit pipeline still bites.
#
# Usage: scripts/fuzz_soak.sh [--offline] [seed] [iters]
set -euo pipefail
cd "$(dirname "$0")/.."

OFFLINE=""
if [[ "${1:-}" == "--offline" ]]; then
    OFFLINE="--offline"
    shift
fi
SEED="${1:-61455}" # 0xF00F
ITERS="${2:-48}"

cargo build --release $OFFLINE --example fuzz_fs

# Cargo puts the example under $CARGO_TARGET_DIR when that is set.
run_fuzz() {
    "${CARGO_TARGET_DIR:-target}/release/examples/fuzz_fs" "$@"
}

tmpdir=$(mktemp -d -t fuzz_soak.XXXXXX)
trap 'rm -rf "$tmpdir"' EXIT

echo "fuzz_soak: campaign 1/2 (seed $SEED, $ITERS iters)"
run_fuzz --seed "$SEED" --iters "$ITERS" | tee "$tmpdir/run1.txt"
echo "fuzz_soak: campaign 2/2 (determinism check)"
run_fuzz --seed "$SEED" --iters "$ITERS" >"$tmpdir/run2.txt"
if ! diff -u "$tmpdir/run1.txt" "$tmpdir/run2.txt"; then
    echo "fuzz_soak: FAIL — same seed produced different campaigns" >&2
    exit 1
fi
echo "fuzz_soak: byte-identical across runs"

# The example already exits non-zero when coverage does not strictly beat
# the baseline or when a violation is found; make the gate explicit too.
if ! grep -q "^coverage gain: +" "$tmpdir/run1.txt"; then
    echo "fuzz_soak: FAIL — no coverage gain over the scripted baseline" >&2
    exit 1
fi

echo "fuzz_soak: negative self-test (planted model bug)"
# The self-test always runs on the example's default seed: whether a
# random campaign trips the planted truncate bug within the budget
# depends on the seed, and the default is pinned (and regression-tested)
# to catch it. The shrinker fixed-point half is seed-independent.
run_fuzz --iters "$ITERS" --self-test | tee "$tmpdir/selftest.txt"
sed -n '/^--- repro ---$/,/^--- end repro ---$/p' "$tmpdir/selftest.txt" \
    | sed '1d;$d' >"$tmpdir/shrunk.repro"
if ! diff -u tests/repro/selftest_truncate_extend.repro "$tmpdir/shrunk.repro"; then
    echo "fuzz_soak: FAIL — shrunk reproducer differs from the committed fixture" >&2
    exit 1
fi
echo "fuzz_soak: shrunk reproducer matches the committed fixture"
echo "fuzz_soak: OK"
