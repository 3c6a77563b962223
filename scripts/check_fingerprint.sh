#!/usr/bin/env sh
# Fingerprint check: passes a benchmark run's output through and fails
# unless its `report_fingerprint` line equals the one pinned for the
# workload and seed in scripts/report_fingerprints.txt.
#
#   cargo run --release --offline --manifest-path benchmark/Cargo.toml \
#       -- --workload W [--seed S] --seconds 1 --trace 0 \
#       | sh scripts/check_fingerprint.sh W [S]
#
# The seed defaults to 7, the benchmark's own default. Run it under
# `set -o pipefail` so a failing benchmark fails the pipe too.

set -u
table="$(dirname "$0")/report_fingerprints.txt"
workload=${1:?usage: check_fingerprint.sh <workload> [seed]}
seed=${2:-7}

want=$(awk -v w="$workload" -v s="$seed" '$1 == w && $2 == s { print $3 }' "$table")
if [ -z "$want" ]; then
    echo "check_fingerprint: no pinned fingerprint for $workload at seed $seed in $table" >&2
    exit 1
fi
got=$(tee /dev/stderr | sed -n 's/^report_fingerprint //p')
if [ "$got" != "$want" ]; then
    echo "check_fingerprint: $workload at seed $seed reported ${got:-no fingerprint}, pinned $want" >&2
    exit 1
fi
echo "check_fingerprint: $workload at seed $seed $got matches the pin"
