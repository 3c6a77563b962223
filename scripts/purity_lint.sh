#!/usr/bin/env sh
# Purity lint for the model-checked crates.
#
# The model checker (crates/mc) explores the cluster plane (crates/cluster)
# by cloning states and replaying schedules; both crates must therefore be
# pure functions of their inputs. Two schedules that replay the same events
# must produce bit-identical states — which bans wall clocks, OS
# randomness, environment reads, and hash-iteration order from ever
# entering protocol state.
#
# This is a source lint backing the runtime purity hooks
# (`ClusterControlPlane`'s debug assertions): cheap, runs in CI, and fails
# with the offending lines.

set -u
cd "$(dirname "$0")/.."

fail=0

# Wall clocks, OS randomness, and environment reads: banned outright.
# `Instant` is allowed in bench binaries (they report wall time), never in
# the checked crates.
if out=$(grep -rn \
    -e 'Instant::now' \
    -e 'SystemTime' \
    -e 'thread_rng' \
    -e 'from_entropy' \
    -e 'rand::' \
    -e 'std::env::' \
    crates/cluster/src crates/mc/src); then
    echo "purity_lint: nondeterminism source in a model-checked crate:" >&2
    echo "$out" >&2
    fail=1
fi

# Hash-order hazard: HashMap/HashSet iteration order varies per process
# (SipHash keys are randomized), so neither may appear where iteration
# could leak into protocol state or checker output. The one allowlisted
# use is the checker's visited-fingerprint set, which is membership-only.
if out=$(grep -rn -e 'HashMap' -e 'HashSet' \
    crates/cluster/src crates/mc/src \
    | grep -v '^crates/mc/src/checker\.rs:'); then
    echo "purity_lint: hash-ordered container in a model-checked crate" >&2
    echo "(use BTreeMap/BTreeSet, or membership-only sets in checker.rs):" >&2
    echo "$out" >&2
    fail=1
fi

# Interior mutability: the plane caches a sub-fingerprint per member and
# shares members between clones (plane.rs, `Member`). Both are sound only
# while a `&ClusterNode` cannot write, so no cell, lock or atomic may
# appear in the plane or in the inner controller its members embed. The
# one allowlisted cell is the cache itself, marked on its line.
if out=$(grep -rn \
    -e 'Cell<' \
    -e 'OnceLock<' \
    -e 'LazyLock<' \
    -e 'Mutex<' \
    -e 'RwLock<' \
    -e 'Atomic[A-Z]' \
    crates/cluster/src crates/controller/src \
    | grep -v 'purity_lint: the one allowed cell'); then
    echo "purity_lint: interior mutability behind the plane's member gate" >&2
    echo "(a shared reference to a member must not be able to write):" >&2
    echo "$out" >&2
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "purity_lint: ok (crates/cluster, crates/mc are clock-, rand-, and hash-order-free; members are cell-free)"
fi
exit "$fail"
