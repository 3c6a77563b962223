#!/usr/bin/env sh
# Vendor check: every stub under crates/vendor/ must be a dependency of
# some workspace crate. A stub nothing depends on still builds and runs
# its tests under `cargo test -q`, so it is dead code nobody notices —
# the `crossbeam` stand-in lived that way until PR 25 deleted it.
#
# Reads the dependency lists of the root Cargo.lock, which cargo keeps in
# step with every manifest (dev-dependencies included): a package that
# appears in no `dependencies = [...]` list is depended on by nobody.

set -u
cd "$(dirname "$0")/.."

fail=0
for manifest in crates/vendor/*/Cargo.toml; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$manifest" | head -n 1)
    if ! grep -Eq "^ \"$name( [^\"]*)?\",?\$" Cargo.lock; then
        echo "vendor_check: $name ($manifest) is not a dependency of any workspace crate" >&2
        fail=1
    fi
done
exit "$fail"
