#!/bin/sh
# The per-layer backend switches GT_INTERP, GT_EXEC, GT_FEATURES,
# GT_MEMTRACE, GT_KMEANS, GT_DETAILED and GT_TRACEDB are retired:
# each layer has one production path. Setting all seven to invalid
# values must neither fail a run nor change a byte of its output.
#
# Usage: retired_env_test.sh <quickstart binary>
set -eu
bin=$1
vars="GT_INTERP GT_EXEC GT_FEATURES GT_MEMTRACE GT_KMEANS GT_DETAILED GT_TRACEDB"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

unset_args=""
bogus_args=""
for v in $vars; do
    unset_args="$unset_args -u $v"
    bogus_args="$bogus_args $v=bogus"
done

# shellcheck disable=SC2086
env $unset_args "$bin" cb-gaussian-image > "$tmp/unset.out"
# shellcheck disable=SC2086
env $unset_args $bogus_args "$bin" cb-gaussian-image > "$tmp/bogus.out"
cmp "$tmp/unset.out" "$tmp/bogus.out"
