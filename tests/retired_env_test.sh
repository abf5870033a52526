#!/bin/sh
# Retired environment overrides must be inert: setting them to invalid
# values must neither fail a run nor change a byte of its output.
#
#  - The per-layer backend switches GT_INTERP, GT_EXEC, GT_FEATURES,
#    GT_MEMTRACE, GT_KMEANS, GT_DETAILED and GT_TRACEDB: each layer
#    has one production path.
#  - The service lifecycle overrides GT_SERVE_MAX_SESSIONS,
#    GT_SERVE_MAX_BYTES, GT_SERVE_EVICT and GT_SERVE_ARCHIVE_DIR: the
#    budgets and the archive directory are ServiceConfig fields only.
#    Checked on a GT_SERVE=2 quickstart run, which drives the service.
#
# Usage: retired_env_test.sh <quickstart binary>
set -eu
bin=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# check <tag> <variables...>: run quickstart cb-gaussian-image with the
# variables unset, then set to "bogus", and compare stdout.
check() {
    tag=$1
    shift
    unset_args=""
    bogus_args=""
    for v in "$@"; do
        unset_args="$unset_args -u $v"
        bogus_args="$bogus_args $v=bogus"
    done
    # shellcheck disable=SC2086
    env $unset_args "$bin" cb-gaussian-image > "$tmp/$tag.unset.out"
    # shellcheck disable=SC2086
    env $unset_args $bogus_args "$bin" cb-gaussian-image \
        > "$tmp/$tag.bogus.out"
    cmp "$tmp/$tag.unset.out" "$tmp/$tag.bogus.out"
}

unset GT_SERVE
check backends GT_INTERP GT_EXEC GT_FEATURES GT_MEMTRACE GT_KMEANS \
    GT_DETAILED GT_TRACEDB
GT_SERVE=2
export GT_SERVE
check serve GT_SERVE_MAX_SESSIONS GT_SERVE_MAX_BYTES GT_SERVE_EVICT \
    GT_SERVE_ARCHIVE_DIR
