#!/usr/bin/env bash
# Builds the benchmark from the sources in the current checkout and runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload sessions --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout: the Go build cache, the binary, the stores and the span files
# of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
data="$out/perfbench-data"
mkdir -p "$data"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off GOPROXY=off
# The go command keeps telemetry counters under the user's home; point it
# into the build directory.
HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" go -C "$root/perfbench" build -o "$out/perfbench" .
bench=("$out/perfbench" -data "$data" -spans "$out/perfbench-spans" "$@")

# The stores live on a tmpfs mounted over the data directory in a mount
# namespace of this run's own, which disappears with the run. There an
# fsync costs only the system call; on a shared disk it costs a device
# flush whose latency drifts with other tenants by a factor of two
# between identical runs. Without the privilege to mount, the stores stay
# on the disk. The result records the medium either way.
if unshare -m --propagation private true 2>/dev/null; then
	exec unshare -m --propagation private sh -c 'mount -t tmpfs -o size=2g perfbench "$0" 2>/dev/null || true; exec "$@"' "$data" "${bench[@]}"
fi
exec "${bench[@]}"
