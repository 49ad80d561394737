// Command chkpt-store serves a durable store (internal/store.FileStore)
// over the cluster wire protocol (internal/cluster), so N chkpt-serve
// replicas can share one session log, result store and lease table.
//
// The protocol is framed compact JSON under POST /store/v1/{op} — the
// same CRC-32C frame discipline the store's own files use — plus
// chkpt-serve's operational surface, from the same code (internal/obs):
// GET /healthz, GET /v1/debug/traces (spans tagged with the calling
// replica's X-Request-ID, which makes one logical request traceable
// across both processes) and GET /metrics: per-op RPC counters, the
// store's counters, request counts and latency by route, and the stage
// histograms of the work done here, chkpt_store_fsync_seconds (the
// checkpoint cost C) and chkpt_store_replay_seconds (recovery cost R).
//
// Examples:
//
//	chkpt-store -data-dir /var/lib/chkpt              # 127.0.0.1:8484
//	chkpt-store -addr :8484 -data-dir /var/lib/chkpt -log-format json
//	chkpt-serve -store http://127.0.0.1:8484          # a replica mounts it
//
// SIGINT/SIGTERM drains gracefully: in-flight RPCs get the -drain
// window to finish, then the store is closed (every acknowledged
// record is already fsynced, so a kill -9 loses nothing either).
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/store"
)

const tool = "chkpt-store"

func main() {
	addr := flag.String("addr", "127.0.0.1:8484", "listen address")
	dataDir := flag.String("data-dir", "", "durable store directory (required)")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	drain := flag.Duration("drain", 15*time.Second, "graceful drain window on SIGINT/SIGTERM")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	version := cliutil.BuildVersion()
	if *showVersion {
		fmt.Printf("%s %s %s\n", tool, version, runtime.Version())
		return
	}
	switch {
	case *addr == "":
		cliutil.Fatal(tool, fmt.Errorf("-addr must not be empty"))
	case *dataDir == "":
		cliutil.Fatal(tool, fmt.Errorf("-data-dir is required: a store server exists to own durable state"))
	case *logFormat != "text" && *logFormat != "json":
		cliutil.Fatal(tool, fmt.Errorf("-log-format must be text or json, got %q", *logFormat))
	case *drain <= 0:
		cliutil.Fatal(tool, fmt.Errorf("-drain must be > 0, got %v", *drain))
	}

	logger := cliutil.Logger(*logFormat)

	fst, err := store.Open(*dataDir, store.Options{})
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	defer fst.Close()

	sv := cluster.NewStoreServer(cluster.ServerConfig{
		Backend: fst,
		Logger:  logger,
		Version: version,
	})
	if err := cliutil.Serve(*addr, sv.Handler(), *drain, logger, "dir", *dataDir); err != nil {
		cliutil.Fatal(tool, err)
	}
}
