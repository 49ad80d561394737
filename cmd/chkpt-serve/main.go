// Command chkpt-serve runs the HTTP evaluation service: the declarative
// experiment layer (-spec documents) behind a network surface, so
// schedulers can query checkpoint-policy recommendations instead of
// reading batch-generated tables.
//
// Endpoints (see internal/service): POST /v1/evaluate, POST /v1/sweep
// (NDJSON streaming), GET /v1/recommend, the online advisor sessions
// (POST /v1/sessions, GET/DELETE /v1/sessions/{id},
// POST /v1/sessions/{id}/events), durable sweep jobs (POST /v1/sweeps,
// GET /v1/sweeps/{id}), GET /v1/registry, GET /healthz, GET /metrics,
// and the in-process span buffer (GET /v1/debug/traces).
//
// With -data-dir the server mounts a durable store (internal/store):
// advisor sessions are journaled and replayed bit-identically after a
// restart, and sweep jobs resume from their persisted cells instead of
// re-running them.
//
// With -store URL the server mounts a remote store served by
// chkpt-store instead (internal/cluster): N replicas share one durable
// state, racing creations resolve through the append-once log, and
// sweep work is claimed lease-by-lease so no cell ever runs twice.
// -replica-id names this replica's claims; leave it empty to mint a
// fleet-unique one.
//
// Examples:
//
//	chkpt-serve                              # 127.0.0.1:8080
//	chkpt-serve -version                     # build info, then exit
//	chkpt-serve -addr :9090 -workers 8 -concurrent 4 -queue 64
//	chkpt-serve -data-dir /var/lib/chkpt     # survive restarts
//	chkpt-serve -log-format json -debug-addr 127.0.0.1:6060  # shippers + pprof
//	curl -s localhost:8080/v1/recommend?platform=petascale\&p=4096\&family=weibull\&shape=0.7
//	curl -s -X POST --data-binary @spec.json localhost:8080/v1/sweep
//	curl -s -X POST --data-binary @session.json localhost:8080/v1/sessions
//
// SIGINT/SIGTERM drains gracefully: in-flight requests get the -drain
// window to finish; new connections are refused immediately.
package main

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"runtime"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/store"
)

const tool = "chkpt-serve"

func main() {
	servef := cliutil.AddServeFlags(flag.CommandLine)
	engf := cliutil.AddEngineFlags(flag.CommandLine)
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	version := cliutil.BuildVersion()
	if *showVersion {
		fmt.Printf("%s %s %s\n", tool, version, runtime.Version())
		return
	}
	if err := servef.Validate(); err != nil {
		cliutil.Fatal(tool, err)
	}
	eng, err := engf.Engine()
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	logger := cliutil.Logger(servef.LogFormat)
	cfg := service.Config{
		Engine:         eng,
		MaxConcurrent:  servef.Concurrent,
		RequestTimeout: servef.RequestTimeout,
		Version:        version,
		Logger:         logger,
	}
	// Flag semantics: -queue 0 means "no waiting queue", which the
	// service config spells as negative (its 0 selects the default).
	if servef.Queue == 0 {
		cfg.QueueDepth = -1
	} else {
		cfg.QueueDepth = servef.Queue
	}
	if servef.RequestTimeout == 0 {
		cfg.RequestTimeout = -1
	}
	// -data-dir mounts the durable store: sessions and sweep jobs survive
	// a restart (even a kill -9 — every acknowledged record is fsynced).
	if servef.DataDir != "" {
		fst, err := store.Open(servef.DataDir, store.Options{})
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		defer fst.Close()
		cfg.Store = fst
		logger.Info("durable store", "dir", servef.DataDir)
	}
	// -store mounts a shared remote store served by chkpt-store: this
	// replica becomes one of N serving the same durable state, claiming
	// sweep work through the store's lease face.
	if servef.StoreURL != "" {
		remote, err := cluster.NewRemote(cluster.RemoteConfig{BaseURL: servef.StoreURL})
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		defer remote.Close()
		cfg.Store = remote
		logger.Info("remote store", "url", servef.StoreURL, "replica", servef.ReplicaID)
	}
	cfg.ReplicaID = servef.ReplicaID

	srv := service.New(cfg)
	// Deferred after the store closes above, so it runs before them: no
	// background sweep runner races a closed store.
	defer srv.Close()

	// -debug-addr serves net/http/pprof on its own listener: profiling is
	// an operator surface and never rides the public API address. The
	// DefaultServeMux carries the pprof handlers (this package imports
	// net/http/pprof for exactly that side effect) and nothing else — the
	// API mux above is built from scratch.
	if servef.DebugAddr != "" {
		debugSrv := &http.Server{
			Addr:              servef.DebugAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("debug server listening", "addr", servef.DebugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server failed", "err", err)
			}
		}()
		defer debugSrv.Close()
	}

	err = cliutil.Serve(servef.Addr, srv.Handler(), servef.Drain, logger,
		"workers", eng.Workers(), "cache", eng.Cache() != nil)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
}
