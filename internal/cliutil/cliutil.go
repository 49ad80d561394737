// Package cliutil holds the flag plumbing shared by the cmd tools: the
// engine flags (-workers/-cache), the run flags (-traces/-seed), strict
// validation of both, signal-aware contexts, the servers' logger and
// drain loop, and the -spec/-dump-spec experiment driver. Keeping it in
// one place guarantees every tool validates inputs identically and
// reports the same errors.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/exper"
	"repro/internal/spec"
)

// EngineFlags carries the shared -workers/-cache flags.
type EngineFlags struct {
	Workers int
	Cache   bool
}

// AddEngineFlags registers -workers and -cache on the flag set.
func AddEngineFlags(fs *flag.FlagSet) *EngineFlags {
	f := &EngineFlags{}
	fs.IntVar(&f.Workers, "workers", 0, "concurrent experiment cells (0 = all CPUs); never changes results")
	fs.BoolVar(&f.Cache, "cache", true, "share DP tables, planners and traces across experiments")
	return f
}

// Engine validates the flags and builds the engine. Negative worker
// counts are rejected here, with a clear message, instead of being passed
// through to silently mean "all CPUs".
func (f *EngineFlags) Engine() (*engine.Engine, error) {
	if f.Workers < 0 {
		return nil, fmt.Errorf("-workers must be >= 0 (0 = all CPUs), got %d", f.Workers)
	}
	cfg := engine.Config{Workers: f.Workers}
	if f.Cache {
		cfg.Cache = engine.NewCache(0)
	}
	return engine.New(cfg), nil
}

// RunFlags carries the shared -traces/-seed flags.
type RunFlags struct {
	Traces int
	Seed   uint64
	// tracesOptional records whether 0 means "use the mode default"
	// (experiment tools) or is invalid (chkpt-sim).
	tracesOptional bool
}

// AddRunFlags registers -traces and -seed. defTraces is the default trace
// count; when tracesOptional is true, 0 is allowed and means "mode
// default".
func AddRunFlags(fs *flag.FlagSet, defTraces int, defSeed uint64, tracesOptional bool) *RunFlags {
	f := &RunFlags{tracesOptional: tracesOptional}
	usage := "number of random traces"
	if tracesOptional {
		usage = "override trace count (0 = mode default)"
	}
	fs.IntVar(&f.Traces, "traces", defTraces, usage)
	fs.Uint64Var(&f.Seed, "seed", defSeed, "random seed")
	return f
}

// Validate rejects invalid trace counts with a clear error instead of
// letting a negative or zero value surface later as an opaque harness
// failure.
func (f *RunFlags) Validate() error {
	if f.Traces < 0 {
		return fmt.Errorf("-traces must be >= 0, got %d", f.Traces)
	}
	if !f.tracesOptional && f.Traces == 0 {
		return fmt.Errorf("-traces must be >= 1, got %d", f.Traces)
	}
	return nil
}

// ServeFlags carries the serving flags shared by chkpt-serve (and any
// future networked tool): listen address, admission bounds, timeouts,
// and the durability directory.
type ServeFlags struct {
	Addr           string
	Concurrent     int
	Queue          int
	RequestTimeout time.Duration
	Drain          time.Duration
	// DataDir is the durable store directory; empty keeps everything in
	// memory (sessions and sweep jobs die with the process).
	DataDir string
	// LogFormat selects the access-log encoding: "text" (human-readable,
	// the default) or "json" (one JSON object per line, for shippers).
	LogFormat string
	// DebugAddr, when non-empty, serves net/http/pprof on a second
	// listener so profiling never rides the public API address.
	DebugAddr string
	// StoreURL, when non-empty, mounts a remote store served by
	// chkpt-store instead of a local one — the shared-backend mode that
	// lets several replicas serve one durable state. Mutually exclusive
	// with DataDir.
	StoreURL string
	// ReplicaID names this server in a fleet (it owns the sweep-job
	// claim leases it takes). Empty mints a random id, which is the
	// right default: two replicas must never share one.
	ReplicaID string
}

// AddServeFlags registers the serving flag set.
func AddServeFlags(fs *flag.FlagSet) *ServeFlags {
	f := &ServeFlags{}
	fs.StringVar(&f.Addr, "addr", "127.0.0.1:8080", "listen address")
	fs.IntVar(&f.Concurrent, "concurrent", 0, "max evaluations executing at once (0 = engine workers)")
	fs.IntVar(&f.Queue, "queue", 16, "admission queue depth beyond the execution slots; overflow answers 429")
	fs.DurationVar(&f.RequestTimeout, "request-timeout", 2*time.Minute, "per-request evaluation timeout (0 = none)")
	fs.DurationVar(&f.Drain, "drain", 15*time.Second, "graceful drain window on SIGINT/SIGTERM")
	fs.StringVar(&f.DataDir, "data-dir", "", "durable store directory for sessions and sweep jobs (empty = in-memory only)")
	fs.StringVar(&f.LogFormat, "log-format", "text", "structured log encoding: text or json")
	fs.StringVar(&f.DebugAddr, "debug-addr", "", "listen address for the pprof debug server (empty = disabled)")
	fs.StringVar(&f.StoreURL, "store", "", "base URL of a chkpt-store server to mount as the durable store (exclusive with -data-dir)")
	fs.StringVar(&f.ReplicaID, "replica-id", "", "fleet-unique name for this replica's sweep-job claims (empty = random)")
	return f
}

// Validate rejects nonsensical serving parameters with clear messages.
func (f *ServeFlags) Validate() error {
	switch {
	case f.Addr == "":
		return fmt.Errorf("-addr must not be empty")
	case f.Concurrent < 0:
		return fmt.Errorf("-concurrent must be >= 0 (0 = engine workers), got %d", f.Concurrent)
	case f.Queue < 0:
		return fmt.Errorf("-queue must be >= 0, got %d", f.Queue)
	case f.RequestTimeout < 0:
		return fmt.Errorf("-request-timeout must be >= 0 (0 = none), got %v", f.RequestTimeout)
	case f.Drain <= 0:
		return fmt.Errorf("-drain must be > 0, got %v", f.Drain)
	case f.LogFormat != "text" && f.LogFormat != "json":
		return fmt.Errorf("-log-format must be text or json, got %q", f.LogFormat)
	case f.StoreURL != "" && f.DataDir != "":
		return fmt.Errorf("-store and -data-dir are mutually exclusive: the store server owns the directory")
	}
	return nil
}

// DistSpecFromFlags lowers the cmd tools' -law/-shape flag pair into a
// distribution spec: "exp" aliases "exponential", and the single shape
// flag populates the family-appropriate parameter (Weibull/Gamma shape,
// LogNormal sigma). Families that take neither ignore it, matching the
// flags' documented behavior.
func DistSpecFromFlags(law string, shape float64) spec.DistSpec {
	d := spec.DistSpec{Family: strings.ToLower(law)}
	switch d.Family {
	case "exp":
		d.Family = "exponential"
	case "lognormal":
		d.Sigma = shape
	case "weibull", "gamma":
		d.Shape = shape
	}
	return d
}

// BuildVersion returns the module version the Go toolchain recorded in
// the binary ("(devel)" for tree builds, a tag or pseudo-version for
// `go install`ed ones). It is what chkpt-serve reports via -version, the
// startup log and /healthz.
func BuildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
}

// SignalContext returns a context cancelled by SIGINT/SIGTERM, so a ^C
// lands as context.Canceled inside the execution stack: in-flight grid
// cells stop promptly and everything already emitted is a valid
// deterministic prefix.
func SignalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Logger returns the structured logger a -log-format value selects:
// one JSON object per line for "json", human-readable text otherwise.
func Logger(format string) *slog.Logger {
	if format == "json" {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// Serve serves h on addr until SIGINT or SIGTERM, then drains: new
// connections are refused at once and in-flight requests get the drain
// window to finish before the rest are closed. It logs "listening"
// (with the address, the build and attrs), "draining" and "stopped",
// and returns the listener's error if it could not serve.
func Serve(addr string, h http.Handler, drain time.Duration, logger *slog.Logger, attrs ...any) error {
	ctx, stop := SignalContext()
	defer stop()
	srv := &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	logger.Info("listening", append([]any{"addr", addr, "version", BuildVersion(), "go", runtime.Version()}, attrs...)...)
	go func() { served <- srv.ListenAndServe() }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	logger.Info("draining", "window", drain.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("drain window elapsed; closing", "err", err)
		_ = srv.Close()
	}
	<-served // http.ErrServerClosed, once Shutdown has closed the listener
	logger.Info("stopped")
	return nil
}

// Fatal prints the error prefixed with the tool name and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}

// RunSpecFile loads an experiment spec file and executes it: the headline
// goes to w, timing to stderr (so stdout stays byte-deterministic).
func RunSpecFile(ctx context.Context, w io.Writer, tool, path string, p exper.Params) error {
	es, err := spec.LoadExperiment(path)
	if err != nil {
		return err
	}
	return runOne(ctx, w, tool, es.Name, es.Title, p, func() error {
		return exper.RunSpec(ctx, w, p, es)
	})
}

// RunExperiments drives the selected registered experiments: with
// dumpSpec it prints each experiment's declarative spec to w; otherwise
// it runs them, headers to w and timings to stderr.
func RunExperiments(ctx context.Context, w io.Writer, tool string, ids []string, p exper.Params, dumpSpec bool) error {
	// A spec file is one JSON document; concatenating several would
	// produce a stream -spec can never load back.
	if dumpSpec && len(ids) != 1 {
		return fmt.Errorf("-dump-spec writes one spec file: select exactly one experiment with -exp (got %d)", len(ids))
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		e, ok := exper.Find(id)
		if !ok {
			return fmt.Errorf("unknown experiment %q (have: %s)", id, strings.Join(exper.IDs(), ", "))
		}
		if dumpSpec {
			if e.Spec == nil {
				return fmt.Errorf("experiment %q has no declarative spec (spec-expressible: %s)",
					id, strings.Join(specExpressibleIDs(), ", "))
			}
			es, err := e.Spec(p)
			if err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			if es.Title == "" {
				es.Title = e.Title
			}
			if err := spec.EncodeExperiment(w, es); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
			continue
		}
		err := runOne(ctx, w, tool, e.ID, e.Title, p, func() error {
			return e.Run(ctx, w, p)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// runOne prints the experiment header, runs it, and reports the elapsed
// time on stderr.
func runOne(ctx context.Context, w io.Writer, tool, id, title string, p exper.Params, run func() error) error {
	if title != "" {
		fmt.Fprintf(w, "== %s ==\n%s\n\n", id, title)
	} else {
		fmt.Fprintf(w, "== %s ==\n\n", id)
	}
	start := time.Now()
	if err := run(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: %s in %.1f s\n", tool, id, time.Since(start).Seconds())
	return nil
}

// specExpressibleIDs lists the registered experiments that can be dumped.
func specExpressibleIDs() []string {
	var out []string
	for _, e := range exper.All() {
		if e.Spec != nil {
			out = append(out, e.ID)
		}
	}
	return out
}
