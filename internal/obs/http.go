package obs

import (
	"encoding/json"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
)

// requestBuckets are the request-latency histogram bounds in seconds.
// Requests range from milliseconds (cache-hot single cells, store RPCs)
// to minutes (cold paper-scale sweeps), so the buckets are log-spaced
// across that span.
var requestBuckets = []float64{0.005, 0.02, 0.1, 0.5, 2, 10, 60}

// defaultTraceLimit is how many spans GET /v1/debug/traces answers
// without a limit parameter.
const defaultTraceLimit = 256

// ServeConfig is what Serve mounts and how it instruments requests.
type ServeConfig struct {
	// Registry is rendered at GET /metrics; Serve registers the request
	// families on it.
	Registry *Registry
	// Tracer receives each request's root span and backs
	// GET /v1/debug/traces; its clock times requests.
	Tracer *Tracer
	// Span names each request's root span.
	Span string
	// IDs mints request ids for requests arriving without an
	// X-Request-ID header. Nil means random ids.
	IDs IDSource
	// Logger receives one "request" line per request. Nil discards them.
	Logger *slog.Logger
	// Version is reported by GET /healthz.
	Version string
}

// Serve mounts GET /healthz, GET /metrics and GET /v1/debug/traces on
// mux and returns mux wrapped in the request middleware. The middleware
// adopts the client's X-Request-ID (sanitized) or mints one, echoes it
// on the response, and carries it and the tracer on the request context
// under a root span, so every span recorded downstream correlates to
// it. Once the request is served it counts it in chkpt_requests_total
// and chkpt_request_duration_seconds by the route the mux matched
// ("other" when none did) and writes the access-log line.
func Serve(mux *http.ServeMux, cfg ServeConfig) http.Handler {
	ids, logger, tracer := cfg.IDs, cfg.Logger, cfg.Tracer
	if ids == nil {
		ids = NewRandomIDSource()
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	requests := cfg.Registry.CounterVec("chkpt_requests_total",
		"Finished HTTP requests by path and status code.", "path", "code")
	latency := cfg.Registry.HistogramVec("chkpt_request_duration_seconds",
		"Request latency by path.", requestBuckets, "path")

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{
			"status":  "ok",
			"version": cfg.Version,
			"go":      runtime.Version(),
		})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_, _ = cfg.Registry.WriteTo(w)
	})
	mux.HandleFunc("GET /v1/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		limit := defaultTraceLimit
		if vs := r.URL.Query()["limit"]; len(vs) > 0 {
			n, err := strconv.Atoi(vs[0])
			if err != nil || n <= 0 {
				writeJSON(w, http.StatusBadRequest, map[string]string{
					"error": "obs: query parameter limit=" + strconv.Quote(vs[0]) + " must be a positive integer",
				})
				return
			}
			limit = n
		}
		writeJSON(w, http.StatusOK, struct {
			Spans []Span `json:"spans"`
		}{tracer.Recent(limit)})
	})

	clock := tracer.Clock()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := SanitizeRequestID(r.Header.Get("X-Request-ID"))
		if id == "" {
			id = ids.NewID()
		}
		w.Header().Set("X-Request-ID", id)
		ctx := r.Context()
		ctx = WithTracer(ctx, tracer)
		ctx = WithRequestID(ctx, id)
		ctx, span := StartSpan(ctx, cfg.Span)
		span.SetAttr("method", r.Method)
		r = r.WithContext(ctx)

		sw := &statusWriter{ResponseWriter: w}
		start := clock.Now()
		mux.ServeHTTP(sw, r)
		dur := clock.Now().Sub(start)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		// The mux sets Pattern on the request it served; its path part is
		// a bounded label, where the raw path (session ids, hashes) is not.
		path := "other"
		if i := strings.IndexByte(r.Pattern, '/'); i >= 0 {
			path = r.Pattern[i:]
		}
		code := strconv.Itoa(sw.status)
		span.SetAttr("path", path)
		span.SetAttr("status", code)
		span.End()
		requests.With(path, code).Inc()
		latency.With(path).Observe(dur.Seconds())
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"dur_ms", dur.Milliseconds(),
			"remote", r.RemoteAddr,
			"request_id", id,
		)
	})
}

// statusWriter captures the response status and size for the access
// log, delegating Flush to the underlying writer through Unwrap (the
// http.ResponseController protocol).
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
