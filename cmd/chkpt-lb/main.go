// Command chkpt-lb is a minimal round-robin HTTP forwarder for a fleet
// of chkpt-serve replicas (internal/cluster.Forwarder). It exists so
// the cluster smoke test — and a laptop-scale deployment — can put N
// replicas behind one address without bringing in an external proxy.
//
// Routing rules: requests rotate across -backends; a backend that is
// unreachable (transport error) is skipped for that request; an HTTP
// error status is a backend's answer and is relayed untouched, never
// retried (a retry could duplicate non-idempotent work). When every
// backend is unreachable the forwarder answers 502.
//
// Example:
//
//	chkpt-lb -addr :8080 -backends http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"flag"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
)

const tool = "chkpt-lb"

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	backends := flag.String("backends", "", "comma-separated replica base URLs (required)")
	drain := flag.Duration("drain", 15*time.Second, "graceful drain window on SIGINT/SIGTERM")
	showVersion := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *showVersion {
		fmt.Printf("%s %s %s\n", tool, cliutil.BuildVersion(), runtime.Version())
		return
	}
	var urls []string
	for _, u := range strings.Split(*backends, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	switch {
	case *addr == "":
		cliutil.Fatal(tool, fmt.Errorf("-addr must not be empty"))
	case len(urls) == 0:
		cliutil.Fatal(tool, fmt.Errorf("-backends is required: a forwarder without backends serves nothing"))
	case *drain <= 0:
		cliutil.Fatal(tool, fmt.Errorf("-drain must be > 0, got %v", *drain))
	}

	logger := cliutil.Logger("text")
	fw, err := cluster.NewForwarder(urls, logger)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	if err := cliutil.Serve(*addr, fw, *drain, logger, "backends", strings.Join(urls, ",")); err != nil {
		cliutil.Fatal(tool, err)
	}
}
