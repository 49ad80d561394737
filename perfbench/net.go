package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// loopback is an http.Server on an ephemeral 127.0.0.1 port.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{
		url:  "http://" + ln.Addr().String(),
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln)
	}()
	return l, nil
}

// close stops the server, drops its connections and waits for it.
func (l *loopback) close() {
	if l == nil {
		return
	}
	_ = l.srv.Close()
	<-l.done
}

// clients is one HTTP client per closed-loop client, each on its own
// transport, so each keeps its own connection.
type clients []*http.Client

func newClients(n int) clients {
	cs := make(clients, n)
	for i := range cs {
		cs[i] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		}
	}
	return cs
}

func (cs clients) closeIdle() {
	for _, c := range cs {
		c.CloseIdleConnections()
	}
}

// call sends one request tagged with the op's request id and decodes a
// JSON reply into out. A non-2xx status is an error.
func call(c *http.Client, method, url, reqID string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Request-ID", reqID)
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(raw))
	}
	return json.Unmarshal(raw, out)
}

// opID is the request id the benchmark sends with op i of a phase.
func opID(i int) string { return fmt.Sprintf("op-%d", i) }
