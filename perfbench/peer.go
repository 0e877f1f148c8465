package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"prophet"
	"prophet/internal/resultstore"
	"prophet/internal/server"
)

// spanHeader carries "<parent span>/<trace>" from a traced client to the
// traced handler, so server-side spans join the request's trace.
const spanHeader = "X-Perfbench-Span"

// daemon is an in-process prophetd: an Evaluator, an optional result store,
// and server.New's handler, served over loopback exactly as cmd/prophetd
// wires them.
type daemon struct {
	ev    *prophet.Evaluator
	store *resultstore.Store
	// storePath is the store's log file ("" without a store).
	storePath string
	srv       *server.Server
	hs        *http.Server
	url       string
	done      chan struct{}

	// span names the handler span; rec, when set, records one per request.
	span string
	rec  atomic.Pointer[recorder]
}

// daemonConfig shapes one daemon. storePath "" serves without a disk tier.
type daemonConfig struct {
	storePath    string
	cacheEntries int
	span         string
}

func startDaemon(cfg daemonConfig) (*daemon, error) {
	ev := prophet.New(prophet.WithWorkers(1), prophet.WithLogf(discardLogf))
	d := &daemon{ev: ev, span: cfg.span, done: make(chan struct{})}
	if cfg.storePath != "" {
		st, err := resultstore.Open(cfg.storePath, resultstore.Options{Fingerprint: ev.StoreFingerprint(), ResetOnMismatch: true})
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		d.store, d.storePath = st, cfg.storePath
		ev.UseResultStore(st)
	}
	return d, d.serve(server.Config{Evaluator: ev, Store: d.store, CacheEntries: cfg.cacheEntries, Logf: discardLogf})
}

// startSibling serves a second handler over this daemon's evaluator and
// store: a fresh memory tier in front of the same disk tier.
func (d *daemon) startSibling() (*daemon, error) {
	s := &daemon{ev: d.ev, span: d.span, done: make(chan struct{})}
	return s, s.serve(server.Config{Evaluator: d.ev, Store: d.store, Logf: discardLogf})
}

func (d *daemon) serve(cfg server.Config) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if d.store != nil {
			d.store.Close()
		}
		return err
	}
	d.srv = server.New(cfg)
	d.hs = &http.Server{Handler: d}
	d.url = "http://" + ln.Addr().String()
	go func() {
		defer close(d.done)
		d.hs.Serve(ln)
	}()
	return nil
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := d.rec.Load()
	if rec == nil {
		d.srv.Handler().ServeHTTP(w, r)
		return
	}
	parent, trace := parseSpanHeader(r.Header.Get(spanHeader))
	id := rec.begin(d.span, r.URL.Path, parent, trace)
	d.srv.Handler().ServeHTTP(w, r)
	rec.end(id)
}

// stop shuts the listener and handler down and waits for the serve loop to
// return. stopAll also closes the store; a sibling, which shares its
// owner's store, gets stop only.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.done
	d.srv.Close(ctx)
}

func (d *daemon) stopAll() {
	d.stop()
	if d.store != nil {
		d.store.Close()
	}
}

func parseSpanHeader(v string) (parent int, trace int64) {
	p, t, ok := strings.Cut(v, "/")
	if !ok {
		return 0, 0
	}
	parent, _ = strconv.Atoi(p)
	trace, _ = strconv.ParseInt(t, 10, 64)
	return parent, trace
}

func spanHeaderValue(parent int, trace int64) string {
	return strconv.Itoa(parent) + "/" + strconv.FormatInt(trace, 10)
}

// oneConnClient is a keep-alive client holding at most one connection per
// host.
func oneConnClient() *http.Client {
	return &http.Client{Transport: oneConnTransport()}
}

func oneConnTransport() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

func closeClient(c *http.Client) {
	if c != nil {
		c.CloseIdleConnections()
	}
}
