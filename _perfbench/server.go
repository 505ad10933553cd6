package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/llama-surface/llama/internal/experiments"
	"github.com/llama-surface/llama/internal/metasurface"
	"github.com/llama-surface/llama/internal/service"
	"github.com/llama-surface/llama/internal/store"
)

// server is an in-process llama-serve on a loopback listener, plus
// whatever worker goroutines were started beside it.
type server struct {
	svc    *service.Server
	hs     *http.Server
	served chan error
	base   string

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup

	setup, open, load time.Duration
}

// startServer does what a llama-serve process does before it answers:
// open the store, import its response tables into empty in-memory
// tables, build the service, listen, start workers (nil for none) and
// answer /healthz. The set-up time covers all of it.
func startServer(dir string, cfg service.Config, workers func(ctx context.Context, base string, wg *sync.WaitGroup)) (*server, error) {
	metasurface.ResetResponseTables()
	t0 := time.Now()
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	if _, _, warns := experiments.LoadResponseTables(st); len(warns) > 0 {
		return nil, fmt.Errorf("loading response tables: %v", warns)
	}
	t2 := time.Now()
	cfg.Store = st
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Shutdown(context.Background())
		return nil, err
	}
	s := &server{
		svc:    svc,
		hs:     &http.Server{Handler: svc},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		open:   t1.Sub(t0),
		load:   t2.Sub(t1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	s.stopWorkers = cancel
	if workers != nil {
		workers(ctx, s.base, &s.workers)
	}
	if err := s.awaitHealthy(); err != nil {
		s.stop()
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// awaitHealthy polls /healthz until it answers 200.
func (s *server) awaitHealthy() error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(s.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("/healthz did not answer 200 within 10s")
}

// stop stops the workers, drains the listener and shuts the service
// down, waiting for every goroutine it started.
func (s *server) stop() error {
	s.stopWorkers()
	s.workers.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	herr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	return errors.Join(herr, s.svc.Shutdown(ctx))
}

// startTimed starts the server setupRepeats times, recording each
// set-up, and keeps the last one running.
func startTimed(b *bench, dir string, cfg service.Config, workers func(ctx context.Context, base string, wg *sync.WaitGroup)) (*server, error) {
	var opens, loads []float64
	for i := 0; ; i++ {
		s, err := startServer(dir, cfg, workers)
		if err != nil {
			return nil, err
		}
		b.setup(s.setup)
		opens = append(opens, ms(s.open))
		loads = append(loads, ms(s.load))
		if i == setupRepeats-1 {
			b.set("store.open_ms", median(opens))
			b.set("store.tables_load_ms", median(loads))
			return s, nil
		}
		if err := s.stop(); err != nil {
			return nil, err
		}
	}
}

// newClient returns an HTTP client that keeps enough idle connections
// for n concurrent sessions.
func newClient(n int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 4 * n,
		DisableCompression:  true,
	}}
}
