package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"bgpc/internal/router"
	"bgpc/internal/service"
	"bgpc/internal/wal"
)

// stack is the system under test, running in this process and reached
// over loopback HTTP: one daemon (ingest, kernel) or a router in front
// of three WAL-backed daemons (delta-fleet). Every component gets the
// configuration its command's default flags give it; only the log
// destination differs (a discarding writer behind the same text
// handler, so formatting still costs what it does in bgpcd).
type stack struct {
	entry    string            // base URL clients send to
	backends map[string]string // fleet backend name → base URL (fleet only)
	names    []string          // fleet backend names, ring order input

	servers []*http.Server
	svcs    []*service.Server
	wals    []*wal.Log
	rt      *router.Router
	walRoot string
	serving sync.WaitGroup // one per Serve goroutine
}

func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// daemonConfig mirrors cmd/bgpcd's flag defaults.
func daemonConfig(l *wal.Log) service.Config {
	return service.Config{
		DefaultTimeout:  30 * time.Second,
		MaxTimeout:      2 * time.Minute,
		CacheEntries:    64,
		QuarantineAfter: 3,
		QuarantineFor:   30 * time.Second,
		RequestRing:     128,
		Log:             discardLogger(),
		WAL:             l,
	}
}

func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.serving.Add(1)
	go func() {
		defer st.serving.Done()
		srv.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return ln.Addr().String(), nil
}

func (st *stack) daemon(l *wal.Log) (string, error) {
	svc := service.New(daemonConfig(l))
	st.svcs = append(st.svcs, svc)
	mux := http.NewServeMux()
	mux.Handle("/", svc)
	return st.serve(mux)
}

func startSingle() (*stack, error) {
	st := &stack{}
	addr, err := st.daemon(nil)
	if err != nil {
		st.close()
		return nil, err
	}
	st.entry = "http://" + addr
	return st, nil
}

// fleetNames are the backends' fixed ring names. The router's
// transport resolves them to this run's loopback ports, so ring
// placement — and with it which deltas miss — repeats from run to run.
var fleetNames = []string{"bgpcd-a:8972", "bgpcd-b:8972", "bgpcd-c:8972"}

func startFleet(walRoot string) (*stack, error) {
	st := &stack{backends: map[string]string{}, names: fleetNames, walRoot: walRoot}
	if err := os.RemoveAll(walRoot); err != nil {
		return nil, err
	}
	addrs := map[string]string{}
	for i, name := range fleetNames {
		l, _, err := wal.Open(wal.Options{
			Dir:      filepath.Join(walRoot, strconv.Itoa(i)),
			Sync:     wal.SyncInterval,
			Interval: 100 * time.Millisecond,
		})
		if err != nil {
			st.close()
			return nil, err
		}
		st.wals = append(st.wals, l)
		addr, err := st.daemon(l)
		if err != nil {
			st.close()
			return nil, err
		}
		addrs[name] = addr
		st.backends[name] = "http://" + addr
	}
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	tr := &http.Transport{
		MaxIdleConnsPerHost: 32, // router.New's default transport
		IdleConnTimeout:     30 * time.Second,
		DialContext: func(ctx context.Context, network, hostport string) (net.Conn, error) {
			if a, ok := addrs[hostport]; ok {
				hostport = a
			}
			return dialer.DialContext(ctx, network, hostport)
		},
	}
	rt, err := router.New(router.Config{Backends: fleetNames, Transport: tr, Log: discardLogger()})
	if err != nil {
		st.close()
		return nil, err
	}
	st.rt = rt
	addr, err := st.serve(rt)
	if err != nil {
		st.close()
		return nil, err
	}
	st.entry = "http://" + addr
	return st, nil
}

// close stops every server, worker pool, prober and log, waiting for
// each, and removes the fleet's WAL directories.
func (st *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for _, s := range st.servers {
		errs = append(errs, s.Shutdown(ctx))
	}
	st.serving.Wait()
	if st.rt != nil {
		st.rt.Close()
	}
	for _, s := range st.svcs {
		errs = append(errs, s.Drain(ctx))
	}
	for _, l := range st.wals {
		errs = append(errs, l.Close())
	}
	if st.walRoot != "" {
		errs = append(errs, os.RemoveAll(st.walRoot))
	}
	return errors.Join(errs...)
}

// scrape reads the counters of one /metrics exposition, summing
// labelled series per metric name.
func scrape(hc *http.Client, base string) (map[string]float64, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			continue
		}
		name := f[0]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}

// fleetScrape is one scrape of the router and every backend.
type fleetScrape struct {
	router   map[string]float64
	backends map[string]map[string]float64
}

func (st *stack) scrapeFleet(hc *http.Client) (*fleetScrape, error) {
	fs := &fleetScrape{backends: map[string]map[string]float64{}}
	var err error
	if fs.router, err = scrape(hc, st.entry); err != nil {
		return nil, err
	}
	for _, name := range st.names {
		if fs.backends[name], err = scrape(hc, st.backends[name]); err != nil {
			return nil, err
		}
	}
	return fs, nil
}
