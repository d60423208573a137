package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"lera/internal/guard"
	"lera/internal/server"
)

// servedPlanCache is served_repeat's plan-cache capacity: far above its
// template count, so nothing is evicted.
const servedPlanCache = 64

// minHitRatio is the plan-cache hit ratio served_repeat must keep after
// warm-up; below it the run measures the rewriter, not the hit path.
const minHitRatio = 0.99

// servedConfig is the served snapshot: the films database, the plan
// cache on, nproc execution slots and the serial engine (leraserver's
// default parallelism).
func servedConfig() server.Config {
	return server.Config{
		LoadFilms:   true,
		PlanCache:   servedPlanCache,
		MaxInFlight: nproc(),
		Parallelism: 1,
	}
}

// httpClient is one keep-alive client of POST /query.
type httpClient struct {
	url string
	hc  *http.Client
}

func newHTTPClient(addr string) *httpClient {
	return &httpClient{
		url: "http://" + addr + "/query",
		hc:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}},
	}
}

// post sends one query and returns the decoded response, the response
// body size and the round-trip time.
func (h *httpClient) post(ctx context.Context, text string) (server.Response, int, time.Duration, error) {
	var resp server.Response
	body, err := json.Marshal(map[string]string{"query": text})
	if err != nil {
		return resp, 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, h.url, bytes.NewReader(body))
	if err != nil {
		return resp, 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	hr, err := h.hc.Do(req)
	if err != nil {
		return resp, 0, time.Since(t0), err
	}
	b, err := io.ReadAll(hr.Body)
	hr.Body.Close()
	rt := time.Since(t0)
	if err != nil {
		return resp, 0, rt, err
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return resp, len(b), rt, fmt.Errorf("decoding response: %w", err)
	}
	return resp, len(b), rt, nil
}

func (h *httpClient) close() { h.hc.CloseIdleConnections() }

// exec runs one query over HTTP. A shed at nproc clients is an integrity
// violation: admission is sized to the load, so shedding means the
// workload is not the one described.
func (h *httpClient) exec(ctx context.Context, q query) outcome {
	resp, _, rt, err := h.post(ctx, q.text)
	if err != nil {
		return outcome{lat: rt, err: fmt.Errorf("%s: %w", q.text, err)}
	}
	o := outcome{lat: rt}
	switch resp.Code {
	case string(guard.CodeOK):
		o.got = answerOf(resp.Rows)
		if resp.Degraded {
			o.bad = "degraded rewrite: " + q.text
		}
	case string(guard.CodeOverloaded):
		o.err = errors.New("OVERLOADED: " + q.text)
		o.bad = "request shed at nproc clients: " + q.text
	default:
		o.err = fmt.Errorf("%s: %s: %s", q.text, resp.Code, resp.Error)
	}
	return o
}

// servedCounters reads the server's plan-cache and spill counters.
type servedCounters struct{ hits, misses, spill int64 }

func readServed(srv *server.Server) servedCounters {
	m := srv.Metrics()
	return servedCounters{
		hits:   m.Counter("lera_plancache_hits_total", "").Value(),
		misses: m.Counter("lera_plancache_misses_total", "").Value(),
		spill:  m.Counter("lera_engine_spill_bytes_total", "").Value(),
	}
}

// waitReady polls url until it answers 200 OK, for at most 5 seconds.
func waitReady(url string) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := hc.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = errors.New(resp.Status)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setupServed boots a server.New snapshot on a loopback listener and
// opens nproc keep-alive clients.
func setupServed(seed int64, _ string, warmUp bool) (*instance, error) {
	srv, err := server.New(servedConfig())
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	// Serve registers its listener on its own goroutine, and a Drain that
	// runs before that leaves Serve accepting forever; so set-up is done
	// only once the server answers.
	if err := waitReady("http://" + ln.Addr().String() + "/healthz"); err != nil {
		return nil, err
	}
	var hcs []*httpClient
	stop := func() {
		for _, h := range hcs {
			h.close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Drain(ctx) // a drain error would only report in-flight work; none is left
		<-served
	}
	d, err := loadFilmsData()
	if err != nil {
		stop()
		return nil, err
	}
	fams := servedFamilies(d)
	inst := &instance{close: stop}
	for c := 0; c < nproc(); c++ {
		h := newHTTPClient(ln.Addr().String())
		hcs = append(hcs, h)
		inst.clients = append(inst.clients, &client{s: newStream(clientSeed(seed, c, false), fams), exec: h.exec})
	}
	if warmUp {
		if err := warm(inst.clients, seed, fams); err != nil {
			stop()
			return nil, err
		}
	}
	start := readServed(srv)
	inst.check = func() error {
		end := readServed(srv)
		hits, misses := end.hits-start.hits, end.misses-start.misses
		if ratio := float64(hits) / float64(max(hits+misses, 1)); ratio < minHitRatio {
			return fmt.Errorf("plan-cache hit ratio %.4f after warm-up, want at least %.2f", ratio, minHitRatio)
		}
		if end.spill != 0 {
			return fmt.Errorf("served_repeat spilled %d bytes", end.spill)
		}
		return nil
	}
	inst.driver = func() (*driver, error) { return newServedDriver(newHTTPClient(ln.Addr().String())) }
	return inst, nil
}
