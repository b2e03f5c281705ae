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

	"github.com/straightpath/wasn/internal/fleet"
	"github.com/straightpath/wasn/internal/serve"
)

// Workload names.
const (
	wlBatchMiss  = "batch-miss"
	wlChurnMixed = "churn-mixed"
)

var workloadNames = []string{wlBatchMiss, wlChurnMixed}

// transports hosts the service in this process on loopback: the
// HTTP/JSON handler and the binary batch server.
type transports struct {
	httpSrv  *http.Server
	httpURL  string
	httpDone chan error
	hc       *http.Client
	bin      *fleet.BinaryServer
}

func startTransports(svc *serve.Service, conns int) (*transports, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening for HTTP: %w", err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("listening for the binary transport: %w", err)
	}
	t := &transports{
		httpSrv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		httpURL:  "http://" + ln.Addr().String(),
		httpDone: make(chan error, 1),
		// Keep-alive connections, at most one per client goroutine, and
		// no proxy: traffic stays on loopback.
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		}},
		bin: fleet.NewBinaryServer(svc, bln),
	}
	go func() { t.httpDone <- t.httpSrv.Serve(ln) }()
	return t, nil
}

func (t *transports) close() {
	t.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if t.httpSrv.Shutdown(ctx) != nil {
		t.httpSrv.Close()
	}
	<-t.httpDone
	t.bin.Close()
}

// route sends one /route request over HTTP/JSON.
func (t *transports) route(req serve.RouteRequest) (serve.RouteResponse, error) {
	var out serve.RouteResponse
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	resp, err := t.hc.Post(t.httpURL+"/route", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("/route: %s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return out, json.Unmarshal(data, &out)
}

// batchMissLoop sends batches of uniform pairs over the binary
// transport, one persistent connection per client.
func (b *bench) batchMissLoop() (*loop, func(), error) {
	type client struct {
		conn *fleet.Client
		next func() serve.RouteRequest
		reqs []serve.RouteRequest
	}
	cls := make([]*client, b.clients)
	closeAll := func() {
		for _, cl := range cls {
			if cl != nil {
				cl.conn.Close()
			}
		}
	}
	for c := range cls {
		conn, err := fleet.Dial(b.tp.bin.Addr(), 0)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		cls[c] = &client{conn: conn, next: b.fx.newStream(wlBatchMiss, b.o.seed, c), reqs: make([]serve.RouteRequest, batchSize)}
	}
	step := func(c int, t *tally, tr *tracer) {
		cl := cls[c]
		for i := range cl.reqs {
			cl.reqs[i] = cl.next()
		}
		t.calls++
		start := time.Now()
		resps, err := cl.conn.Batch(cl.reqs)
		d := time.Since(start)
		if tr != nil {
			tr.add("fleet.Client.Batch", d)
		}
		if err != nil {
			t.failed++
			b.noteErr(err)
			return
		}
		t.lat.add(d)
		failed := false
		for _, r := range resps {
			if r.Err != "" {
				failed = true
				b.noteErr(errors.New(r.Err))
				continue
			}
			t.countRoute(r.Delivered, r.Hops)
		}
		if failed {
			t.failed++
		}
		if t.samples.next() {
			// Keep a route of the batch; they cycle through the routers.
			i := int(t.calls) % len(cl.reqs)
			t.samples.keep(sample{req: cl.reqs[i], resp: resps[i]}, sampleLimit)
		}
	}
	return &loop{clients: b.clients, step: step}, closeAll, nil
}

// readTimeEvery is how often the churn reader times an untraced read.
// A cache hit costs a few hundred nanoseconds, no more than the two
// clock reads that time it, so only one read in readTimeEvery is timed;
// throughput counts every read.
const readTimeEvery = 16

// churnReader is the convergecast reader beside the mutator: one
// in-process client of serve.Service.Route. Traced, it times every read
// and tells reads that overlapped a mutation call from the rest.
func (b *bench) churnReader(mu *mutator) *loop {
	next := b.fx.newStream(wlChurnMixed, b.o.seed, 0)
	return &loop{clients: 1, step: func(_ int, t *tally, tr *tracer) {
		req := next()
		t.calls++
		timed := tr != nil || t.calls%readTimeEvery == 0
		var start time.Time
		s1 := mu.seq.Load()
		if timed {
			start = time.Now()
		}
		res, cached, err := b.svc.Route(req.Deployment, req.Algorithm, req.Src, req.Dst)
		var d time.Duration
		if timed {
			d = time.Since(start)
		}
		s2 := mu.seq.Load()
		overlapped := s1 != s2 || s1%2 == 1
		if tr != nil {
			name := "serve.read.between_mutations"
			if overlapped {
				name = "serve.read.during_mutation"
			}
			tr.add(name, d)
		}
		if err != nil {
			t.failed++
			b.noteErr(err)
			return
		}
		if timed {
			t.lat.add(d)
		}
		t.countRoute(res.Delivered, res.Hops())
		if !overlapped && t.samples.next() {
			t.samples.keep(sample{req: req, resp: toResponse(res, cached), state: int(s1 / 2)}, sampleLimit)
		}
	}}
}

// warm runs a loop untimed, so connections, buffers and the cache are
// in steady state before timing starts.
func warm(d *loop, dur time.Duration) tally {
	tallies := make([]tally, d.clients)
	closedLoop(d, tallies, nil, stopAfter(dur))
	var t tally
	for c := range tallies {
		t.merge(&tallies[c])
	}
	return t
}
