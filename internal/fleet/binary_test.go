package fleet

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

func startBinaryServer(t *testing.T, svc *serve.Service) *BinaryServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewBinaryServer(svc, ln)
	t.Cleanup(func() { srv.Close() })
	return srv
}

func testService(t *testing.T) (*serve.Service, string) {
	t.Helper()
	svc := serve.New(serve.Config{})
	t.Cleanup(func() { svc.Close() })
	name, err := svc.Deploy("", serve.Spec{Model: topo.ModelFA, N: 180, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return svc, name
}

// TestBinaryBatchMatchesDirect pins the transport's correctness: a
// batch pushed through frames must come back exactly as the in-process
// Batch call returns it, including in-band per-request errors.
func TestBinaryBatchMatchesDirect(t *testing.T) {
	svc, name := testService(t)
	srv := startBinaryServer(t, svc)
	c, err := Dial(srv.Addr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	var reqs []serve.RouteRequest
	for src := topo.NodeID(0); src < 170; src += 2 {
		for _, alg := range serve.Algorithms() {
			reqs = append(reqs, serve.RouteRequest{Deployment: name, Algorithm: alg, Src: src, Dst: 179 - src})
		}
	}
	// In-band error cases: unknown deployment, unknown algorithm, node
	// out of range (negative survives the two's-complement encoding).
	reqs = append(reqs,
		serve.RouteRequest{Deployment: "nope", Algorithm: "GF", Src: 0, Dst: 1},
		serve.RouteRequest{Deployment: name, Algorithm: "bogus", Src: 0, Dst: 1},
		serve.RouteRequest{Deployment: name, Algorithm: "GF", Src: -3, Dst: 1},
	)

	want := svc.Batch(reqs)
	got, err := c.Batch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		// Cached differs between the two passes by design (the direct
		// batch warmed the cache); compare everything else.
		g, w := got[i], want[i]
		g.Cached, w.Cached = false, false
		if !reflect.DeepEqual(g, w) {
			t.Errorf("result %d diverged:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if len(want) <= batchChunkSize {
		t.Fatalf("test batch (%d) does not exercise chunked streaming (chunk %d)", len(want), batchChunkSize)
	}

	_, batches, routes := srv.Stats()
	if batches != 1 || routes != uint64(len(reqs)) {
		t.Errorf("server stats = %d batches / %d routes, want 1 / %d", batches, routes, len(reqs))
	}
}

func TestBinaryEmptyBatch(t *testing.T) {
	svc, _ := testService(t)
	srv := startBinaryServer(t, svc)
	c, err := Dial(srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Batch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestBinaryConcurrentClients exercises several persistent connections
// pushing batches at once — the fleet driver's shape.
func TestBinaryConcurrentClients(t *testing.T) {
	svc, name := testService(t)
	srv := startBinaryServer(t, svc)

	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed topo.NodeID) {
			defer wg.Done()
			c, err := Dial(srv.Addr(), 10*time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for iter := 0; iter < 5; iter++ {
				var reqs []serve.RouteRequest
				for i := topo.NodeID(0); i < 40; i++ {
					src := (seed*31 + i) % 180
					reqs = append(reqs, serve.RouteRequest{
						Deployment: name, Algorithm: "SLGF2", Src: src, Dst: (src + 90) % 180,
					})
				}
				res, err := c.Batch(reqs)
				if err != nil {
					errs <- err
					return
				}
				for _, r := range res {
					if r.Err != "" {
						errs <- errConnBroken
						return
					}
				}
			}
		}(topo.NodeID(w))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestBinaryServerRejectsGarbage: a malformed frame must produce a
// frameError (or a dropped conn) — never a hang or panic — and the
// client must report the stream broken afterwards.
func TestBinaryServerRejectsGarbage(t *testing.T) {
	svc, _ := testService(t)
	srv := startBinaryServer(t, svc)

	conn, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	// Frame type 99 does not exist.
	if err := writeFrame(conn, 99, []byte("junk")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		t.Fatalf("expected an error frame, got read error %v", err)
	}
	if typ != frameError {
		t.Fatalf("frame type = %d, want frameError", typ)
	}
	if _, msg := decodeError(payload); msg == "" {
		t.Fatal("empty error message")
	}

	// A truncated batch frame on a fresh conn: the server must close it.
	conn2, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(5 * time.Second))
	if err := writeFrame(conn2, frameBatch, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := readFrame(conn2); err == nil && typ != frameError {
		t.Fatalf("truncated batch answered with frame type %d", typ)
	}
}

func TestBinaryClientBrokenAfterServerClose(t *testing.T) {
	svc, name := testService(t)
	srv := startBinaryServer(t, svc)
	c, err := Dial(srv.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	req := []serve.RouteRequest{{Deployment: name, Algorithm: "GF", Src: 0, Dst: 1}}
	if _, err := c.Batch(req); err == nil {
		t.Fatal("batch succeeded against a closed server")
	}
	if _, err := c.Batch(req); err == nil {
		t.Fatal("broken client did not stay broken")
	}
}

// TestDecodeBatchRequestAllocs pins the batch decoder's allocations to
// a constant: requests that repeat the previous request's deployment
// and algorithm reuse its strings instead of copying them.
func TestDecodeBatchRequestAllocs(t *testing.T) {
	reqs := make([]serve.RouteRequest, 256)
	for i := range reqs {
		reqs[i] = serve.RouteRequest{Deployment: "FA-800-42", Algorithm: serve.Algorithms()[i/128], Src: topo.NodeID(i), Dst: 1}
	}
	payload := encodeBatchRequest(1, reqs)
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := decodeBatchRequest(payload); err != nil {
			t.Fatal(err)
		}
	})
	// The request slice, plus the names of the first request and of the
	// one request where the algorithm changes.
	if allocs > 4 {
		t.Fatalf("decoding 256 requests: %v allocs; want ≤ 4", allocs)
	}
}
