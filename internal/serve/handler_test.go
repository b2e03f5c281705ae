package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/straightpath/wasn/internal/topo"
)

func postJSON(t *testing.T, srv *httptest.Server, path string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: decoding response: %v", path, err)
		}
	}
	return resp
}

func TestHTTPEndToEnd(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// /deploy registers and (with build:true) constructs the substrates.
	var dep DeployResponse
	resp := postJSON(t, srv, "/deploy", map[string]any{
		"model": "fa", "n": 300, "seed": 7, "build": true,
	}, &dep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/deploy status = %d", resp.StatusCode)
	}
	if dep.Name != "FA-300-7" || dep.N != 300 {
		t.Fatalf("/deploy response = %+v", dep)
	}

	pair := alivePairs(t, s, dep.Name, 1)[0]

	// /route delivers and, asked again, reports the cache hit.
	var r1, r2 RouteResponse
	postJSON(t, srv, "/route", map[string]any{
		"deployment": dep.Name, "algorithm": "SLGF2",
		"src": pair[0], "dst": pair[1], "path": true,
	}, &r1)
	if !r1.Delivered || r1.Cached || r1.Epoch != 0 || len(r1.Path) != r1.Hops+1 {
		t.Fatalf("first /route = %+v", r1)
	}
	postJSON(t, srv, "/route", map[string]any{
		"deployment": dep.Name, "algorithm": "SLGF2",
		"src": pair[0], "dst": pair[1],
	}, &r2)
	if !r2.Cached || r2.Hops != r1.Hops {
		t.Fatalf("second /route = %+v; want cached with %d hops", r2, r1.Hops)
	}
	if r2.Path != nil {
		t.Fatalf("path returned without path:true: %v", r2.Path)
	}

	// /batch returns results in request order.
	var br BatchResponse
	postJSON(t, srv, "/batch", map[string]any{"requests": []RouteRequest{
		{Deployment: dep.Name, Algorithm: "SLGF2", Src: pair[0], Dst: pair[1]},
		{Deployment: dep.Name, Algorithm: "GF", Src: pair[0], Dst: pair[1]},
		{Deployment: "nope", Algorithm: "SLGF2", Src: 0, Dst: 1},
	}}, &br)
	if len(br.Results) != 3 {
		t.Fatalf("/batch returned %d results", len(br.Results))
	}
	if br.Results[0].Hops != r1.Hops || br.Results[2].Err == "" {
		t.Fatalf("/batch results = %+v", br.Results)
	}

	// /fail kills a path node and invalidates the cached route.
	mid := r1.Path[len(r1.Path)/2]
	var fr failResponse
	postJSON(t, srv, "/fail", map[string]any{
		"deployment": dep.Name, "nodes": []topo.NodeID{mid},
	}, &fr)
	if len(fr.Failed) != 1 || fr.Failed[0] != mid {
		t.Fatalf("/fail response = %+v", fr)
	}
	var r3 RouteResponse
	postJSON(t, srv, "/route", map[string]any{
		"deployment": dep.Name, "algorithm": "SLGF2",
		"src": pair[0], "dst": pair[1], "path": true,
	}, &r3)
	if r3.Cached || r3.Epoch != 1 {
		t.Fatalf("route after /fail = %+v; want computed at epoch 1", r3)
	}
	postJSON(t, srv, "/batch", map[string]any{"requests": []RouteRequest{
		{Deployment: dep.Name, Algorithm: "GF", Src: pair[0], Dst: pair[1]},
	}}, &br)
	if br.Results[0].Epoch != 1 {
		t.Fatalf("/batch after /fail = %+v; want epoch 1", br.Results)
	}
	for _, u := range r3.Path {
		if u == mid {
			t.Fatalf("post-fail path still visits dead node %d: %v", mid, r3.Path)
		}
	}

	// /stats reflects the traffic.
	statsResp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Deployments != 1 || st.Routes == 0 || st.CacheHits == 0 || st.FailedNodes != 1 {
		t.Fatalf("/stats = %+v", st)
	}
}

func TestHTTPErrors(t *testing.T) {
	s := New(Config{})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Wrong method.
	resp, err := http.Get(srv.URL + "/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /route status = %d", resp.StatusCode)
	}

	// Unknown model.
	if resp := postJSON(t, srv, "/deploy", map[string]any{"model": "xx", "n": 10}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/deploy bad model status = %d", resp.StatusCode)
	}

	// Unknown field (strict decoding).
	if resp := postJSON(t, srv, "/route", map[string]any{"bogus": 1}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/route bogus field status = %d", resp.StatusCode)
	}

	// Route before deploy.
	if resp := postJSON(t, srv, "/route", map[string]any{
		"deployment": "nope", "algorithm": "SLGF2", "src": 0, "dst": 1,
	}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("/route unknown deployment status = %d", resp.StatusCode)
	}

	// Conflicting re-deploy.
	postJSON(t, srv, "/deploy", map[string]any{"name": "d", "model": "ia", "n": 50, "seed": 1}, nil)
	if resp := postJSON(t, srv, "/deploy", map[string]any{"name": "d", "model": "ia", "n": 60, "seed": 1}, nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting /deploy status = %d", resp.StatusCode)
	}
}
