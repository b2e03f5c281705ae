package workload

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzParseScenario feeds arbitrary bytes to the scenario decoder,
// seeded with the example scenario files and two scenarios with empty
// lists. Parse must never panic, and a
// scenario it accepts must survive json.Marshal → Parse unchanged:
// Validate's defaults and normalization are a fixed point, and nothing
// it accepts is lost on the wire.
func FuzzParseScenario(f *testing.F) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		f.Fatalf("no example scenarios (%v)", err)
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// Empty lists, which the wire drops (omitempty).
	f.Add([]byte(`{"name":"x","deployment":{"model":"fa","n":10,"seed":1},"algorithm":"GF",` +
		`"arrival":{"process":"closed","requests":1},"traffic":{"pattern":"uniform"},"churn":[]}`))
	f.Add([]byte(`{"name":"x","deployment":{"model":"ia","n":10,"seed":1},"algorithm":"GF",` +
		`"arrival":{"process":"closed","requests":1},"traffic":{"pattern":"zipf"},` +
		`"churn":[{"at_ms":1,"fail":[],"revive":[],"fail_random":1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return
		}
		wire, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		again, err := Parse(wire)
		if err != nil {
			t.Fatalf("marshaled scenario rejected: %v\n%s", err, wire)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("scenario changed over the wire:\nparsed  %+v\nreparsed %+v\nwire %s", sc, again, wire)
		}
	})
}

// FuzzReadTrace feeds arbitrary bytes to the JSONL trace decoder,
// seeded with the reference trace, a short trace with fail, revive and
// move lines, and the documents TestReadTraceRejectsGarbage rejects.
// ReadTrace must never panic, and a trace it accepts must replay
// in-process without a panic: a bad node or a bad mutation is an error
// of the replay, not a crash. Traces over deployments of more than 400
// nodes or with more than 2000 lines are only decoded, so that one
// input builds and replays in milliseconds.
func FuzzReadTrace(f *testing.F) {
	ref, err := os.ReadFile("../../.github/perf/reference.trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ref)
	f.Add([]byte(`{"t":"h","v":1,"scenario":"x","deployment":{"model":"ob","n":120,"seed":3,"coverage":0.2},"algorithm":"GPSR"}
{"t":"r","at":5,"src":1,"dst":90}
{"t":"f","at":10,"nodes":[7,7,300]}
{"t":"m","at":20,"moves":[{"node":90,"x":1,"y":2},{"node":90,"x":3,"y":4}]}
{"t":"r","at":20,"src":90,"dst":1}
{"t":"v","at":30,"nodes":[7]}
{"t":"s","requests":2,"delivered":2,"errors":0}`))
	for _, doc := range garbageTraces {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil || tr.Header.Deploy.N > 400 || len(tr.Events) > 2000 {
			return
		}
		_, _ = Replay(newInProcess(), tr, ReplayOptions{Concurrency: 2}) // a replay error is fine; a panic is not
	})
}
