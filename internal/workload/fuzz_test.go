package workload

import (
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
