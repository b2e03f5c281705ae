package fleet

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// FuzzSnapshot throws arbitrary bytes at the snapshot decoder. The
// contract under fuzz: never panic, never over-allocate from
// attacker-chosen count fields, and for every input it accepts, the
// decoded snapshot must re-encode to the exact same bytes (the format
// has one canonical encoding, which is what makes the CRC meaningful).
func FuzzSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(snapshotMagic))
	f.Add(EncodeSnapshot(Snapshot{}))
	f.Add(EncodeSnapshot(sampleSnapshot()))
	f.Add(EncodeSnapshot(Snapshot{
		TakenUnixMS: 7,
		States: []serve.DeploymentState{{
			Name:   "",
			Spec:   serve.Spec{Model: topo.ModelIA, N: 1, Seed: 0},
			Failed: []topo.NodeID{0},
			Moved:  []topo.Move{{Node: 0, X: -1.5, Y: 1e300}},
			Epoch:  1<<64 - 1,
		}},
	}))
	// A body-cut snapshot with a valid CRC: forces the fuzzer past the
	// checksum into the structural bounds checks.
	full := EncodeSnapshot(sampleSnapshot())
	f.Add(withCRC(full[: len(full)-40 : len(full)-40]))

	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSnapshot(b)
		if err != nil {
			return
		}
		if got := EncodeSnapshot(s); !bytes.Equal(got, b) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", b, got)
		}
	})
}

// sameResponses compares decoded results field by field, with lengths
// compared bitwise so a NaN decoded from the wire equals itself.
func sameResponses(a, b []serve.RouteResponse) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if math.Float64bits(x.Length) != math.Float64bits(y.Length) {
			return false
		}
		x.Length, y.Length = 0, 0
		if !reflect.DeepEqual(x, y) {
			return false
		}
	}
	return true
}

// FuzzDecodeBatchRequest throws arbitrary bytes at the binary batch
// request decoder: it must never panic, and every payload it accepts is
// the one canonical encoding of the requests it decoded to.
func FuzzDecodeBatchRequest(f *testing.F) {
	reqs := []serve.RouteRequest{
		{Deployment: "FA-800-42", Algorithm: "GF", Src: 3, Dst: 441},
		{Deployment: "FA-800-42", Algorithm: "GF", Src: -1, Dst: 1 << 40},
		{Deployment: "IA-300-1", Algorithm: "SLGF2", Src: 0, Dst: 0},
		{Deployment: "", Algorithm: "", Src: 7, Dst: 8},
	}
	full := encodeBatchRequest(9, reqs)
	f.Add([]byte{})
	f.Add(encodeBatchRequest(0, nil))
	f.Add(full)
	f.Add(full[:len(full)-3])
	f.Add(append(full[:4:4], 0xff, 0xff, 0xff, 0xff))

	f.Fuzz(func(t *testing.T, b []byte) {
		id, got, err := decodeBatchRequest(b)
		if err != nil {
			return
		}
		if enc := encodeBatchRequest(id, got); !bytes.Equal(enc, b) {
			t.Fatalf("accepted input is not canonical:\n in  %x\n out %x", b, enc)
		}
		id2, again, err := decodeBatchRequest(b)
		if err != nil || id2 != id || !reflect.DeepEqual(again, got) {
			t.Fatalf("re-decode differs: %v %v %+v vs %+v", err, id2, again, got)
		}
	})
}

// FuzzDecodeBatchChunk throws arbitrary bytes at the result chunk
// decoder: it must never panic, and whatever it accepts must survive an
// encode→decode round trip unchanged. (Bytes are not compared: unused
// flag bits and an empty flagged string decode to the same results as
// their canonical encoding.)
func FuzzDecodeBatchChunk(f *testing.F) {
	results := []serve.RouteResponse{
		{Delivered: true, Hops: 7, Length: 123.5, Cached: true},
		{Hops: 3, Length: 40, Reason: "ttl-exceeded"},
		{Err: "serve: unknown deployment \"x\""},
		{Length: math.NaN(), Reason: "no-candidate", Err: "both"},
	}
	full := encodeBatchChunk(4, 512, results)
	f.Add([]byte{})
	f.Add(encodeBatchChunk(0, 0, nil))
	f.Add(full)
	f.Add(full[:len(full)-5])
	f.Add(append(full[:8:8], 0xff, 0xff, 0, 0))

	f.Fuzz(func(t *testing.T, b []byte) {
		id, start, got, err := decodeBatchChunk(b)
		if err != nil {
			return
		}
		id2, start2, again, err := decodeBatchChunk(encodeBatchChunk(id, start, got))
		if err != nil || id2 != id || start2 != start || !sameResponses(again, got) {
			t.Fatalf("round trip differs: %v (%d,%d) %+v vs (%d,%d) %+v", err, id2, start2, again, id, start, got)
		}
	})
}
