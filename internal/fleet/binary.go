package fleet

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"github.com/straightpath/wasn/internal/serve"
	"github.com/straightpath/wasn/internal/topo"
)

// The binary batch transport: hand-rolled length-prefixed frames over a
// persistent TCP connection, replacing per-request HTTP/JSON for
// /batch-shaped traffic. A frame is
//
//	u32  length (type byte + payload, little-endian)
//	u8   type
//	...  payload
//
// The client writes one request frame and reads response frames until
// the terminator; batch results stream back in bounded chunks, so a
// 100k-route batch never materialises as one giant frame on either
// side. Strings are u16-length-prefixed; node ids are two's-complement
// u64 so the server — not the transport — rejects out-of-range ids with
// the same errors the JSON surface produces.
const (
	frameBatch      = 1 // client → server: batch route request
	framePing       = 2 // client → server: liveness probe, payload echoed
	frameBatchChunk = 3 // server → client: a run of batch results
	frameBatchEnd   = 4 // server → client: batch terminator
	frameError      = 5 // server → client: top-level protocol error
	framePong       = 6 // server → client: ping echo
)

// maxFrameLen bounds a single frame on the read side. Request chunks of
// batchChunkSize results stay far below it; anything larger is a
// corrupt or hostile stream.
const maxFrameLen = 16 << 20

// batchChunkSize is the number of results per streamed response chunk.
const batchChunkSize = 512

// maxBatchRequests bounds one batch frame, mirroring the HTTP surface's
// body limit (a request encodes to ≥26 bytes, and 8 MiB of those is
// ~300k requests).
const maxBatchRequests = 1 << 19

// writeFrame sends one frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	hdr := make([]byte, 5, 5+len(payload))
	binary.LittleEndian.PutUint32(hdr, uint32(1+len(payload)))
	hdr[4] = typ
	_, err := w.Write(append(hdr, payload...))
	return err
}

// readFrame reads one frame, rejecting oversized lengths before
// allocating for them.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxFrameLen {
		return 0, nil, fmt.Errorf("fleet: frame length %d out of range (0, %d]", n, maxFrameLen)
	}
	payload := make([]byte, n-1)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[4], payload, nil
}

func appendString16(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// string16 reads a u16-length-prefixed string. It returns prev itself,
// not a fresh copy, when the bytes equal it: a batch repeats its
// deployment and algorithm names, so passing the previous request's
// decodes them without an allocation per request.
func (r *snapReader) string16(prev string) (string, bool) {
	n, ok := r.u16()
	if !ok {
		return "", false
	}
	b, ok := r.take(int(n))
	if !ok {
		return "", false
	}
	if string(b) == prev {
		return prev, true
	}
	return string(b), true
}

// encodeBatchRequest builds a frameBatch payload.
func encodeBatchRequest(id uint32, reqs []serve.RouteRequest) []byte {
	b := make([]byte, 0, 8+32*len(reqs))
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(reqs)))
	for _, q := range reqs {
		b = appendString16(b, q.Deployment)
		b = appendString16(b, q.Algorithm)
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(q.Src)))
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(q.Dst)))
	}
	return b
}

func decodeBatchRequest(payload []byte) (id uint32, reqs []serve.RouteRequest, err error) {
	r := &snapReader{b: payload}
	id, ok := r.u32()
	count, ok2 := r.u32()
	if !ok || !ok2 {
		return id, nil, fmt.Errorf("fleet: truncated batch header")
	}
	if count > maxBatchRequests {
		return id, nil, fmt.Errorf("fleet: batch of %d requests exceeds limit %d", count, maxBatchRequests)
	}
	// A request is at least 20 bytes on the wire; reject counts the
	// payload cannot hold before allocating.
	if int64(count)*20 > int64(len(payload)) {
		return id, nil, fmt.Errorf("fleet: batch count %d exceeds frame", count)
	}
	reqs = make([]serve.RouteRequest, 0, count)
	var prev serve.RouteRequest
	for i := uint32(0); i < count; i++ {
		var q serve.RouteRequest
		if q.Deployment, ok = r.string16(prev.Deployment); !ok {
			return id, nil, fmt.Errorf("fleet: batch request %d truncated", i)
		}
		if q.Algorithm, ok = r.string16(prev.Algorithm); !ok {
			return id, nil, fmt.Errorf("fleet: batch request %d truncated", i)
		}
		src, ok1 := r.u64()
		dst, ok2 := r.u64()
		if !ok1 || !ok2 {
			return id, nil, fmt.Errorf("fleet: batch request %d truncated", i)
		}
		q.Src = topo.NodeID(int64(src))
		q.Dst = topo.NodeID(int64(dst))
		reqs = append(reqs, q)
		prev = q
	}
	if r.off != len(payload) {
		return id, nil, fmt.Errorf("fleet: %d trailing bytes in batch frame", len(payload)-r.off)
	}
	return id, reqs, nil
}

// Result flag bits.
const (
	flagDelivered = 1 << 0
	flagCached    = 1 << 1
	flagReason    = 1 << 2
	flagErr       = 1 << 3
)

// appendResult encodes one RouteResponse as
//
//	u8 flags, u32 hops, f64 length, u64 epoch,
//	[string16 reason if flagReason], [string16 error if flagErr]
//
// (paths never cross the binary transport: batch traffic wants the
// aggregate outcome, same as the JSON /batch surface).
func appendResult(b []byte, res serve.RouteResponse) []byte {
	var flags byte
	if res.Delivered {
		flags |= flagDelivered
	}
	if res.Cached {
		flags |= flagCached
	}
	if res.Reason != "" {
		flags |= flagReason
	}
	if res.Err != "" {
		flags |= flagErr
	}
	b = append(b, flags)
	b = binary.LittleEndian.AppendUint32(b, uint32(res.Hops))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(res.Length))
	b = binary.LittleEndian.AppendUint64(b, res.Epoch)
	if res.Reason != "" {
		b = appendString16(b, res.Reason)
	}
	if res.Err != "" {
		b = appendString16(b, res.Err)
	}
	return b
}

func (r *snapReader) result() (serve.RouteResponse, bool) {
	var res serve.RouteResponse
	flags, ok := r.u8()
	if !ok {
		return res, false
	}
	hops, ok := r.u32()
	if !ok {
		return res, false
	}
	length, ok := r.f64()
	if !ok {
		return res, false
	}
	if res.Epoch, ok = r.u64(); !ok {
		return res, false
	}
	res.Delivered = flags&flagDelivered != 0
	res.Cached = flags&flagCached != 0
	res.Hops = int(hops)
	res.Length = length
	if flags&flagReason != 0 {
		if res.Reason, ok = r.string16(""); !ok {
			return res, false
		}
	}
	if flags&flagErr != 0 {
		if res.Err, ok = r.string16(""); !ok {
			return res, false
		}
	}
	return res, true
}

// resultMinLen is the size of a result record without strings.
const resultMinLen = 1 + 4 + 8 + 8

// encodeBatchChunk builds a frameBatchChunk payload for results
// [start, start+len(results)).
func encodeBatchChunk(id uint32, start int, results []serve.RouteResponse) []byte {
	b := make([]byte, 0, 12+16*len(results))
	b = binary.LittleEndian.AppendUint32(b, id)
	b = binary.LittleEndian.AppendUint32(b, uint32(start))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(results)))
	for _, res := range results {
		b = appendResult(b, res)
	}
	return b
}

func decodeBatchChunk(payload []byte) (id uint32, start int, results []serve.RouteResponse, err error) {
	r := &snapReader{b: payload}
	id, ok := r.u32()
	st, ok2 := r.u32()
	count, ok3 := r.u32()
	if !ok || !ok2 || !ok3 {
		return id, 0, nil, fmt.Errorf("fleet: truncated chunk header")
	}
	if int64(count)*resultMinLen > int64(len(payload)) {
		return id, 0, nil, fmt.Errorf("fleet: chunk count %d exceeds frame", count)
	}
	results = make([]serve.RouteResponse, 0, count)
	for i := uint32(0); i < count; i++ {
		res, ok := r.result()
		if !ok {
			return id, 0, nil, fmt.Errorf("fleet: chunk result %d truncated", i)
		}
		results = append(results, res)
	}
	if r.off != len(payload) {
		return id, 0, nil, fmt.Errorf("fleet: %d trailing bytes in chunk frame", len(payload)-r.off)
	}
	return id, int(st), results, nil
}

// encodeBatchEnd builds the frameBatchEnd payload.
func encodeBatchEnd(id uint32, total int) []byte {
	b := make([]byte, 0, 8)
	b = binary.LittleEndian.AppendUint32(b, id)
	return binary.LittleEndian.AppendUint32(b, uint32(total))
}

func decodeBatchEnd(payload []byte) (id uint32, total int, err error) {
	r := &snapReader{b: payload}
	id, ok := r.u32()
	t, ok2 := r.u32()
	if !ok || !ok2 || r.off != len(payload) {
		return id, 0, fmt.Errorf("fleet: malformed batch terminator")
	}
	return id, int(t), nil
}

// encodeError builds a frameError payload.
func encodeError(id uint32, msg string) []byte {
	return appendString16(binary.LittleEndian.AppendUint32(nil, id), msg)
}

func decodeError(payload []byte) (uint32, string) {
	r := &snapReader{b: payload}
	id, _ := r.u32()
	msg, _ := r.string16("")
	if msg == "" {
		msg = "unspecified protocol error"
	}
	return id, msg
}
