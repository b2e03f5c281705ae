package core

import (
	"math"

	"github.com/straightpath/wasn/internal/geom"
	"github.com/straightpath/wasn/internal/topo"
)

// The reference scans are the straight-line implementations the packed
// scans in engine.go replaced, kept as executable documentation and as
// the oracle of the differential route tests: same semantics, one
// candidate at a time, no unrolling, no bitset shortcuts. Any change to
// selection semantics must land in both halves or the differential
// tests fail.

// referenceScans is the oracle setReferenceScans installs.
var referenceScans = &scanSet{
	requestZone:    refGreedyInRequestZone,
	forwardingZone: refGreedyInForwardingZone,
	closest:        refGreedyClosest,
	sweep:          refSweepScan,
}

// setReferenceScans routes every candidate scan through the reference
// scans (on) or the packed ones (off). Not synchronized: call it
// serially, with no route in flight.
func setReferenceScans(on bool) {
	scanOracle = nil
	if on {
		scanOracle = referenceScans
	}
}

func refGreedyInRequestZone(st *state, f scanFilter) topo.NodeID {
	up := st.net.Pos(st.cur)
	best := topo.NoNode
	bestPreferred := false
	bestDist := math.MaxFloat64
	for _, v := range st.net.Neighbors(st.cur) {
		pv := st.net.Pos(v)
		if !geom.InRequestZone(up, st.dstPos, pv) {
			continue
		}
		if !f.accept(st.dstPos, v, pv) {
			continue
		}
		pref := st.prefers(v)
		d := geom.Dist2(pv, st.dstPos)
		// Preferred candidates strictly dominate non-preferred ones.
		switch {
		case pref && !bestPreferred:
			best, bestDist, bestPreferred = v, d, true
		case pref == bestPreferred && d < bestDist:
			best, bestDist = v, d
		}
	}
	return best
}

func refGreedyInForwardingZone(st *state, f scanFilter) topo.NodeID {
	up := st.net.Pos(st.cur)
	zone := geom.ZoneTypeOf(up, st.dstPos)
	limit := geom.Dist2(up, st.dstPos)
	best := topo.NoNode
	bestPreferred := false
	bestDist := limit
	for _, v := range st.net.Neighbors(st.cur) {
		pv := st.net.Pos(v)
		if !geom.InForwardingZone(up, zone, pv) {
			continue
		}
		d := geom.Dist2(pv, st.dstPos)
		if d >= limit {
			continue // must make progress
		}
		if !f.accept(st.dstPos, v, pv) {
			continue
		}
		pref := st.prefers(v)
		switch {
		case pref && !bestPreferred:
			best, bestDist, bestPreferred = v, d, true
		case pref == bestPreferred && d < bestDist:
			best, bestDist = v, d
		}
	}
	return best
}

func refGreedyClosest(st *state) topo.NodeID {
	up := st.net.Pos(st.cur)
	limit := geom.Dist2(up, st.dstPos)
	best := topo.NoNode
	bestDist := limit
	for _, v := range st.net.Neighbors(st.cur) {
		d := geom.Dist2(st.net.Pos(v), st.dstPos)
		if d < bestDist {
			best, bestDist = v, d
		}
	}
	return best
}

func refSweepScan(st *state, hand Hand, f scanFilter) (topo.NodeID, float64, int) {
	up := st.net.Pos(st.cur)
	from := geom.Angle(up, st.dstPos)
	row := st.net.AdjacencyRow(st.cur)
	angs := st.net.AdjacencyAngles(st.cur)
	base := st.net.AdjOffset(st.cur)
	checkAlive := st.net.DeadCount() > 0
	best := topo.NoNode
	bestPreferred := false
	bestDelta := math.MaxFloat64
	bestSlot := -1
	for j, v := range row {
		if checkAlive && !st.net.Alive(v) {
			continue
		}
		if st.tried[base+j] == st.triedGen {
			continue
		}
		pv := st.net.Pos(v)
		if !f.accept(st.dstPos, v, pv) {
			continue
		}
		pref := !st.confined || st.confine.Contains(pv)
		delta := hand.sweepDelta(from, angs[j])
		switch {
		case pref && !bestPreferred:
			best, bestDelta, bestPreferred, bestSlot = v, delta, true, base+j
		case pref == bestPreferred && delta < bestDelta:
			best, bestDelta, bestSlot = v, delta, base+j
		}
	}
	return best, bestDelta, bestSlot
}
