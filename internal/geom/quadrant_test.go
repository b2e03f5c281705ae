package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestZoneTypeOf(t *testing.T) {
	u := Pt(10, 10)
	tests := []struct {
		name string
		d    Point
		want ZoneType
	}{
		{name: "NE interior", d: Pt(15, 14), want: Zone1},
		{name: "NW interior", d: Pt(4, 14), want: Zone2},
		{name: "SW interior", d: Pt(4, 2), want: Zone3},
		{name: "SE interior", d: Pt(15, 2), want: Zone4},
		{name: "due east", d: Pt(15, 10), want: Zone1},
		{name: "due north", d: Pt(10, 14), want: Zone1},
		{name: "due west", d: Pt(4, 10), want: Zone2},
		{name: "due south", d: Pt(10, 4), want: Zone4},
		{name: "coincident", d: Pt(10, 10), want: Zone1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ZoneTypeOf(u, tt.d); got != tt.want {
				t.Errorf("ZoneTypeOf(%v, %v) = %v, want %v", u, tt.d, got, tt.want)
			}
		})
	}
}

func TestZoneOpposite(t *testing.T) {
	wants := map[ZoneType]ZoneType{Zone1: Zone3, Zone2: Zone4, Zone3: Zone1, Zone4: Zone2}
	for z, want := range wants {
		if got := z.Opposite(); got != want {
			t.Errorf("%v.Opposite() = %v, want %v", z, got, want)
		}
		if got := z.Opposite().Opposite(); got != z {
			t.Errorf("double opposite of %v = %v", z, got)
		}
	}
}

func TestZoneValidString(t *testing.T) {
	for _, z := range AllZones {
		if !z.Valid() {
			t.Errorf("%v not valid", z)
		}
		if z.String() == "" {
			t.Errorf("empty String for %v", z)
		}
	}
	if ZoneType(0).Valid() || ZoneType(5).Valid() {
		t.Error("out-of-range zone type reported valid")
	}
	if got := ZoneType(7).String(); got != "Z?(7)" {
		t.Errorf("ZoneType(7).String() = %q", got)
	}
}

// Every point other than u lies in exactly one forwarding zone of u, and
// that zone agrees with ZoneTypeOf. This partition property is what makes
// the four-type safety tuple well defined.
func TestForwardingZonePartition(t *testing.T) {
	prop := func(ux, uy, px, py float64) bool {
		u, p := Pt(ux, uy), Pt(px, py)
		if u == p {
			for _, z := range AllZones {
				if InForwardingZone(u, z, p) {
					return false
				}
			}
			return true
		}
		count := 0
		var member ZoneType
		for _, z := range AllZones {
			if InForwardingZone(u, z, p) {
				count++
				member = z
			}
		}
		return count == 1 && member == ZoneTypeOf(u, p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("forwarding zones do not partition the plane: %v", err)
	}
}

func TestRequestZone(t *testing.T) {
	u, d := Pt(5, 9), Pt(1, 2)
	r := RequestZone(u, d)
	if r != FromCorners(Pt(1, 2), Pt(5, 9)) {
		t.Errorf("RequestZone = %v", r)
	}
	if !InRequestZone(u, d, Pt(3, 5)) {
		t.Error("interior point not in request zone")
	}
	if InRequestZone(u, d, u) {
		t.Error("u must not be in its own request zone")
	}
	if !InRequestZone(u, d, d) {
		t.Error("destination must be in the request zone")
	}
	if InRequestZone(u, d, Pt(6, 5)) {
		t.Error("point outside rectangle accepted")
	}
}

// Advancing inside a request zone shrinks it: Z(v,d) ⊆ Z(u,d) for any
// v ∈ Z(u,d). This is the loop-freedom argument for the greedy phase.
func TestRequestZoneMonotone(t *testing.T) {
	prop := func(ux, uy, dx, dy, t1, t2 float64) bool {
		// Bound coordinates: astronomically large values overflow Width().
		bound := func(v float64) float64 { return math.Mod(v, 1e6) }
		u, d := Pt(bound(ux), bound(uy)), Pt(bound(dx), bound(dy))
		z := RequestZone(u, d)
		// Build a point inside Z(u,d) from two unit interval parameters.
		frac := func(v float64) float64 {
			v = math.Mod(v, 1)
			if v < 0 {
				v++
			}
			return v
		}
		v := Pt(z.Min.X+frac(t1)*z.Width(), z.Min.Y+frac(t2)*z.Height())
		zv := RequestZone(v, d)
		return z.Contains(zv.Min) && z.Contains(zv.Max)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("request zone not monotone: %v", err)
	}
}

// Opposite returns the zone type of u as seen from d when d sees u with
// type z: the paper's k' = (k+2) Mod 4 mapping (1↔3, 2↔4).
func (z ZoneType) Opposite() ZoneType {
	return ZoneType((int(z)+1)%NumZones + 1)
}

// Valid reports whether z is one of the four defined zone types.
func (z ZoneType) Valid() bool { return z >= Zone1 && z <= Zone4 }
