package catalog

// Zone maps and shards.
//
// A zone is a fixed-granularity horizontal block of a table carrying
// per-column min/max bounds ("small materialized aggregates"). Zones are a
// pure function of the table contents — their granularity never depends on
// the shard count, the worker count, or any session knob. That is the load-
// bearing property behind shard-count-invariant execution: pruning decisions
// are taken per zone, so the set of surviving rows (and therefore the global
// morsel list, the result heap, and the merged profile) is identical whether
// those zones are grouped into 1, 2, 4, or 8 shards.
//
// A shard is a contiguous, zone-aligned group of rows: shard k of n covers
// zones [k*Z/n, (k+1)*Z/n). A shard is only a row range and the zones it
// owns; it is prunable wholesale exactly when all of its zones are pruned.

// zoneRowsMin/zoneRowsMax clamp the per-table zone granularity.
const (
	zoneRowsMin = 256
	zoneRowsMax = 8192
	// zoneTargetCount is the target number of zones per table; granularity
	// is rows/zoneTargetCount rounded down to a power of two and clamped.
	zoneTargetCount = 64
)

// ZoneRowsFor returns the zone granularity for a table of n rows: a power
// of two near n/zoneTargetCount, clamped to [zoneRowsMin, zoneRowsMax].
// Deterministic in n only — the same table always zones the same way.
func ZoneRowsFor(n int) int64 {
	target := n / zoneTargetCount
	z := int64(zoneRowsMin)
	for z*2 <= int64(target) && z*2 <= zoneRowsMax {
		z *= 2
	}
	return z
}

// Bound is a closed [Min, Max] value interval for one column over a row
// range. Empty ranges are represented with Min > Max.
type Bound struct {
	Min, Max int64
}

// Empty reports whether the bound covers no values.
func (b Bound) Empty() bool { return b.Min > b.Max }

// Zone is one fixed-granularity row block with per-column bounds.
type Zone struct {
	Index  int     // position in the table's zone list
	Lo, Hi int64   // row range [Lo, Hi)
	Bounds []Bound // per table column position, parallel to Table.Cols
}

// Rows returns the number of rows the zone covers.
func (z Zone) Rows() int64 { return z.Hi - z.Lo }

// Shard is a contiguous zone-aligned row group.
type Shard struct {
	ID     int
	Lo, Hi int64  // row range [Lo, Hi)
	Zones  []Zone // the zones the shard owns (views into TableView.Zones())
}

// Rows returns the shard's row count.
func (s Shard) Rows() int64 { return s.Hi - s.Lo }

func buildZones(cols [][]int64, n int64) []Zone {
	if n == 0 {
		return []Zone{}
	}
	zr := ZoneRowsFor(int(n))
	zones := make([]Zone, 0, (n+zr-1)/zr)
	for lo := int64(0); lo < n; lo += zr {
		hi := lo + zr
		if hi > n {
			hi = n
		}
		z := Zone{Index: len(zones), Lo: lo, Hi: hi, Bounds: make([]Bound, len(cols))}
		for ci, c := range cols {
			seg := c[lo:hi]
			b := Bound{Min: seg[0], Max: seg[0]}
			for _, v := range seg[1:] {
				if v < b.Min {
					b.Min = v
				}
				if v > b.Max {
					b.Max = v
				}
			}
			z.Bounds[ci] = b
		}
		zones = append(zones, z)
	}
	return zones
}

// shardsOf groups a zone map into n contiguous shards: shard k receives
// zones [k*Z/n, (k+1)*Z/n) — the same arithmetic as morsel striping, so
// shard boundaries are a pure function of (zone count, n). n <= 1 yields a
// single shard covering every row, and n never exceeds the zone count.
func shardsOf(zones []Zone, n int) []Shard {
	if len(zones) == 0 {
		return []Shard{{}}
	}
	n = min(max(n, 1), len(zones))
	out := make([]Shard, 0, n)
	z := len(zones)
	for k := 0; k < n; k++ {
		zlo, zhi := k*z/n, (k+1)*z/n
		if zlo == zhi {
			continue
		}
		group := zones[zlo:zhi]
		out = append(out, Shard{ID: len(out), Lo: group[0].Lo, Hi: group[len(group)-1].Hi, Zones: group})
	}
	return out
}
