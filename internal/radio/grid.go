package radio

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
)

// This file implements the spatial index behind Neighbors: a uniform
// grid over the simulation plane whose cell side equals the PHY range,
// so a range query only inspects the 3x3 block of cells around the
// querying device instead of every device in the world.
//
// The query-epoch snapshot rule: a worldView freezes every device's
// state and position for one (technology, modeled elapsed) pair. All
// positions are evaluated exactly once per epoch — not once per pair as
// the brute-force oracle does — and the view is cached, so the many
// Neighbors queries of one discovery round (every daemon scanning at
// the same modeled instant) share a single O(n) snapshot and each pay
// only the O(occupancy) cell scan. Any world mutation (Add, Remove,
// SetPowered, SetCoverage, SetModel) bumps a generation counter that
// invalidates the cache, so a view can never serve stale state: a
// cached view is reused only when both the modeled time and the
// generation match, which makes the grid path answer-for-answer
// identical to the brute-force oracle (the differential property suite
// asserts byte-identical results over randomized worlds).

// cellKey addresses one square cell of the uniform grid.
type cellKey struct {
	x, y int64
}

// viewState is one device's frozen flags inside a worldView.
type viewState struct {
	powered  bool
	coverage bool
	hasRadio bool
}

// worldView is an immutable snapshot of the world for one technology at
// one query epoch. Once built it is read without locks. Devices sit in
// parallel slices sorted by ID, so a device's index orders it exactly
// as its ID does: grid cells hold indices, a query finds itself by
// binary search and sorts the indices it found instead of strings.
type worldView struct {
	elapsed time.Duration
	gen     uint64
	phy     PHY
	valid   bool // a real technology, one devices can carry
	ids     []ids.DeviceID
	pos     []geo.Point
	state   []viewState
	// grid holds only devices eligible to carry traffic (powered, radio
	// present); nil for unlimited-range technologies.
	grid map[cellKey][]int32
	cell float64
}

// cellOf maps a position to its grid cell for the given cell side.
func cellOf(p geo.Point, cell float64) cellKey {
	return cellKey{x: int64(math.Floor(p.X / cell)), y: int64(math.Floor(p.Y / cell))}
}

// viewCacheSize bounds how many query epochs stay cached per
// technology. One slot is not enough: concurrent discovery rounds
// straddle an epoch boundary (some devices already in the next epoch
// while stragglers finish the previous one), and with a single slot
// their interleaved queries evict each other's snapshot on every call
// — each rebuilding the O(n) view the cache exists to amortize. A few
// slots cover every epoch a staggered round can have in flight.
const viewCacheSize = 4

// view returns the snapshot for (tech, elapsed), reusing a cached one
// when both the modeled time and the world generation match. Misses
// are single-flighted through buildMu: at a new epoch every device
// queries at once, and without the gate each concurrent miss would
// redundantly build the same O(n) snapshot.
func (e *Environment) view(tech Technology, elapsed time.Duration) *worldView {
	e.mu.RLock()
	gen := e.gen
	e.mu.RUnlock()
	if v := e.cachedView(tech, elapsed, gen); v != nil {
		return v
	}
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	if v := e.cachedView(tech, elapsed, gen); v != nil {
		return v // built while we waited for the gate
	}
	v := e.buildView(tech, elapsed)
	e.viewMu.Lock()
	kept := append(make([]*worldView, 0, viewCacheSize), v)
	for _, o := range e.views[tech] {
		if len(kept) == viewCacheSize {
			break
		}
		if o.gen == gen { // stale generations can never hit again
			kept = append(kept, o)
		}
	}
	e.views[tech] = kept
	e.viewMu.Unlock()
	return v
}

// cachedView scans the technology's cached epochs for an exact
// (elapsed, gen) match.
func (e *Environment) cachedView(tech Technology, elapsed time.Duration, gen uint64) *worldView {
	e.viewMu.Lock()
	defer e.viewMu.Unlock()
	for _, v := range e.views[tech] {
		if v.elapsed == elapsed && v.gen == gen {
			return v
		}
	}
	return nil
}

// buildView takes the O(n) snapshot: device states are copied under the
// read lock, then positions are evaluated outside it (mobility models
// do their own locking and memoization).
func (e *Environment) buildView(tech Technology, elapsed time.Duration) *worldView {
	type devCopy struct {
		id    ids.DeviceID
		model mobility.Model
		viewState
	}
	valid := tech.Valid()
	e.mu.RLock()
	gen := e.gen
	copies := make([]devCopy, 0, len(e.devices))
	for _, d := range e.devices {
		if !d.present {
			continue
		}
		st := viewState{powered: d.powered, coverage: d.coverage, hasRadio: valid && d.radios[tech]}
		copies = append(copies, devCopy{id: d.id, model: d.model, viewState: st})
	}
	e.mu.RUnlock()
	slices.SortFunc(copies, func(a, b devCopy) int { return cmp.Compare(a.id, b.id) })

	phy := e.PHY(tech)
	v := &worldView{
		elapsed: elapsed,
		gen:     gen,
		phy:     phy,
		valid:   valid,
		ids:     make([]ids.DeviceID, len(copies)),
		pos:     make([]geo.Point, len(copies)),
		state:   make([]viewState, len(copies)),
		cell:    phy.Range,
	}
	ranged := valid && !phy.Unlimited()
	if ranged {
		v.grid = make(map[cellKey][]int32, len(copies))
	}
	for i, c := range copies {
		pos := c.model.Position(elapsed)
		v.ids[i], v.pos[i], v.state[i] = c.id, pos, c.viewState
		if ranged && c.powered && c.hasRadio {
			k := cellOf(pos, v.cell)
			v.grid[k] = append(v.grid[k], int32(i))
		}
	}
	return v
}

// neighborsInView answers a Neighbors query against a frozen view. For
// ranged technologies only the 3x3 cell block around the querying
// device is scanned — a cell side equal to the range guarantees every
// device within range lies in that block. The distance predicate is the
// same `<= Range` the brute-force oracle applies, so the two paths
// agree exactly, boundary cases included.
func (v *worldView) neighborsInView(id ids.DeviceID) []ids.DeviceID {
	if !v.valid {
		return nil
	}
	self, ok := slices.BinarySearch(v.ids, id)
	if !ok || !v.state[self].powered || !v.state[self].hasRadio {
		return nil
	}
	var out []ids.DeviceID
	if v.phy.Unlimited() {
		// Cellular: geometric position is irrelevant; coverage matters.
		if !v.state[self].coverage {
			return nil
		}
		for i, st := range v.state {
			if i != self && st.powered && st.hasRadio && st.coverage {
				out = append(out, v.ids[i])
			}
		}
		return out
	}
	at := v.pos[self]
	c := cellOf(at, v.cell)
	var buf [64]int32
	found := buf[:0]
	for dx := int64(-1); dx <= 1; dx++ {
		for dy := int64(-1); dy <= 1; dy++ {
			for _, i := range v.grid[cellKey{x: c.x + dx, y: c.y + dy}] {
				if int(i) != self && at.DistanceTo(v.pos[i]) <= v.phy.Range {
					found = append(found, i)
				}
			}
		}
	}
	slices.Sort(found)
	if len(found) > 0 {
		out = make([]ids.DeviceID, len(found))
		for k, i := range found {
			out[k] = v.ids[i]
		}
	}
	return out
}
