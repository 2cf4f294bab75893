package radio

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/mobility"
	"repro/internal/vtime"
)

// Sentinel errors returned by the environment.
var (
	ErrUnknownDevice  = errors.New("radio: unknown device")
	ErrDuplicateID    = errors.New("radio: duplicate device id")
	ErrInvalidID      = errors.New("radio: invalid device id")
	ErrNoSuchRadio    = errors.New("radio: device has no radio for technology")
	ErrDevicePowered  = errors.New("radio: device is powered off")
	ErrNoGPRSCoverage = errors.New("radio: device has no cellular coverage")
)

// Environment is the simulated world: devices, their radios and their
// movement. All methods are safe for concurrent use. Time flows on the
// supplied clock; modeled elapsed time (which drives mobility) is the
// wall time since creation divided by the latency scale, so a scenario
// that models minutes of walking can run in fractions of a second.
type Environment struct {
	clock vtime.Clock
	scale vtime.Scale
	start time.Time

	// phys is indexed by Technology; set by the options and never
	// written again, so it is read without the lock.
	phys [techSlots]PHY

	// devices holds one record per ID ever added or resolved, present
	// or not. Guarded by mu.
	mu      sync.RWMutex
	devices map[ids.DeviceID]*device
	gen     uint64 // bumped under mu by every world mutation
	moving  int    // devices whose model is not mobility.Static, under mu

	// viewMu guards the per-technology query-epoch snapshot cache (a
	// few recent epochs per technology; see grid.go for the snapshot
	// rule), and buildMu single-flights cache misses so one snapshot
	// build serves every device querying at a new epoch.
	viewMu  sync.Mutex
	views   map[Technology][]*worldView
	buildMu sync.Mutex

	// inqFaults holds the installed inquiry-fault filter (boxed so the
	// interface can be swapped atomically; nil box or nil filter means
	// no faults). Read lock-free on every Neighbors query.
	inqFaults atomic.Pointer[inquiryFaultsBox]
}

// InquiryFaults filters discovery: a Neighbors query by querier only
// reports target when Visible returns true. Reachability (Reachable,
// link checks, monitors) is never filtered — inquiry faults model scans
// missing devices, not links breaking. Implemented by faults.Plan.
type InquiryFaults interface {
	Visible(querier, target ids.DeviceID, tech Technology, elapsed time.Duration) bool
}

type inquiryFaultsBox struct{ f InquiryFaults }

// SetInquiryFaults installs (or, with nil, removes) the discovery fault
// filter. The filter is applied identically to the grid-indexed and
// brute-force neighbor paths, outside the view cache, so the
// differential oracle property is preserved under faults.
func (e *Environment) SetInquiryFaults(f InquiryFaults) {
	if f == nil {
		e.inqFaults.Store(nil)
		return
	}
	e.inqFaults.Store(&inquiryFaultsBox{f: f})
}

// filterInquiry applies the installed inquiry faults to a freshly
// allocated neighbor list (filtered in place).
func (e *Environment) filterInquiry(id ids.DeviceID, tech Technology, elapsed time.Duration, found []ids.DeviceID) []ids.DeviceID {
	box := e.inqFaults.Load()
	if box == nil || box.f == nil || len(found) == 0 {
		return found
	}
	out := found[:0]
	for _, other := range found {
		if box.f.Visible(id, other, tech, elapsed) {
			out = append(out, other)
		}
	}
	return out
}

// techSlots sizes the per-technology arrays; a Technology value
// indexes them directly.
const techSlots = int(GPRS) + 1

// inSlots reports whether t indexes the per-technology arrays.
func inSlots(t Technology) bool { return t >= 0 && int(t) < techSlots }

// device is the one record an ID ever gets: Remove clears present and
// re-Add sets it again, so a Handle resolved at any time reads the
// same record a lookup by ID would. Fields are guarded by
// Environment.mu.
type device struct {
	id       ids.DeviceID
	present  bool // in the world: between Add and Remove
	model    mobility.Model
	radios   [techSlots]bool
	powered  bool
	coverage bool // inside cellular coverage (GPRS)
}

// Option configures an Environment.
type Option func(*Environment)

// WithClock substitutes the time source (default: real clock).
func WithClock(c vtime.Clock) Option {
	return func(e *Environment) { e.clock = c }
}

// WithScale sets the latency scale (default: identity).
func WithScale(s vtime.Scale) Option {
	return func(e *Environment) { e.scale = s }
}

// WithPHY overrides the physical model of one technology.
func WithPHY(p PHY) Option {
	return func(e *Environment) {
		if inSlots(p.Tech) {
			e.phys[p.Tech] = p
		}
	}
}

// NewEnvironment returns an empty world.
func NewEnvironment(opts ...Option) *Environment {
	e := &Environment{
		clock:   vtime.Real(),
		scale:   vtime.Identity(),
		devices: make(map[ids.DeviceID]*device),
		views:   make(map[Technology][]*worldView),
	}
	for _, t := range AllTechnologies() {
		e.phys[t] = DefaultPHY(t)
	}
	for _, opt := range opts {
		opt(e)
	}
	e.start = e.clock.Now()
	return e
}

// Clock returns the environment's time source.
func (e *Environment) Clock() vtime.Clock { return e.clock }

// Scale returns the environment's latency scale.
func (e *Environment) Scale() vtime.Scale { return e.scale }

// PHY returns the physical model for a technology.
func (e *Environment) PHY(t Technology) PHY {
	if !inSlots(t) {
		return PHY{}
	}
	return e.phys[t]
}

// Elapsed returns the modeled time since the environment was created.
func (e *Environment) Elapsed() time.Duration {
	return e.scale.ToModeled(e.clock.Now().Sub(e.start))
}

// Add places a device in the world with the given mobility model and
// radio technologies. Devices start powered on and inside cellular
// coverage.
func (e *Environment) Add(id ids.DeviceID, model mobility.Model, techs ...Technology) error {
	if !id.Valid() {
		return fmt.Errorf("%w: %q", ErrInvalidID, id)
	}
	if model == nil {
		model = mobility.Static{}
	}
	var radios [techSlots]bool
	for _, t := range techs {
		if !t.Valid() {
			return fmt.Errorf("radio: invalid technology %v", t)
		}
		radios[t] = true
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.recordLocked(id)
	if d.present {
		return fmt.Errorf("%w: %q", ErrDuplicateID, id)
	}
	d.present, d.model, d.radios, d.powered, d.coverage = true, model, radios, true, true
	if moves(model) {
		e.moving++
	}
	e.gen++
	return nil
}

// Remove deletes a device from the world. Its record stays, absent, so
// handles resolved before keep answering as lookups by ID do.
func (e *Environment) Remove(id ids.DeviceID) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d := e.lookupLocked(id); d != nil {
		if moves(d.model) {
			e.moving--
		}
		d.present = false
	}
	e.gen++
}

// recordLocked returns id's record, making an absent one on first use.
// Callers hold e.mu for writing.
func (e *Environment) recordLocked(id ids.DeviceID) *device {
	d, ok := e.devices[id]
	if !ok {
		d = &device{id: id}
		e.devices[id] = d
	}
	return d
}

// lookupLocked returns id's record if the device is in the world, or
// nil. Callers hold e.mu.
func (e *Environment) lookupLocked(id ids.DeviceID) *device {
	if d := e.devices[id]; d != nil && d.present {
		return d
	}
	return nil
}

// SetPowered turns a device's radios on or off; a powered-off device is
// invisible and unreachable, which is how tests model a user leaving.
func (e *Environment) SetPowered(id ids.DeviceID, on bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.lookupLocked(id)
	if d == nil {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	d.powered = on
	e.gen++
	return nil
}

// SetCoverage marks whether the device is inside cellular coverage,
// affecting GPRS reachability only.
func (e *Environment) SetCoverage(id ids.DeviceID, covered bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.lookupLocked(id)
	if d == nil {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	d.coverage = covered
	e.gen++
	return nil
}

// SetModel replaces a device's mobility model. The new model receives
// the same elapsed values as the old one (elapsed time since the
// environment was created), so construct it accordingly.
func (e *Environment) SetModel(id ids.DeviceID, model mobility.Model) error {
	if model == nil {
		model = mobility.Static{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.lookupLocked(id)
	if d == nil {
		return fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	if moves(d.model) {
		e.moving--
	}
	if moves(model) {
		e.moving++
	}
	d.model = model
	e.gen++
	return nil
}

// moves reports whether a model can change a device's position over
// time; only mobility.Static is known not to.
func moves(m mobility.Model) bool {
	_, static := m.(mobility.Static)
	return !static
}

// Generation reports the world generation, which every Add, Remove,
// SetPowered, SetCoverage and SetModel bumps, and how many devices
// carry a model other than mobility.Static. While no device moves and
// the generation holds, every reachability answer holds too.
func (e *Environment) Generation() (gen uint64, moving int) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.gen, e.moving
}

// Devices returns all device IDs, sorted, powered or not.
func (e *Environment) Devices() []ids.DeviceID {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]ids.DeviceID, 0, len(e.devices))
	for _, d := range e.devices {
		if d.present {
			out = append(out, d.id)
		}
	}
	slices.Sort(out)
	return out
}

// Has reports whether a device exists.
func (e *Environment) Has(id ids.DeviceID) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.lookupLocked(id) != nil
}

// Position returns a device's current position.
func (e *Environment) Position(id ids.DeviceID) (geo.Point, error) {
	return e.PositionAt(id, e.Elapsed())
}

// PositionAt returns a device's position at the given modeled elapsed
// time.
func (e *Environment) PositionAt(id ids.DeviceID, elapsed time.Duration) (geo.Point, error) {
	e.mu.RLock()
	var model mobility.Model
	d := e.lookupLocked(id)
	if d != nil {
		model = d.model
	}
	e.mu.RUnlock()
	if d == nil {
		return geo.Point{}, fmt.Errorf("%w: %q", ErrUnknownDevice, id)
	}
	return model.Position(elapsed), nil
}

// Reachable reports whether a message can pass from a to b over the
// given technology right now: both devices exist, are powered, carry
// the radio, and are within the PHY range (or covered, for cellular).
// A single pair check is O(1), so it stays on the direct per-pair path;
// mobility models are deterministic functions of elapsed time, so at
// any epoch Reachable(a, b) agrees exactly with b's membership in the
// grid-indexed Neighbors(a) (asserted by the differential suite).
func (e *Environment) Reachable(a, b ids.DeviceID, tech Technology) bool {
	return e.ReachableAt(a, b, tech, e.Elapsed())
}

// ReachableAt is Reachable at an explicit modeled elapsed time. It
// looks both IDs up and runs the same check a Handle runs.
func (e *Environment) ReachableAt(a, b ids.DeviceID, tech Technology, elapsed time.Duration) bool {
	e.mu.RLock()
	da, db := e.devices[a], e.devices[b]
	e.mu.RUnlock()
	return e.reachable(da, db, tech, elapsed)
}

// Handle is a device resolved once, for callers that check the same
// devices' links over and over (the transport checks a link several
// times per message exchange): it reaches the device's record with no
// map lookup. A handle follows its ID through Remove and re-Add and
// may be resolved before the ID is ever added; at every moment it
// answers exactly as a lookup by that ID would. The zero Handle is
// never reachable.
type Handle struct {
	e *Environment
	d *device
}

// Resolve returns the handle for id, making the ID's record if the
// device has never been added.
func (e *Environment) Resolve(id ids.DeviceID) Handle {
	e.mu.RLock()
	d := e.devices[id]
	e.mu.RUnlock()
	if d == nil {
		e.mu.Lock()
		d = e.recordLocked(id)
		e.mu.Unlock()
	}
	return Handle{e: e, d: d}
}

// ReachableAt reports whether a message can pass from h to o over tech
// at the given modeled elapsed time; both handles must come from the
// same Environment. It is Environment.ReachableAt without the lookups.
func (h Handle) ReachableAt(o Handle, tech Technology, elapsed time.Duration) bool {
	if h.e == nil {
		return false
	}
	return h.e.reachable(h.d, o.d, tech, elapsed)
}

// reachable is the one pair check behind ReachableAt, Handle and the
// brute-force neighbor oracle: both devices in the world, powered and
// carrying the radio, and within the PHY range (or both covered, for
// cellular). The record reads happen under e.mu so they never race
// with SetPowered/SetModel/SetCoverage; positions are evaluated
// outside it.
func (e *Environment) reachable(a, b *device, tech Technology, elapsed time.Duration) bool {
	if a == nil || b == nil || a == b || !tech.Valid() {
		return false
	}
	e.mu.RLock()
	up := a.present && b.present && a.powered && b.powered && a.radios[tech] && b.radios[tech]
	covered := a.coverage && b.coverage
	ma, mb := a.model, b.model
	e.mu.RUnlock()
	if !up {
		return false
	}
	phy := e.phys[tech]
	if phy.Unlimited() {
		// Cellular: geometric position is irrelevant; coverage matters.
		return covered
	}
	return ma.Position(elapsed).DistanceTo(mb.Position(elapsed)) <= phy.Range
}

// Neighbors returns the devices currently reachable from id over the
// given technology, sorted by device ID for determinism. The query runs
// against the grid-indexed epoch snapshot (grid.go): O(cell occupancy)
// per call, with the O(n) position snapshot amortized over every query
// in the same epoch. NeighborsBrute is the O(n) oracle it is verified
// against.
func (e *Environment) Neighbors(id ids.DeviceID, tech Technology) []ids.DeviceID {
	return e.NeighborsAt(id, tech, e.Elapsed())
}

// NeighborsAt answers a Neighbors query at an explicit modeled elapsed
// time, letting callers pin many queries to one epoch so they share a
// single world snapshot (one discovery round = one epoch).
func (e *Environment) NeighborsAt(id ids.DeviceID, tech Technology, elapsed time.Duration) []ids.DeviceID {
	return e.filterInquiry(id, tech, elapsed, e.view(tech, elapsed).neighborsInView(id))
}

// NeighborsBrute is the brute-force O(n) per-pair neighbor scan the
// grid index replaced. It is retained as the differential-testing
// oracle: the property suite and BenchmarkNeighbors assert the grid
// path returns byte-identical results at a fraction of the cost.
func (e *Environment) NeighborsBrute(id ids.DeviceID, tech Technology) []ids.DeviceID {
	return e.NeighborsBruteAt(id, tech, e.Elapsed())
}

// NeighborsBruteAt is NeighborsBrute at an explicit modeled elapsed
// time.
func (e *Environment) NeighborsBruteAt(id ids.DeviceID, tech Technology, elapsed time.Duration) []ids.DeviceID {
	e.mu.RLock()
	self := e.lookupLocked(id)
	var all []*device
	for _, d := range e.devices {
		if d.present {
			all = append(all, d)
		}
	}
	e.mu.RUnlock()
	slices.SortFunc(all, func(a, b *device) int { return cmp.Compare(a.id, b.id) })
	var out []ids.DeviceID
	for _, other := range all {
		if e.reachable(self, other, tech, elapsed) {
			out = append(out, other.id)
		}
	}
	return e.filterInquiry(id, tech, elapsed, out)
}

// Signal returns the link quality between two devices in [0, 1]: 1 at
// zero distance, 0 at or beyond range. Unlimited-range technologies
// report 1 whenever reachable.
func (e *Environment) Signal(a, b ids.DeviceID, tech Technology) float64 {
	if !e.Reachable(a, b, tech) {
		return 0
	}
	phy := e.PHY(tech)
	if phy.Unlimited() {
		return 1
	}
	pa, errA := e.Position(a)
	pb, errB := e.Position(b)
	if errA != nil || errB != nil {
		return 0
	}
	d := pa.DistanceTo(pb)
	q := 1 - d/phy.Range
	if q < 0 {
		q = 0
	}
	return q
}

// Technologies returns the radio technologies a device carries, sorted
// in preference order.
func (e *Environment) Technologies(id ids.DeviceID) []Technology {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d := e.lookupLocked(id)
	if d == nil {
		return nil
	}
	var out []Technology
	for _, t := range AllTechnologies() {
		if d.radios[t] {
			out = append(out, t)
		}
	}
	return out
}
