// Package guidance implements the location-aware guidance system of
// §4.4: "The guidance system offers guidance to travelers in some
// strange environment into some selected destinations" using
// Bluetooth-range guidance points. Each guidance point is a fixed
// PeerHood device that knows the building's walkway graph; a traveler's
// PTD asks the nearest point (the only one in Bluetooth range) for the
// next hop toward a destination.
package guidance

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/peerhood"
)

// ServiceName is the service guidance points register.
const ServiceName ids.ServiceName = "GuidancePoint"

// Errors.
var (
	ErrNoGuidance     = errors.New("guidance: no guidance point in range")
	ErrNoRoute        = errors.New("guidance: no route to destination")
	ErrUnknownPlace   = errors.New("guidance: unknown destination")
	ErrMalformedReply = errors.New("guidance: malformed reply")
)

// Map is the walkway graph shared by all guidance points: named places
// with positions and bidirectional edges.
type Map struct {
	mu     sync.RWMutex
	places map[string]geo.Point
	edges  map[string]map[string]bool
}

// NewMap returns an empty map.
func NewMap() *Map {
	return &Map{
		places: make(map[string]geo.Point),
		edges:  make(map[string]map[string]bool),
	}
}

// AddPlace registers a named location.
func (m *Map) AddPlace(name string, at geo.Point) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.places[name] = at
	if m.edges[name] == nil {
		m.edges[name] = make(map[string]bool)
	}
}

// Connect links two places with a bidirectional walkway.
func (m *Map) Connect(a, b string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.places[a]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPlace, a)
	}
	if _, ok := m.places[b]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownPlace, b)
	}
	m.edges[a][b] = true
	m.edges[b][a] = true
	return nil
}

// Position returns a place's location.
func (m *Map) Position(name string) (geo.Point, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	p, ok := m.places[name]
	return p, ok
}

// Route returns the shortest walking path between two places: Dijkstra
// over the walkway graph with Euclidean edge lengths, so a traveler is
// sent down the genuinely shortest corridor, not just the fewest hops.
func (m *Map) Route(from, to string) ([]string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if _, ok := m.places[from]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlace, from)
	}
	if _, ok := m.places[to]; !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlace, to)
	}
	if from == to {
		return []string{from}, nil
	}
	const unreached = math.MaxFloat64
	dist := map[string]float64{from: 0}
	prev := map[string]string{}
	done := map[string]bool{}
	for {
		// Extract the nearest unfinished place (linear scan: campus
		// maps are tiny).
		cur, best := "", unreached
		for place, d := range dist {
			if !done[place] && d < best {
				cur, best = place, d
			}
		}
		if cur == "" {
			return nil, fmt.Errorf("%w: %s -> %s", ErrNoRoute, from, to)
		}
		if cur == to {
			break
		}
		done[cur] = true
		for next := range m.edges[cur] {
			if done[next] {
				continue
			}
			step := m.places[cur].DistanceTo(m.places[next])
			if alt := best + step; alt < distOr(dist, next, unreached) {
				dist[next] = alt
				prev[next] = cur
			}
		}
	}
	var path []string
	for at := to; at != from; at = prev[at] {
		path = append([]string{at}, path...)
	}
	return append([]string{from}, path...), nil
}

// RouteLength returns the walking distance of a path in meters.
func (m *Map) RouteLength(path []string) (float64, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	total := 0.0
	for i := 0; i < len(path)-1; i++ {
		a, okA := m.places[path[i]]
		b, okB := m.places[path[i+1]]
		if !okA || !okB {
			return 0, fmt.Errorf("%w: in path %v", ErrUnknownPlace, path)
		}
		if !m.edges[path[i]][path[i+1]] {
			return 0, fmt.Errorf("guidance: %s and %s are not connected", path[i], path[i+1])
		}
		total += a.DistanceTo(b)
	}
	return total, nil
}

func distOr(dist map[string]float64, key string, def float64) float64 {
	if d, ok := dist[key]; ok {
		return d
	}
	return def
}

// Point is one guidance point: a fixed device at a named place serving
// route queries.
type Point struct {
	lib   *peerhood.Library
	wmap  *Map
	place string

	svc *netsim.Service
}

// NewPoint registers the guidance service on a device standing at the
// named place.
func NewPoint(lib *peerhood.Library, wmap *Map, place string) (*Point, error) {
	if _, ok := wmap.Position(place); !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlace, place)
	}
	p := &Point{lib: lib, wmap: wmap, place: place}
	listener, err := lib.RegisterService(ServiceName, map[string]string{"place": place})
	if err != nil {
		return nil, fmt.Errorf("guidance: %w", err)
	}
	p.svc = listener.Serve(p.serve)
	return p, nil
}

// Stop unregisters the point.
func (p *Point) Stop() {
	p.svc.Stop()
	p.lib.UnregisterService(ServiceName)
}

// Place returns where this point stands.
func (p *Point) Place() string { return p.place }

// serve answers one route query per conn.
func (p *Point) serve(_ ids.DeviceID, req []byte) ([]byte, netsim.ServeStep) {
	return []byte(p.handle(string(req))), nil
}

// handle answers "ROUTE <destination>" with "OK <hop1>,<hop2>,..." or
// an error token.
func (p *Point) handle(req string) string {
	const prefix = "ROUTE "
	if !strings.HasPrefix(req, prefix) {
		return "BAD_REQUEST"
	}
	dest := strings.TrimSpace(strings.TrimPrefix(req, prefix))
	path, err := p.wmap.Route(p.place, dest)
	if errors.Is(err, ErrUnknownPlace) {
		return "UNKNOWN_PLACE"
	}
	if err != nil {
		return "NO_ROUTE"
	}
	return "OK " + strings.Join(path, ",")
}

// Traveler is the PTD side: it discovers the in-range guidance point
// and asks for directions.
type Traveler struct {
	lib *peerhood.Library
}

// NewTraveler binds a traveler to their device's library.
func NewTraveler(lib *peerhood.Library) *Traveler {
	return &Traveler{lib: lib}
}

// Directions queries the nearest (first discovered) guidance point for
// the hop sequence to the destination.
func (t *Traveler) Directions(ctx context.Context, destination string) ([]string, error) {
	points := t.lib.DevicesOffering(ServiceName)
	if len(points) == 0 {
		return nil, ErrNoGuidance
	}
	conn, err := t.lib.Connect(ctx, points[0], ServiceName)
	if err != nil {
		return nil, fmt.Errorf("guidance: %w", err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send([]byte("ROUTE " + destination)); err != nil {
		return nil, err
	}
	resp, err := conn.Recv(ctx)
	if err != nil {
		return nil, err
	}
	reply := string(resp)
	switch {
	case strings.HasPrefix(reply, "OK "):
		return strings.Split(strings.TrimPrefix(reply, "OK "), ","), nil
	case reply == "UNKNOWN_PLACE":
		return nil, fmt.Errorf("%w: %q", ErrUnknownPlace, destination)
	case reply == "NO_ROUTE":
		return nil, fmt.Errorf("%w: to %q", ErrNoRoute, destination)
	default:
		return nil, fmt.Errorf("%w: %q", ErrMalformedReply, reply)
	}
}
