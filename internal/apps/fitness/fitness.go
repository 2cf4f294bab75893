// Package fitness implements the Fitness System of §4.4, "an
// application built on top of PeerHood [that] promotes physical
// exercise through encouragement and motivates the users by providing
// instant analyzed feedback of the exercise." A coach device registers
// the FitnessSystem service; exercising users stream heart-rate samples
// over whatever technology PeerHood picks, and receive analyzed
// feedback per interval.
package fitness

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/peerhood"
)

// ServiceName is the service the coach registers.
const ServiceName ids.ServiceName = "FitnessSystem"

// ErrNoCoach reports no coach device in the neighborhood.
var ErrNoCoach = errors.New("fitness: no coach in range")

// Zone classifies a heart-rate sample.
type Zone int

// Training zones, gentlest first.
const (
	ZoneRest Zone = iota + 1
	ZoneFatBurn
	ZoneCardio
	ZonePeak
)

// String implements fmt.Stringer.
func (z Zone) String() string {
	switch z {
	case ZoneRest:
		return "rest"
	case ZoneFatBurn:
		return "fat-burn"
	case ZoneCardio:
		return "cardio"
	case ZonePeak:
		return "peak"
	default:
		return fmt.Sprintf("zone(%d)", int(z))
	}
}

// ZoneFor classifies a heart rate against an age-derived maximum
// (the classic 220-age formula the 2003-era fitness literature used).
func ZoneFor(heartRate, age int) Zone {
	max := 220 - age
	if max < 1 {
		max = 1
	}
	ratio := float64(heartRate) / float64(max)
	switch {
	case ratio < 0.5:
		return ZoneRest
	case ratio < 0.7:
		return ZoneFatBurn
	case ratio < 0.85:
		return ZoneCardio
	default:
		return ZonePeak
	}
}

// Feedback is the coach's instant analysis of one sample batch.
type Feedback struct {
	AverageHR int
	Zone      Zone
	// Encouragement is the motivational line the thesis's system
	// displayed.
	Encouragement string
}

// Coach runs the analysis service.
type Coach struct {
	lib *peerhood.Library

	mu       sync.Mutex
	sessions map[ids.DeviceID]int // samples seen per athlete device

	svc *netsim.Service
}

// NewCoach registers the fitness service and starts serving.
func NewCoach(lib *peerhood.Library) (*Coach, error) {
	c := &Coach{lib: lib, sessions: make(map[ids.DeviceID]int)}
	listener, err := lib.RegisterService(ServiceName, map[string]string{"kind": "coach"})
	if err != nil {
		return nil, fmt.Errorf("fitness: %w", err)
	}
	c.svc = listener.Serve(c.serve)
	return c, nil
}

// Stop unregisters and stops the coach.
func (c *Coach) Stop() {
	c.svc.Stop()
	c.lib.UnregisterService(ServiceName)
}

// SamplesSeen reports how many samples one athlete has streamed.
func (c *Coach) SamplesSeen(dev ids.DeviceID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[dev]
}

// serve answers one sample batch, then serves the next.
func (c *Coach) serve(from ids.DeviceID, req []byte) ([]byte, netsim.ServeStep) {
	return []byte(c.handle(from, string(req))), c.serve
}

// handle answers "SAMPLES <age> <hr1,hr2,...>" with
// "FEEDBACK <avg> <zone> <encouragement>".
func (c *Coach) handle(from ids.DeviceID, req string) string {
	parts := strings.SplitN(req, " ", 3)
	if len(parts) != 3 || parts[0] != "SAMPLES" {
		return "BAD_REQUEST"
	}
	age, err := strconv.Atoi(parts[1])
	if err != nil || age <= 0 || age > 150 {
		return "BAD_REQUEST"
	}
	var sum, n int
	for _, f := range strings.Split(parts[2], ",") {
		hr, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || hr <= 0 || hr > 260 {
			return "BAD_REQUEST"
		}
		sum += hr
		n++
	}
	if n == 0 {
		return "BAD_REQUEST"
	}
	c.mu.Lock()
	c.sessions[from] += n
	c.mu.Unlock()

	avg := sum / n
	zone := ZoneFor(avg, age)
	return fmt.Sprintf("FEEDBACK %d %d %s", avg, int(zone), encouragementFor(zone))
}

// encouragementFor picks the motivational line per zone.
func encouragementFor(z Zone) string {
	switch z {
	case ZoneRest:
		return "warm up — pick up the pace!"
	case ZoneFatBurn:
		return "steady burn — keep it going!"
	case ZoneCardio:
		return "great cardio work — you're flying!"
	case ZonePeak:
		return "peak effort — ease off soon!"
	default:
		return "keep moving!"
	}
}

// Athlete is the exercising user's side: it streams samples to a
// discovered coach.
type Athlete struct {
	lib *peerhood.Library
	age int

	mu   sync.Mutex
	conn *peerhood.RobustConn
}

// NewAthlete binds an athlete of the given age to their device.
func NewAthlete(lib *peerhood.Library, age int) *Athlete {
	return &Athlete{lib: lib, age: age}
}

// Close drops the coach connection.
func (a *Athlete) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.conn != nil {
		a.conn.Close()
		a.conn = nil
	}
}

// Report streams one batch of heart-rate samples and returns the
// coach's instant feedback. The connection is seamless: if the current
// link breaks mid-exercise, PeerHood fails over and the stream
// continues.
func (a *Athlete) Report(ctx context.Context, samples []int) (Feedback, error) {
	if len(samples) == 0 {
		return Feedback{}, errors.New("fitness: no samples")
	}
	conn, err := a.coachConn(ctx)
	if err != nil {
		return Feedback{}, err
	}
	fields := make([]string, len(samples))
	for i, s := range samples {
		fields[i] = strconv.Itoa(s)
	}
	req := fmt.Sprintf("SAMPLES %d %s", a.age, strings.Join(fields, ","))
	resp, err := conn.Call(ctx, []byte(req))
	if err != nil {
		return Feedback{}, err
	}
	return parseFeedback(string(resp))
}

func (a *Athlete) coachConn(ctx context.Context) (*peerhood.RobustConn, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.conn != nil {
		return a.conn, nil
	}
	coaches := a.lib.DevicesOffering(ServiceName)
	if len(coaches) == 0 {
		return nil, ErrNoCoach
	}
	conn, err := a.lib.ConnectRobust(ctx, coaches[0], ServiceName)
	if err != nil {
		return nil, fmt.Errorf("fitness: %w", err)
	}
	a.conn = conn
	return conn, nil
}

func parseFeedback(resp string) (Feedback, error) {
	parts := strings.SplitN(resp, " ", 4)
	if len(parts) != 4 || parts[0] != "FEEDBACK" {
		return Feedback{}, fmt.Errorf("fitness: malformed feedback %q", resp)
	}
	avg, err := strconv.Atoi(parts[1])
	if err != nil {
		return Feedback{}, fmt.Errorf("fitness: bad average in %q", resp)
	}
	zone, err := strconv.Atoi(parts[2])
	if err != nil {
		return Feedback{}, fmt.Errorf("fitness: bad zone in %q", resp)
	}
	return Feedback{AverageHR: avg, Zone: Zone(zone), Encouragement: parts[3]}, nil
}
