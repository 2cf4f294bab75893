package peerhood

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/radio"
)

// sdpPort is the well-known port every daemon serves service discovery
// on, playing the role of Bluetooth SDP.
const sdpPort = "peerhood.sdp"

// servicePortPrefix namespaces application service ports.
const servicePortPrefix = "svc:"

// ServicePort is the transport port a registered service listens on —
// the daemon's port namespacing made visible for callers that dial
// through netsim's handshake sequencer instead of through a plugin.
func ServicePort(name ids.ServiceName) string { return servicePortPrefix + string(name) }

// Defaults for the daemon's periodic work, in modeled time.
const (
	defaultDiscoveryInterval = 5 * time.Second
	defaultMonitorInterval   = time.Second
	sdpTimeout               = 5 * time.Second
)

// Sentinel errors.
var (
	ErrAlreadyRunning    = errors.New("peerhood: daemon already running")
	ErrUnknownNeighbor   = errors.New("peerhood: device not in neighborhood")
	ErrServiceRegistered = errors.New("peerhood: service already registered")
	ErrNoRoute           = errors.New("peerhood: no technology reaches device")
)

// Config configures a Daemon.
type Config struct {
	// Device is the local device this daemon runs on. Required.
	Device ids.DeviceID
	// Network is the transport. Required.
	Network *netsim.Network
	// Technologies restricts the plugins loaded; defaults to every
	// radio the device carries.
	Technologies []radio.Technology
	// DiscoveryInterval is the modeled pause between discovery rounds.
	DiscoveryInterval time.Duration
	// MonitorInterval is the modeled period of the active-monitoring
	// reachability check.
	MonitorInterval time.Duration
	// GPRSProxy names the operator proxy device GPRS connections are
	// bridged through; empty means direct cellular links.
	GPRSProxy ids.DeviceID
}

// NeighborInfo is one row of the daemon's neighbor table.
type NeighborInfo struct {
	Device ids.DeviceID
	// Technologies the neighbor was seen on, preference-ordered.
	Technologies []radio.Technology
	// Services the neighbor advertises, from the last SDP exchange.
	Services []ServiceDescription
	// LastSeen is the modeled environment time of the last sighting.
	LastSeen time.Duration
}

// MonitorEvent notifies a monitor about a device's availability change.
type MonitorEvent struct {
	Device   ids.DeviceID
	Appeared bool // true: came into range; false: went out of range
}

// MonitorFunc receives monitor events. Callbacks run on daemon
// goroutines and must not block.
type MonitorFunc func(MonitorEvent)

type monitorEntry struct {
	device ids.DeviceID
	fn     MonitorFunc
	// present is the last state delivered, so transitions fire once.
	present bool
	primed  bool
}

type localService struct {
	desc     ServiceDescription
	listener *netsim.Listener
}

// Daemon is the PeerHood Daemon (PHD, §4.2.1): it keeps the neighbor
// table fresh, serves SDP requests, registers local services, routes
// connections and runs active monitoring.
type Daemon struct {
	cfg     Config
	plugins pluginSet

	mu          sync.Mutex
	neighbors   map[ids.DeviceID]*NeighborInfo
	services    map[ids.ServiceName]*localService
	monitors    map[int]*monitorEntry
	nextMonID   int
	running     bool
	cancel      context.CancelFunc
	probeCancel func()

	sdp     *netsim.Service
	wg      sync.WaitGroup
	stats   statCounters
	linkq   linkCounters
	history *history
}

// NewDaemon creates a daemon and starts serving SDP immediately (a
// PeerHood device answers discovery as soon as it exists); the
// discovery/monitor loops start with Start.
func NewDaemon(cfg Config) (*Daemon, error) {
	if cfg.Network == nil {
		return nil, errors.New("peerhood: Config.Network is required")
	}
	if !cfg.Device.Valid() {
		return nil, fmt.Errorf("peerhood: invalid device id %q", cfg.Device)
	}
	env := cfg.Network.Environment()
	if !env.Has(cfg.Device) {
		return nil, fmt.Errorf("peerhood: %w: %q", radio.ErrUnknownDevice, cfg.Device)
	}
	if len(cfg.Technologies) == 0 {
		cfg.Technologies = env.Technologies(cfg.Device)
	}
	if len(cfg.Technologies) == 0 {
		return nil, fmt.Errorf("peerhood: device %q has no radios", cfg.Device)
	}
	if cfg.DiscoveryInterval <= 0 {
		cfg.DiscoveryInterval = defaultDiscoveryInterval
	}
	if cfg.MonitorInterval <= 0 {
		cfg.MonitorInterval = defaultMonitorInterval
	}
	d := &Daemon{
		cfg:       cfg,
		neighbors: make(map[ids.DeviceID]*NeighborInfo),
		services:  make(map[ids.ServiceName]*localService),
		monitors:  make(map[int]*monitorEntry),
		history:   newHistory(),
	}
	d.plugins = newPluginSet(cfg.Network, cfg.Device, cfg.Technologies, cfg.GPRSProxy).meter(&d.linkq)
	sdp, err := cfg.Network.Listen(cfg.Device, sdpPort)
	if err != nil {
		return nil, fmt.Errorf("peerhood: serving SDP: %w", err)
	}
	d.sdp = sdp.Serve(d.serveSDP)
	d.listenForProbes()
	return d, nil
}

// listenForProbes subscribes to WLAN discovery broadcasts when the
// device carries a WLAN radio: hearing another daemon's probe teaches
// this daemon about that device without running its own inquiry — the
// passive half of the thesis's broadcast-based service discovery.
func (d *Daemon) listenForProbes() {
	hasWLAN := false
	for _, t := range d.cfg.Technologies {
		if t == radio.WLAN {
			hasWLAN = true
		}
	}
	if !hasWLAN {
		return
	}
	sub, err := d.cfg.Network.SubscribeBroadcast(d.cfg.Device, discoveryPort)
	if err != nil {
		return // no passive discovery; active rounds still work
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.mu.Lock()
	d.probeCancel = func() {
		cancel()
		sub.Close()
	}
	d.mu.Unlock()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			b, err := sub.Recv(ctx)
			if err != nil {
				return
			}
			if b.From == d.cfg.Device {
				continue
			}
			d.learnFromProbe(ctx, b.From)
		}
	}()
}

// learnFromProbe opportunistically adds a probing device to the
// neighbor table if it is not already known.
func (d *Daemon) learnFromProbe(ctx context.Context, dev ids.DeviceID) {
	d.mu.Lock()
	_, known := d.neighbors[dev]
	d.mu.Unlock()
	if known {
		return
	}
	svcs, err := d.fetchServices(ctx, dev, []radio.Technology{radio.WLAN})
	if err != nil {
		return // prober moved on; the next active round will find it
	}
	now := d.cfg.Network.Environment().Elapsed()
	info := &NeighborInfo{
		Device:       dev,
		Technologies: []radio.Technology{radio.WLAN},
		Services:     svcs,
		LastSeen:     now,
	}
	d.history.record(info)
	d.mu.Lock()
	if _, known := d.neighbors[dev]; !known {
		d.neighbors[dev] = info
	}
	d.mu.Unlock()
	d.checkMonitors()
}

// Device returns the local device ID.
func (d *Daemon) Device() ids.DeviceID { return d.cfg.Device }

// Network returns the transport the daemon uses.
func (d *Daemon) Network() *netsim.Network { return d.cfg.Network }

// Start launches the background discovery and monitoring loops.
func (d *Daemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.running {
		return ErrAlreadyRunning
	}
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.running = true
	d.wg.Add(2)
	go d.discoveryLoop(ctx)
	go d.monitorLoop(ctx)
	return nil
}

// Stop halts the loops and the SDP server. The daemon cannot be
// restarted after Stop; create a new one.
func (d *Daemon) Stop() {
	d.mu.Lock()
	if d.cancel != nil {
		d.cancel()
	}
	d.running = false
	// Close listeners in name order so shutdown errors and listener
	// teardown replay identically run to run.
	svcs := make([]*localService, 0, len(d.services))
	for _, s := range d.services {
		svcs = append(svcs, s)
	}
	sort.Slice(svcs, func(i, j int) bool { return svcs[i].desc.Name < svcs[j].desc.Name })
	probeCancel := d.probeCancel
	d.mu.Unlock()
	if probeCancel != nil {
		probeCancel()
	}
	d.sdp.Stop()
	for _, s := range svcs {
		s.listener.Close()
	}
	d.wg.Wait()
}

// --- Service registration (Table 3: "Service Sharing") ---

// RegisterService registers a named service with attributes and returns
// the listener the application accepts connections on, like the
// pRegisterService call in Figure 8.
func (d *Daemon) RegisterService(name ids.ServiceName, attrs map[string]string) (*netsim.Listener, error) {
	desc := ServiceDescription{Name: name, Attributes: attrs}
	if err := validateService(desc); err != nil {
		return nil, err
	}
	d.mu.Lock()
	if _, ok := d.services[name]; ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrServiceRegistered, name)
	}
	d.mu.Unlock()
	l, err := d.cfg.Network.Listen(d.cfg.Device, servicePortPrefix+string(name))
	if err != nil {
		return nil, fmt.Errorf("peerhood: registering %q: %w", name, err)
	}
	d.mu.Lock()
	d.services[name] = &localService{desc: desc.Clone(), listener: l}
	d.mu.Unlock()
	return l, nil
}

// UnregisterService removes a service and closes its listener.
func (d *Daemon) UnregisterService(name ids.ServiceName) {
	d.mu.Lock()
	s, ok := d.services[name]
	delete(d.services, name)
	d.mu.Unlock()
	if ok {
		s.listener.Close()
	}
}

// LocalServices lists the services registered on this device.
func (d *Daemon) LocalServices() []ServiceDescription {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ServiceDescription, 0, len(d.services))
	for _, s := range d.services {
		out = append(out, s.desc.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- Neighbor table (Table 3: "Device Discovery" / "Service Discovery") ---

// Neighbors returns the current neighbor table, sorted by device ID.
func (d *Daemon) Neighbors() []NeighborInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]NeighborInfo, 0, len(d.neighbors))
	for _, n := range d.neighbors {
		out = append(out, cloneNeighbor(n))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	return out
}

// Neighbor returns one neighbor's info.
func (d *Daemon) Neighbor(dev ids.DeviceID) (NeighborInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.neighbors[dev]
	if !ok {
		return NeighborInfo{}, fmt.Errorf("%w: %q", ErrUnknownNeighbor, dev)
	}
	return cloneNeighbor(n), nil
}

// ServicesOf returns the cached service list of a neighbor.
func (d *Daemon) ServicesOf(dev ids.DeviceID) ([]ServiceDescription, error) {
	n, err := d.Neighbor(dev)
	if err != nil {
		return nil, err
	}
	return n.Services, nil
}

// DevicesOffering returns the neighbors that advertise a service,
// sorted by device ID.
func (d *Daemon) DevicesOffering(service ids.ServiceName) []ids.DeviceID {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []ids.DeviceID
	for dev, n := range d.neighbors {
		for _, s := range n.Services {
			if s.Name == service {
				out = append(out, dev)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cloneNeighbor(n *NeighborInfo) NeighborInfo {
	out := NeighborInfo{Device: n.Device, LastSeen: n.LastSeen}
	out.Technologies = append([]radio.Technology(nil), n.Technologies...)
	for _, s := range n.Services {
		out.Services = append(out.Services, s.Clone())
	}
	return out
}

// --- Connections (Table 3: "Connection Establishment") ---

// Connect dials a service on a neighbor, trying technologies in
// preference order among those currently reachable.
func (d *Daemon) Connect(ctx context.Context, dev ids.DeviceID, service ids.ServiceName) (*netsim.Conn, error) {
	var lastErr error
	for _, p := range d.plugins {
		if !p.Reachable(dev) {
			continue
		}
		conn, err := p.Dial(ctx, dev, servicePortPrefix+string(service))
		if err == nil {
			d.stats.connectsRouted.Add(1)
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	if lastErr != nil {
		return nil, lastErr
	}
	return nil, fmt.Errorf("%w: %q", ErrNoRoute, dev)
}

// --- Monitoring (Table 3: "Active monitoring of a device") ---

// Monitor registers a callback for appearance/disappearance of a
// device. The device's reachability at registration time is the
// baseline; the callback fires on every transition away from the last
// reported state. The returned cancel function unregisters.
func (d *Daemon) Monitor(dev ids.DeviceID, fn MonitorFunc) (cancel func()) {
	baseline := d.reachableAnyTech(dev)
	d.mu.Lock()
	id := d.nextMonID
	d.nextMonID++
	d.monitors[id] = &monitorEntry{device: dev, fn: fn, present: baseline, primed: true}
	d.mu.Unlock()
	return func() {
		d.mu.Lock()
		delete(d.monitors, id)
		d.mu.Unlock()
	}
}

// reachableAnyTech reports whether any plugin can reach the device.
func (d *Daemon) reachableAnyTech(dev ids.DeviceID) bool {
	for _, p := range d.plugins {
		if p.Reachable(dev) {
			return true
		}
	}
	return false
}

// checkMonitors fires transition callbacks. Runs on monitor ticks and
// after discovery rounds.
func (d *Daemon) checkMonitors() {
	type firing struct {
		fn MonitorFunc
		ev MonitorEvent
	}
	var firings []firing
	d.mu.Lock()
	// Fire callbacks in registration order (monitor IDs are monotonic);
	// map order would interleave appeared/disappeared events
	// differently each run.
	monIDs := make([]int, 0, len(d.monitors))
	for id := range d.monitors {
		monIDs = append(monIDs, id)
	}
	sort.Ints(monIDs)
	for _, id := range monIDs {
		m := d.monitors[id]
		present := d.reachableAnyTech(m.device)
		if !m.primed {
			m.primed = true
			m.present = present
			continue
		}
		if present != m.present {
			m.present = present
			firings = append(firings, firing{fn: m.fn, ev: MonitorEvent{Device: m.device, Appeared: present}})
		}
	}
	d.mu.Unlock()
	for _, f := range firings {
		d.stats.monitorEvents.Add(1)
		f.fn(f.ev)
	}
}

// --- Background loops ---

func (d *Daemon) discoveryLoop(ctx context.Context) {
	defer d.wg.Done()
	env := d.cfg.Network.Environment()
	for {
		if err := d.RefreshNow(ctx); err != nil {
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-env.Clock().After(env.Scale().ToReal(d.cfg.DiscoveryInterval)):
		}
	}
}

func (d *Daemon) monitorLoop(ctx context.Context) {
	defer d.wg.Done()
	env := d.cfg.Network.Environment()
	for {
		select {
		case <-ctx.Done():
			return
		case <-env.Clock().After(env.Scale().ToReal(d.cfg.MonitorInterval)):
			d.checkMonitors()
		}
	}
}

// RefreshNow runs one full discovery round synchronously: every plugin
// performs an inquiry in parallel, then the daemon fetches service
// lists from each found device and replaces the neighbor table.
func (d *Daemon) RefreshNow(ctx context.Context) error {
	type discovery struct {
		tech  radio.Technology
		found []ids.DeviceID
	}
	results := make(chan discovery, len(d.plugins))
	for _, p := range d.plugins {
		p := p
		go func() {
			found, err := p.Discover(ctx)
			if err != nil {
				found = nil
			}
			results <- discovery{tech: p.Technology(), found: found}
		}()
	}
	byDevice := make(map[ids.DeviceID][]radio.Technology)
	for range d.plugins {
		r := <-results
		for _, dev := range r.found {
			byDevice[dev] = append(byDevice[dev], r.tech)
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	// Fetch service lists in parallel.
	type sdpResult struct {
		dev  ids.DeviceID
		svcs []ServiceDescription
		ok   bool
	}
	sdpResults := make(chan sdpResult, len(byDevice))
	for dev, techs := range byDevice {
		dev, techs := dev, techs
		go func() {
			svcs, err := d.fetchServices(ctx, dev, techs)
			sdpResults <- sdpResult{dev: dev, svcs: svcs, ok: err == nil}
		}()
	}
	now := d.cfg.Network.Environment().Elapsed()
	fresh := make(map[ids.DeviceID]*NeighborInfo, len(byDevice))
	for range byDevice {
		r := <-sdpResults
		if !r.ok {
			// Device answered inquiry but vanished before SDP; skip it
			// this round, like real PeerHood would.
			continue
		}
		techs := byDevice[r.dev]
		sortTechs(techs)
		fresh[r.dev] = &NeighborInfo{
			Device:       r.dev,
			Technologies: techs,
			Services:     r.svcs,
			LastSeen:     now,
		}
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}

	for _, n := range fresh {
		d.history.record(n)
	}
	d.mu.Lock()
	d.neighbors = fresh
	d.mu.Unlock()
	d.stats.discoveryRounds.Add(1)
	d.checkMonitors()
	return nil
}

// fetchServices performs the SDP exchange with one device over the
// first technology that answers.
func (d *Daemon) fetchServices(ctx context.Context, dev ids.DeviceID, techs []radio.Technology) ([]ServiceDescription, error) {
	env := d.cfg.Network.Environment()
	sdpCtx, cancel := context.WithTimeout(ctx, realTimeout(env, sdpTimeout))
	defer cancel()
	sortTechs(techs)
	var lastErr error
	for _, tech := range techs {
		p := d.plugins.forTech(tech)
		if p == nil {
			continue
		}
		conn, err := p.Dial(sdpCtx, dev, sdpPort)
		if err != nil {
			lastErr = err
			continue
		}
		d.stats.sdpQueriesSent.Add(1)
		svcs, err := querySDP(sdpCtx, conn)
		_ = conn.Close() // query is complete either way
		if err != nil {
			lastErr = err
			continue
		}
		return svcs, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("%w: %q", ErrNoRoute, dev)
	}
	return nil, lastErr
}

func querySDP(ctx context.Context, conn *netsim.Conn) ([]ServiceDescription, error) {
	if err := conn.Send([]byte("LIST")); err != nil {
		return nil, err
	}
	resp, err := conn.Recv(ctx)
	if err != nil {
		return nil, err
	}
	return decodeServices(resp)
}

// serveSDP answers a LIST request with the local service registry;
// anything else closes the conn.
func (d *Daemon) serveSDP(_ ids.DeviceID, req []byte) ([]byte, netsim.ServeStep) {
	if string(req) != "LIST" {
		return nil, nil
	}
	d.stats.sdpQueriesServed.Add(1)
	return encodeServices(d.LocalServices()), nil
}

// realTimeout converts a modeled guard timeout to real time with a
// floor, so aggressive latency scales don't turn scheduling jitter into
// spurious timeouts. Guard timeouts only fire on failure, so a generous
// floor never distorts measured durations.
func realTimeout(env *radio.Environment, modeled time.Duration) time.Duration {
	const floor = 2 * time.Second
	d := env.Scale().ToReal(modeled)
	if d < floor {
		return floor
	}
	return d
}

func sortTechs(techs []radio.Technology) {
	order := map[radio.Technology]int{radio.Bluetooth: 0, radio.WLAN: 1, radio.GPRS: 2}
	sort.Slice(techs, func(i, j int) bool { return order[techs[i]] < order[techs[j]] })
}
