package community

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interest"
	"repro/internal/msc"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/profile"
)

// Errors returned by the client.
var (
	ErrNotLoggedIn   = profile.ErrNotLoggedIn
	ErrMemberUnknown = fmt.Errorf("community: member not found in the neighborhood")
	ErrNotTrusted    = fmt.Errorf("community: not a trusted friend")
	ErrRemote        = fmt.Errorf("community: remote error")
	ErrClientClosed  = fmt.Errorf("community: client closed")
	// ErrPeerBusy reports explicit load shedding: the peer answered
	// BUSY, refusing the session or the request. The peer is healthy.
	ErrPeerBusy = fmt.Errorf("community: peer shed the request")
	// ErrPeerCircuitOpen reports that the peer's circuit breaker is
	// open: recent calls kept failing, so the client skips the peer
	// until the breaker's next probe window.
	ErrPeerCircuitOpen = fmt.Errorf("community: peer circuit open")
)

// MemberInfo locates an online member in the neighborhood.
type MemberInfo struct {
	Member ids.MemberID
	Device ids.DeviceID
}

// Client is the application client of §5.2.3.2: it connects to the
// PeerHoodCommunity servers of all nearby devices, fans requests out
// "simultaneously" as the MSCs show, aggregates the answers, and keeps
// the local dynamic-group view updated.
//
// The client holds plans, steps and state only: each call, fan-out,
// hedge and singleflight join is written once in continuation style
// over a netsim.Flow, and the sequencer runs it with blocking calls on
// the goroutine engine and as events on the DES. Each blocking call or
// fan-out of the public API is one flow (netsim.Await): on the DES one
// cascade on the client device's home that the caller awaits, so never
// call the API from inside an event.
type Client struct {
	lib   *peerhood.Library
	store *profile.Store
	sem   *interest.Semantics
	mgr   *core.Manager

	mu       sync.Mutex
	conns    map[ids.DeviceID]*peerhood.RobustConn
	resolved map[ids.MemberID]ids.DeviceID
	cache    map[ids.DeviceID]*peerCache
	inflight map[flightKey]*netsim.Completion[Response]
	rec      *msc.Recorder
	resil    *resilience
	closed   bool

	counters clientCounters
}

// peerCache is the delta-synchronization state for one neighbor: the
// last versioned answers it gave us and the epoch they were valid at.
// Entries are dropped whole on dropConn — link loss means we can no
// longer tell what the far side mutated while unreachable.
type peerCache struct {
	// Member summary (conditional PS_GETINTERESTLIST).
	hasSummary   bool
	summaryEpoch uint64
	online       bool // the device had a logged-in member at summaryEpoch
	member       ids.MemberID
	interests    []string

	// Remote profile (conditional PS_GETPROFILE).
	hasProfile    bool
	profileEpoch  uint64
	profileMember ids.MemberID
	prof          RemoteProfile
}

// flightKey identifies one in-flight request for singleflight
// collapsing: same device, op and arguments.
type flightKey struct {
	dev  ids.DeviceID
	op   string
	args string
}

// ClientStats counts the client's transport experience, so experiments
// can see how gracefully it degraded under faults: a failed call inside
// a fan-out does not fail the operation, it just marks the fan-out
// degraded.
type ClientStats struct {
	// CallsAttempted counts request/response exchanges started.
	CallsAttempted uint64
	// CallsFailed counts exchanges that returned a transport or
	// decoding error after RobustConn's retries were exhausted.
	CallsFailed uint64
	// FanoutsRun counts parallel all-neighbor request rounds.
	FanoutsRun uint64
	// FanoutsDegraded counts fan-outs where at least one device failed
	// to answer and the operation proceeded on partial results.
	FanoutsDegraded uint64
	// CacheHits counts reads served from the per-peer delta cache after
	// a NOT_MODIFIED answer.
	CacheHits uint64
	// CacheInvalidations counts per-peer caches dropped on link loss.
	CacheInvalidations uint64
	// NotModified counts NOT_MODIFIED answers received from servers.
	NotModified uint64
	// SingleflightHits counts calls that were collapsed into an
	// identical exchange already in flight to the same device.
	SingleflightHits uint64
	// BreakerSkips counts calls refused locally because the peer's
	// circuit breaker was open — failures the client didn't wait for.
	BreakerSkips uint64
	// BreakerOpens counts breaker trips (closed→open plus failed
	// probes re-opening).
	BreakerOpens uint64
	// BreakerReadmits counts peers re-admitted after a successful
	// half-open probe.
	BreakerReadmits uint64
	// BusyRejected counts BUSY answers — the peer shedding load
	// explicitly rather than failing.
	BusyRejected uint64
	// HedgesLaunched counts spare sessions raced against a silent
	// primary; HedgeWins counts races the spare won.
	HedgesLaunched uint64
	HedgeWins      uint64
}

type clientCounters struct {
	callsAttempted     atomic.Uint64
	callsFailed        atomic.Uint64
	fanoutsRun         atomic.Uint64
	fanoutsDegraded    atomic.Uint64
	cacheHits          atomic.Uint64
	cacheInvalidations atomic.Uint64
	notModified        atomic.Uint64
	singleflightHits   atomic.Uint64
	breakerSkips       atomic.Uint64
	busyRejected       atomic.Uint64
	hedgesLaunched     atomic.Uint64
	hedgeWins          atomic.Uint64
}

// Stats returns a snapshot of the client's transport counters.
func (c *Client) Stats() ClientStats {
	out := ClientStats{
		CallsAttempted:     c.counters.callsAttempted.Load(),
		CallsFailed:        c.counters.callsFailed.Load(),
		FanoutsRun:         c.counters.fanoutsRun.Load(),
		FanoutsDegraded:    c.counters.fanoutsDegraded.Load(),
		CacheHits:          c.counters.cacheHits.Load(),
		CacheInvalidations: c.counters.cacheInvalidations.Load(),
		NotModified:        c.counters.notModified.Load(),
		SingleflightHits:   c.counters.singleflightHits.Load(),
		BreakerSkips:       c.counters.breakerSkips.Load(),
		BusyRejected:       c.counters.busyRejected.Load(),
		HedgesLaunched:     c.counters.hedgesLaunched.Load(),
		HedgeWins:          c.counters.hedgeWins.Load(),
	}
	if r := c.resilience(); r != nil {
		r.mu.Lock()
		for _, b := range r.breakers {
			cts := b.Counts()
			out.BreakerOpens += cts.Opened + cts.Reopened
			out.BreakerReadmits += cts.Readmitted
		}
		r.mu.Unlock()
	}
	return out
}

// Add accumulates another snapshot into s, so experiments can sum the
// counters of a whole deployment.
func (s *ClientStats) Add(o ClientStats) {
	s.CallsAttempted += o.CallsAttempted
	s.CallsFailed += o.CallsFailed
	s.FanoutsRun += o.FanoutsRun
	s.FanoutsDegraded += o.FanoutsDegraded
	s.CacheHits += o.CacheHits
	s.CacheInvalidations += o.CacheInvalidations
	s.NotModified += o.NotModified
	s.SingleflightHits += o.SingleflightHits
	s.BreakerSkips += o.BreakerSkips
	s.BreakerOpens += o.BreakerOpens
	s.BreakerReadmits += o.BreakerReadmits
	s.BusyRejected += o.BusyRejected
	s.HedgesLaunched += o.HedgesLaunched
	s.HedgeWins += o.HedgeWins
}

// NewClient builds a client for the logged-in user of the device's
// store. sem may be nil to disable interest semantics.
func NewClient(lib *peerhood.Library, store *profile.Store, sem *interest.Semantics) (*Client, error) {
	if lib == nil || store == nil {
		return nil, fmt.Errorf("community: client needs a library and a store")
	}
	c := &Client{
		lib:      lib,
		store:    store,
		sem:      sem,
		conns:    make(map[ids.DeviceID]*peerhood.RobustConn),
		resolved: make(map[ids.MemberID]ids.DeviceID),
		cache:    make(map[ids.DeviceID]*peerCache),
		inflight: make(map[flightKey]*netsim.Completion[Response]),
	}
	return c, nil
}

// SetRecorder attaches an MSC recorder to capture the message sequences
// of every operation; nil disables recording.
func (c *Client) SetRecorder(rec *msc.Recorder) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rec = rec
}

func (c *Client) recorder() *msc.Recorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rec
}

// name identifies this client on MSC charts.
func (c *Client) name() string { return "client@" + string(c.lib.Device()) }

func serverName(dev ids.DeviceID) string { return "server@" + string(dev) }

// Close releases cached connections; subsequent operations fail with
// ErrClientClosed.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for _, conn := range c.conns {
		conn.Close()
	}
	c.conns = make(map[ids.DeviceID]*peerhood.RobustConn)
}

// Manager returns the dynamic-group manager, creating it lazily for the
// logged-in member.
func (c *Client) Manager() (*core.Manager, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mgr != nil {
		return c.mgr, nil
	}
	p, err := c.store.ActiveProfile()
	if err != nil {
		return nil, err
	}
	self := core.Member{Device: c.lib.Device(), ID: p.Member, Interests: p.Interests}
	c.mgr = core.NewManager(self, c.sem)
	return c.mgr, nil
}

// activeMember returns the logged-in member ID.
func (c *Client) activeMember() (ids.MemberID, error) {
	m := c.store.Active()
	if m == "" {
		return "", ErrNotLoggedIn
	}
	return m, nil
}

// await runs op as one flow of the client's device (netsim.Await).
func await[T any](c *Client, ctx context.Context, op func(f netsim.Flow, done func(netsim.Flow, T, error))) (T, error) {
	return netsim.Await(c.lib.Daemon().Network(), ctx, c.lib.Device(), op)
}

// session hands then the cached robust connection to a device's
// community server, dialing it on first use.
func (c *Client) session(f netsim.Flow, dev ids.DeviceID, then func(netsim.Flow, *peerhood.RobustConn, error)) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		then(f, nil, ErrClientClosed)
		return
	}
	if rc, ok := c.conns[dev]; ok {
		c.mu.Unlock()
		then(f, rc, nil)
		return
	}
	c.mu.Unlock()
	c.lib.Daemon().DialRobust(f, dev, ServiceName, peerhood.DefaultRobustOptions(), func(f netsim.Flow, rc *peerhood.RobustConn, err error) {
		if err != nil {
			then(f, nil, err)
			return
		}
		c.mu.Lock()
		existing, ok := c.conns[dev]
		closed := c.closed
		if !ok && !closed {
			c.conns[dev] = rc
		}
		c.mu.Unlock()
		switch {
		case closed:
			rc.Abort(f)
			then(f, nil, ErrClientClosed)
		case ok:
			rc.Abort(f)
			then(f, existing, nil)
		default:
			then(f, rc, nil)
		}
	})
}

// dropConn forgets a dead connection and invalidates the device's
// delta cache: across a link loss we cannot know what the far side
// mutated, so the next exchange must be a full fetch.
func (c *Client) dropConn(dev ids.DeviceID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rc, ok := c.conns[dev]; ok {
		rc.Close()
		delete(c.conns, dev)
	}
	if _, ok := c.cache[dev]; ok {
		delete(c.cache, dev)
		c.counters.cacheInvalidations.Add(1)
	}
}

// cacheEntry returns the device's cache record, creating it if absent.
// Callers hold c.mu.
func (c *Client) cacheEntry(dev ids.DeviceID) *peerCache {
	pc, ok := c.cache[dev]
	if !ok {
		pc = &peerCache{}
		c.cache[dev] = pc
	}
	return pc
}

// call is callIn for a blocking caller: one flow.
func (c *Client) call(ctx context.Context, dev ids.DeviceID, req Request) (Response, error) {
	return await(c, ctx, func(f netsim.Flow, done func(netsim.Flow, Response, error)) {
		c.callIn(f, dev, req, done)
	})
}

// callIn performs one request/response with a device in flow f,
// recording the MSC arrows. It is where the client's degradation
// machinery lives: the peer's circuit breaker gates the attempt,
// explicit BUSY answers are surfaced as backpressure (and never count
// against the peer's health), and everything else feeds the breaker's
// health score.
func (c *Client) callIn(f netsim.Flow, dev ids.DeviceID, req Request, then func(netsim.Flow, Response, error)) {
	c.counters.callsAttempted.Add(1)
	br := c.breakerFor(dev)
	if br != nil && !br.Allow() {
		c.counters.breakerSkips.Add(1)
		c.counters.callsFailed.Add(1)
		then(f, Response{}, fmt.Errorf("%w: %s", ErrPeerCircuitOpen, dev))
		return
	}
	c.session(f, dev, func(f netsim.Flow, rc *peerhood.RobustConn, err error) {
		if err != nil {
			c.counters.callsFailed.Add(1)
			c.recordOutcome(br, err)
			then(f, Response{}, err)
			return
		}
		// The chart names are built only when a recorder is attached.
		rec := c.recorder()
		if rec != nil {
			rec.Record(c.name(), serverName(dev), req.Op)
		}
		// Marshal into a pooled buffer: the transport copies the payload
		// on send, so the buffer is reusable as soon as the exchange ends
		// (a hedge copies it up front for its legs).
		buf := getFrameBuf()
		*buf = AppendRequest(*buf, req)
		c.exchange(f, dev, rc, *buf, req.Op, func(f netsim.Flow, raw []byte, err error) {
			putFrameBuf(buf)
			resp, err := c.answer(dev, br, rec, req.Op, raw, err)
			then(f, resp, err)
		})
	})
}

// answer turns one exchange's outcome into callIn's result.
func (c *Client) answer(dev ids.DeviceID, br *peerhood.Breaker, rec *msc.Recorder, op string, raw []byte, err error) (Response, error) {
	if err != nil {
		c.dropConn(dev)
		c.counters.callsFailed.Add(1)
		c.recordOutcome(br, err)
		return Response{}, fmt.Errorf("community: calling %s on %s: %w", op, dev, err)
	}
	resp, err := UnmarshalResponse(raw)
	if err != nil {
		// A mangled frame degrades to a failed call; it must never take
		// the client down.
		c.counters.callsFailed.Add(1)
		c.recordOutcome(br, err)
		return Response{}, err
	}
	if br != nil {
		// Explicit shedding counts as health too: the peer is alive and
		// chose not to serve us, and tripping the breaker on BUSY would
		// turn graceful degradation into self-inflicted partition.
		br.Record(true)
	}
	if rec != nil {
		rec.Record(serverName(dev), c.name(), resp.Status)
	}
	if resp.Status == StatusBusy {
		c.counters.busyRejected.Add(1)
		c.counters.callsFailed.Add(1)
		return Response{}, fmt.Errorf("%w: %s refused %s", ErrPeerBusy, dev, op)
	}
	return resp, nil
}

// Ping probes one device's community server. It is free under the
// server's rate limit and hedge-eligible, so it answers "overloaded or
// dead?" even when everything else is being shed.
func (c *Client) Ping(ctx context.Context, dev ids.DeviceID) error {
	resp, err := c.call(ctx, dev, Request{Op: OpPing})
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return fmt.Errorf("%w: %s", ErrRemote, resp.Status)
	}
	return nil
}

// singleflightable reports whether identical concurrent requests for
// this op may share one wire exchange. Only side-effect-free reads
// qualify: mutations (comments, messages) must each reach the server,
// and PS_GETPROFILE records a visitor per request.
func singleflightable(op string) bool {
	switch op {
	case OpGetOnlineMemberList, OpGetInterestList, OpGetInterestedMemberList,
		OpGetTrustedFriend, OpCheckTrusted, OpCheckMemberID, OpSharedContent:
		return true
	}
	return false
}

// callShared performs one request/response, collapsing identical
// concurrent read requests to the same device into a single exchange:
// late arrivals join the leader's completion.
func (c *Client) callShared(f netsim.Flow, dev ids.DeviceID, req Request, then func(netsim.Flow, Response, error)) {
	if !singleflightable(req.Op) {
		c.callIn(f, dev, req, then)
		return
	}
	key := flightKey{dev: dev, op: req.Op, args: strings.Join(req.Args, "\x1f")}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		then(f, Response{}, ErrClientClosed)
		return
	}
	if flight, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.counters.singleflightHits.Add(1)
		flight.Then(f, then)
		return
	}
	flight := new(netsim.Completion[Response])
	c.inflight[key] = flight
	c.mu.Unlock()
	c.callIn(f, dev, req, func(f netsim.Flow, resp Response, err error) {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		flight.Set(f, resp, err)
		then(f, resp, err)
	})
}

// fanoutWorkers bounds how many calls one fan-out keeps in flight. The
// thesis's client asks "simultaneously", but at substrate scale an
// unbounded round is its own denial of service; a fixed width keeps
// rounds cheap without changing observable order.
const fanoutWorkers = 16

// deviceResponse pairs a device with its answer.
type deviceResponse struct {
	Device   ids.DeviceID
	Response Response
	Err      error
}

// fanout sends one request to every neighborhood device offering the
// community service, in parallel ("simultaneously", Figures 11–17), and
// returns the answers sorted by device.
func (c *Client) fanout(ctx context.Context, req Request) []deviceResponse {
	return c.fanoutBy(ctx, func(ids.DeviceID) Request { return req })
}

// fanoutBy is fanout with a per-device request builder, so conditional
// reads can quote each device's cached epoch. It is one flow with up to
// fanoutWorkers calls in flight (netsim.Flow.Fanout). Answers come back
// sorted by device: DevicesOffering returns devices sorted and results
// are written by index, whatever order the calls end in.
func (c *Client) fanoutBy(ctx context.Context, build func(ids.DeviceID) Request) []deviceResponse {
	out, _ := await(c, ctx, func(f netsim.Flow, done func(netsim.Flow, []deviceResponse, error)) {
		c.counters.fanoutsRun.Add(1)
		devices := c.lib.DevicesOffering(ServiceName)
		out := make([]deviceResponse, len(devices))
		f.Fanout(len(devices), fanoutWorkers, func(f netsim.Flow, i int, next func(netsim.Flow)) {
			dev := devices[i]
			c.callShared(f, dev, build(dev), func(f netsim.Flow, resp Response, err error) {
				out[i] = deviceResponse{Device: dev, Response: resp, Err: err}
				next(f)
			})
		}, func(f netsim.Flow) {
			for _, dr := range out {
				if dr.Err != nil {
					// Partial neighborhood: some device failed to answer (or
					// its circuit was open) and the operation proceeds
					// without it.
					c.counters.fanoutsDegraded.Add(1)
					break
				}
			}
			done(f, out, nil)
		})
	})
	return out
}

// OnlineMembers implements Figure 11 (Get Member List): ask every
// connected server for its online member and merge the answers.
func (c *Client) OnlineMembers(ctx context.Context) ([]MemberInfo, error) {
	if _, err := c.activeMember(); err != nil {
		return nil, err
	}
	var members []MemberInfo
	for _, dr := range c.fanout(ctx, Request{Op: OpGetOnlineMemberList}) {
		if dr.Err != nil || dr.Response.Status != StatusOK {
			continue
		}
		for _, f := range dr.Response.Fields {
			members = append(members, MemberInfo{Member: ids.MemberID(f), Device: dr.Device})
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Member < members[j].Member })
	return members, nil
}

// InterestsList implements Figure 12 (Get Interests List): gather
// interests from every server, merge with the local ones, deduplicate.
func (c *Client) InterestsList(ctx context.Context) ([]string, error) {
	member, err := c.activeMember()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var all []string
	add := func(term string) {
		canon := c.sem.Canon(term)
		if canon == "" || seen[canon] {
			return
		}
		seen[canon] = true
		all = append(all, canon)
	}
	p, err := c.store.Get(member)
	if err != nil {
		return nil, err
	}
	for _, t := range p.Interests {
		add(t)
	}
	for _, dr := range c.fanout(ctx, Request{Op: OpGetInterestList}) {
		if dr.Err != nil || dr.Response.Status != StatusOK {
			continue
		}
		for _, t := range dr.Response.Fields {
			add(t)
		}
	}
	sort.Strings(all)
	return all, nil
}

// InterestedMembers implements PS_GETINTERESTEDMEMBERLIST: the online
// members sharing one interest. With a semantics layer attached, the
// query expands to the whole taught synonym class, so asking for
// "biking" also finds members who wrote "cycling".
func (c *Client) InterestedMembers(ctx context.Context, term string) ([]MemberInfo, error) {
	if _, err := c.activeMember(); err != nil {
		return nil, err
	}
	variants := []string{interest.Normalize(term)}
	if c.sem != nil {
		if class := c.sem.Class(term); len(class) > 0 {
			variants = class
		}
	}
	seen := make(map[ids.MemberID]bool)
	var members []MemberInfo
	for _, variant := range variants {
		for _, dr := range c.fanout(ctx, Request{Op: OpGetInterestedMemberList, Args: []string{variant}}) {
			if dr.Err != nil || dr.Response.Status != StatusOK {
				continue
			}
			for _, f := range dr.Response.Fields {
				m := ids.MemberID(f)
				if seen[m] {
					continue
				}
				seen[m] = true
				members = append(members, MemberInfo{Member: m, Device: dr.Device})
			}
		}
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Member < members[j].Member })
	return members, nil
}

// resolveDevice finds which neighborhood device hosts a member, via
// PS_CHECKMEMBERID. Successful resolutions are cached; a cached entry
// is re-verified with a single request (instead of a full fan-out) and
// dropped if the device no longer hosts the member.
func (c *Client) resolveDevice(ctx context.Context, member ids.MemberID) (ids.DeviceID, error) {
	c.mu.Lock()
	cached, ok := c.resolved[member]
	c.mu.Unlock()
	if ok {
		resp, err := c.call(ctx, cached, Request{Op: OpCheckMemberID, Args: []string{string(member)}})
		if err == nil && resp.Status == StatusSuccess {
			return cached, nil
		}
		c.mu.Lock()
		delete(c.resolved, member)
		c.mu.Unlock()
	}
	for _, dr := range c.fanout(ctx, Request{Op: OpCheckMemberID, Args: []string{string(member)}}) {
		if dr.Err == nil && dr.Response.Status == StatusSuccess {
			c.mu.Lock()
			c.resolved[member] = dr.Device
			c.mu.Unlock()
			return dr.Device, nil
		}
	}
	return "", fmt.Errorf("%w: %q", ErrMemberUnknown, member)
}

// ViewProfile implements Figure 13 (View Member Profile): the request
// goes to all connected servers; the desired one answers with the
// profile (and records us as a visitor), the others with
// NO_MEMBERS_YET. Requests are conditional: a device whose profile we
// already cached is asked with its epoch and answers NOT_MODIFIED when
// nothing changed — the visit is still recorded server-side.
func (c *Client) ViewProfile(ctx context.Context, member ids.MemberID) (RemoteProfile, error) {
	requester, err := c.activeMember()
	if err != nil {
		return RemoteProfile{}, err
	}
	results := c.fanoutBy(ctx, func(dev ids.DeviceID) Request {
		var epoch uint64
		var known bool
		c.mu.Lock()
		if pc, ok := c.cache[dev]; ok && pc.hasProfile && pc.profileMember == member {
			epoch, known = pc.profileEpoch, true
		}
		c.mu.Unlock()
		return Request{Op: OpGetProfile, Args: []string{string(member), string(requester), ifEpochArg(epoch, known)}}
	})
	for _, dr := range results {
		if dr.Err != nil {
			continue
		}
		switch dr.Response.Status {
		case StatusOK:
			fields, sealed := openVersioned(dr.Response)
			if !sealed || len(fields) < 1 {
				continue
			}
			epoch, perr := strconv.ParseUint(fields[0], 10, 64)
			if perr != nil {
				continue
			}
			prof, derr := decodeProfile(fields[1:])
			if derr != nil {
				return RemoteProfile{}, derr
			}
			c.mu.Lock()
			pc := c.cacheEntry(dr.Device)
			pc.hasProfile, pc.profileEpoch, pc.profileMember = true, epoch, member
			pc.prof = cloneRemoteProfile(prof)
			c.mu.Unlock()
			return prof, nil
		case StatusNotModified:
			if _, sealed := openVersioned(dr.Response); !sealed {
				continue
			}
			c.counters.notModified.Add(1)
			c.mu.Lock()
			if pc, ok := c.cache[dr.Device]; ok && pc.hasProfile && pc.profileMember == member {
				prof := cloneRemoteProfile(pc.prof)
				c.mu.Unlock()
				c.counters.cacheHits.Add(1)
				return prof, nil
			}
			c.mu.Unlock()
		}
	}
	return RemoteProfile{}, fmt.Errorf("%w: %q", ErrMemberUnknown, member)
}

// cloneRemoteProfile deep-copies a profile so cached state and returned
// values never alias.
func cloneRemoteProfile(p RemoteProfile) RemoteProfile {
	out := p
	out.Interests = append([]string(nil), p.Interests...)
	out.Comments = append([]profile.Comment(nil), p.Comments...)
	out.Trusted = append([]ids.MemberID(nil), p.Trusted...)
	return out
}

// CommentProfile implements Figure 14 (Put Profile Comment).
func (c *Client) CommentProfile(ctx context.Context, member ids.MemberID, text string) error {
	requester, err := c.activeMember()
	if err != nil {
		return err
	}
	req := Request{Op: OpAddProfileComment, Args: []string{string(member), string(requester), text}}
	for _, dr := range c.fanout(ctx, req) {
		if dr.Err == nil && dr.Response.Status == StatusWritten {
			return nil
		}
	}
	return fmt.Errorf("%w: %q", ErrMemberUnknown, member)
}

// TrustedFriendsOf implements Figure 15 (View Members Trusted Friends).
func (c *Client) TrustedFriendsOf(ctx context.Context, member ids.MemberID) ([]ids.MemberID, error) {
	if _, err := c.activeMember(); err != nil {
		return nil, err
	}
	req := Request{Op: OpGetTrustedFriend, Args: []string{string(member)}}
	for _, dr := range c.fanout(ctx, req) {
		if dr.Err != nil || dr.Response.Status != StatusOK {
			continue
		}
		out := make([]ids.MemberID, 0, len(dr.Response.Fields))
		for _, f := range dr.Response.Fields {
			out = append(out, ids.MemberID(f))
		}
		return out, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrMemberUnknown, member)
}

// SharedContentOf implements Figure 16 (View Members Shared Content):
// first PS_CHECKTRUSTED, then PS_GETSHAREDCONTENT if trusted.
func (c *Client) SharedContentOf(ctx context.Context, member ids.MemberID) ([]profile.ContentItem, error) {
	requester, err := c.activeMember()
	if err != nil {
		return nil, err
	}
	dev, err := c.resolveDevice(ctx, member)
	if err != nil {
		return nil, err
	}
	check, err := c.call(ctx, dev, Request{Op: OpCheckTrusted, Args: []string{string(member), string(requester)}})
	if err != nil {
		return nil, err
	}
	if check.Status == StatusNotTrustedYet {
		return nil, fmt.Errorf("%w: %s has not accepted %s", ErrNotTrusted, member, requester)
	}
	if check.Status != StatusOK {
		return nil, fmt.Errorf("%w: %s", ErrRemote, check.Status)
	}
	resp, err := c.call(ctx, dev, Request{Op: OpSharedContent, Args: []string{string(member), string(requester)}})
	if err != nil {
		return nil, err
	}
	if resp.Status != StatusOK {
		return nil, fmt.Errorf("%w: %s", ErrRemote, resp.Status)
	}
	if len(resp.Fields)%2 != 0 {
		return nil, fmt.Errorf("community: malformed shared-content list")
	}
	var items []profile.ContentItem
	for i := 0; i < len(resp.Fields); i += 2 {
		size, err := strconv.ParseInt(resp.Fields[i+1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("community: bad content size %q", resp.Fields[i+1])
		}
		items = append(items, profile.ContentItem{Name: resp.Fields[i], Size: size})
	}
	return items, nil
}

// FetchShared transfers one shared item from a trusted friend.
func (c *Client) FetchShared(ctx context.Context, member ids.MemberID, name string) ([]byte, error) {
	requester, err := c.activeMember()
	if err != nil {
		return nil, err
	}
	dev, err := c.resolveDevice(ctx, member)
	if err != nil {
		return nil, err
	}
	resp, err := c.call(ctx, dev, Request{Op: OpFetchShared, Args: []string{string(member), string(requester), name}})
	if err != nil {
		return nil, err
	}
	switch resp.Status {
	case StatusOK:
		if len(resp.Fields) != 1 {
			return nil, fmt.Errorf("community: malformed fetch response")
		}
		return []byte(resp.Fields[0]), nil
	case StatusNotTrustedYet:
		return nil, fmt.Errorf("%w: fetching %q from %s", ErrNotTrusted, name, member)
	default:
		return nil, fmt.Errorf("%w: %s", ErrRemote, resp.Status)
	}
}

// SendMessage implements Figure 17 (Send Message): locate the
// receiver's device, deliver PS_MSG, and on SUCCESSFULLY_WRITTEN record
// the copy in the local outbox.
func (c *Client) SendMessage(ctx context.Context, to ids.MemberID, subject, body string) error {
	sender, err := c.activeMember()
	if err != nil {
		return err
	}
	dev, err := c.resolveDevice(ctx, to)
	if err != nil {
		return err
	}
	resp, err := c.call(ctx, dev, Request{Op: OpMsg, Args: []string{string(to), string(sender), subject, body}})
	if err != nil {
		return err
	}
	if resp.Status != StatusWritten {
		return fmt.Errorf("%w: %s", ErrRemote, resp.Status)
	}
	return c.store.RecordSent(sender, profile.Message{From: sender, To: to, Subject: subject, Body: body})
}

// summaryRequest is one device's member-summary read (who is logged in
// and their interests), conditional on the cached epoch: one exchange
// either way — the versioned interest-list reply carries the member ID,
// where the classic path needed PS_GETONLINEMEMBERLIST plus
// PS_GETINTERESTLIST.
func (c *Client) summaryRequest(dev ids.DeviceID) Request {
	var epoch uint64
	var known bool
	c.mu.Lock()
	if pc, ok := c.cache[dev]; ok && pc.hasSummary {
		epoch, known = pc.summaryEpoch, true
	}
	c.mu.Unlock()
	return Request{Op: OpGetInterestList, Args: []string{ifEpochArg(epoch, known)}}
}

// memberSummary reads one device's answer to summaryRequest: a
// NOT_MODIFIED answer is served from the cache, and a full answer
// re-primes it.
func (c *Client) memberSummary(dev ids.DeviceID, resp Response) (core.Member, bool) {
	switch resp.Status {
	case StatusNotModified:
		if _, sealed := openVersioned(resp); !sealed {
			return core.Member{}, false
		}
		c.counters.notModified.Add(1)
		c.mu.Lock()
		pc, ok := c.cache[dev]
		if !ok || !pc.hasSummary {
			// The cache vanished between our request and the answer (a
			// concurrent link loss); treat the device as absent this
			// round and re-fetch next time.
			c.mu.Unlock()
			return core.Member{}, false
		}
		m := core.Member{Device: dev, ID: pc.member, Interests: pc.interests}
		online := pc.online
		c.mu.Unlock()
		c.counters.cacheHits.Add(1)
		return m, online
	case StatusOK:
		fields, sealed := openVersioned(resp)
		if !sealed || len(fields) < 2 {
			return core.Member{}, false
		}
		e, perr := strconv.ParseUint(fields[0], 10, 64)
		if perr != nil {
			return core.Member{}, false
		}
		member := ids.MemberID(fields[1])
		interests := fields[2:]
		c.mu.Lock()
		pc := c.cacheEntry(dev)
		pc.hasSummary, pc.summaryEpoch, pc.online = true, e, true
		pc.member, pc.interests = member, interests
		c.mu.Unlock()
		return core.Member{Device: dev, ID: member, Interests: interests}, true
	case StatusNoMembersYet:
		if fields, sealed := openVersioned(resp); sealed && len(fields) == 1 {
			if e, perr := strconv.ParseUint(fields[0], 10, 64); perr == nil {
				c.mu.Lock()
				pc := c.cacheEntry(dev)
				pc.hasSummary, pc.summaryEpoch, pc.online = true, e, false
				pc.member, pc.interests = "", nil
				c.mu.Unlock()
			}
		}
	}
	return core.Member{}, false
}

// NearbyMembers gathers a core.Member snapshot for every online
// neighborhood member: who they are and what they are interested in.
// This is the steady-state hot path of dynamic group discovery: one
// fan-out of per-device conditional reads.
func (c *Client) NearbyMembers(ctx context.Context) ([]core.Member, error) {
	if _, err := c.activeMember(); err != nil {
		return nil, err
	}
	var out []core.Member
	for _, dr := range c.fanoutBy(ctx, c.summaryRequest) {
		if dr.Err != nil {
			continue // call already dropped the conn + cache
		}
		if m, ok := c.memberSummary(dr.Device, dr.Response); ok {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out, nil
}

// RefreshGroups implements the dynamic group discovery cycle of
// Figure 6 end-to-end: gather nearby members over PeerHood and update
// the group manager, returning the membership events.
func (c *Client) RefreshGroups(ctx context.Context) ([]core.Event, error) {
	mgr, err := c.Manager()
	if err != nil {
		return nil, err
	}
	// Keep the manager's view of our interests current.
	p, err := c.store.ActiveProfile()
	if err != nil {
		return nil, err
	}
	mgr.SetInterests(p.Interests)
	nearby, err := c.NearbyMembers(ctx)
	if err != nil {
		return nil, err
	}
	if rec := c.recorder(); rec != nil {
		rec.Record(c.name(), c.name(), "dynamic group discovery")
	}
	return mgr.Update(nearby), nil
}

// Groups returns the current dynamic groups.
func (c *Client) Groups() []core.Group {
	c.mu.Lock()
	mgr := c.mgr
	c.mu.Unlock()
	if mgr == nil {
		return nil
	}
	return mgr.Groups()
}
