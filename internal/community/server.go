package community

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ids"
	"repro/internal/interest"
	"repro/internal/netsim"
	"repro/internal/peerhood"
	"repro/internal/profile"
	"repro/internal/radio"
)

// Server is the application server every PTD runs (§5.2.3.1): it
// registers the PeerHoodCommunity service into the PeerHood daemon,
// stays in the listening state, and answers the requests of Table 6
// against the device's profile store. Admission is bounded by netsim's
// serving path (ServeLimit): sessions beyond MaxSessions wait in a
// fixed queue, sessions beyond that are shed with an explicit BUSY
// frame, and per-peer token buckets throttle request floods — overload
// degrades into visible rejections, never into unbounded goroutines or
// silent hangs.
type Server struct {
	lib   *peerhood.Library
	store *profile.Store
	env   *radio.Environment
	opts  ServerOptions

	mu      sync.Mutex
	content map[contentKey][]byte
	svc     *netsim.Service
	started bool

	rlMu    sync.Mutex
	buckets map[ids.DeviceID]*peerBucket

	served, rateLimited atomic.Uint64
}

type contentKey struct {
	member ids.MemberID
	name   string
}

// NewServer creates a server bound to a PeerHood library and the
// device's profile store, with default admission limits.
func NewServer(lib *peerhood.Library, store *profile.Store) (*Server, error) {
	return NewServerWith(lib, store, ServerOptions{})
}

// NewServerWith is NewServer with explicit overload tuning.
func NewServerWith(lib *peerhood.Library, store *profile.Store, opts ServerOptions) (*Server, error) {
	if lib == nil || store == nil {
		return nil, fmt.Errorf("community: server needs a library and a store")
	}
	return &Server{
		lib:     lib,
		store:   store,
		env:     lib.Daemon().Network().Environment(),
		opts:    opts.withDefaults(),
		content: make(map[contentKey][]byte),
		buckets: make(map[ids.DeviceID]*peerBucket),
	}, nil
}

// Start registers the service (Figure 8) and begins serving.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("community: server already started")
	}
	listener, err := s.lib.RegisterService(ServiceName, map[string]string{"app": "community"})
	if err != nil {
		return fmt.Errorf("community: registering service: %w", err)
	}
	s.started = true
	s.svc = listener.ServeLimit(s.serve, netsim.Limit{
		Sessions:     s.opts.MaxSessions,
		Queue:        s.opts.QueueDepth,
		Busy:         MarshalResponse(Response{Status: StatusBusy}),
		WriteTimeout: s.opts.WriteTimeout,
	})
	return nil
}

// Stop unregisters the service and stops serving (netsim.Service.Stop):
// sessions still waiting in the queue are aborted — a stopping server
// owes nobody a flush.
func (s *Server) Stop() {
	s.mu.Lock()
	started := s.started
	s.started = false
	s.mu.Unlock()
	if !started {
		return
	}
	s.lib.UnregisterService(ServiceName)
	s.svc.Stop()
}

// serve answers one request, a frame that does not decode with
// BAD_REQUEST, and serves the next.
func (s *Server) serve(remote ids.DeviceID, frame []byte) ([]byte, netsim.ServeStep) {
	req, err := UnmarshalRequest(frame)
	if err != nil {
		return MarshalResponse(Response{Status: StatusBadRequest, Fields: []string{err.Error()}}), s.serve
	}
	return MarshalResponse(s.HandleFrom(remote, req)), s.serve
}

// HandleFrom dispatches one request attributed to a remote peer,
// applying the per-peer rate limit before the Table 6 handlers. The
// serving step calls it with the dialing device; benchmarks call it
// directly to price the serve and shed fast paths without a transport.
func (s *Server) HandleFrom(remote ids.DeviceID, req Request) Response {
	if !s.allowRequest(remote, opWeight(req.Op)) {
		s.rateLimited.Add(1)
		return Response{Status: StatusBusy}
	}
	s.served.Add(1)
	return s.Handle(req)
}

// Handle dispatches one request to its Table 6 server function. It is
// exported so tests (and the MSC generator) can drive the server
// without a network.
func (s *Server) Handle(req Request) Response {
	switch req.Op {
	case OpPing:
		// Liveness probe: echo the arguments. Costs nothing against the
		// rate limit, so peers can tell "overloaded" from "dead".
		return Response{Status: StatusOK, Fields: req.Args}
	case OpGetOnlineMemberList:
		return s.handleOnlineMemberList()
	case OpGetInterestList:
		return s.handleInterestList(req.Args)
	case OpGetInterestedMemberList:
		return s.handleInterestedMemberList(req.Args)
	case OpGetProfile:
		return s.handleGetProfile(req.Args)
	case OpAddProfileComment:
		return s.handleAddComment(req.Args)
	case OpCheckMemberID:
		return s.handleCheckMemberID(req.Args)
	case OpMsg:
		return s.handleMsg(req.Args)
	case OpGetTrustedFriend:
		return s.handleGetTrusted(req.Args)
	case OpCheckTrusted:
		return s.handleCheckTrusted(req.Args)
	case OpSharedContent:
		return s.handleSharedContent(req.Args)
	case OpFetchShared:
		return s.handleFetchShared(req.Args)
	default:
		return Response{Status: StatusBadRequest, Fields: []string{"unknown op " + req.Op}}
	}
}

// activeProfile returns the logged-in profile, if any.
func (s *Server) activeProfile() (profile.Profile, bool) {
	p, err := s.store.ActiveProfile()
	if err != nil {
		return profile.Profile{}, false
	}
	return p, true
}

// handleOnlineMemberList: "Identifies list of online member and
// transmits the list to the requesting client."
func (s *Server) handleOnlineMemberList() Response {
	p, ok := s.activeProfile()
	if !ok {
		return Response{Status: StatusNoMembersYet}
	}
	return Response{Status: StatusOK, Fields: []string{string(p.Member)}}
}

// --- delta synchronization (if-epoch conditional reads) ---

// ifEpochPrefix tags the optional trailing argument that turns a
// PS_GETINTERESTLIST / PS_GETPROFILE request into a conditional read.
// Clients that never send it get byte-identical classic replies, which
// is what keeps old clients interoperating with new servers.
const ifEpochPrefix = "IF-EPOCH:"

// ifEpochArg renders the conditional-read argument. known=false (no
// cached epoch yet) produces the "IF-EPOCH:-" form, which never
// matches but still asks for a versioned reply carrying the epoch.
func ifEpochArg(epoch uint64, known bool) string {
	if !known {
		return ifEpochPrefix + "-"
	}
	return ifEpochPrefix + strconv.FormatUint(epoch, 10)
}

// parseIfEpoch recognizes an if-epoch argument. conditional reports
// whether the argument is one at all; known reports whether it quotes
// a concrete epoch (a malformed number degrades to "no cached epoch",
// which just costs a full reply).
func parseIfEpoch(arg string) (epoch uint64, conditional, known bool) {
	if !strings.HasPrefix(arg, ifEpochPrefix) {
		return 0, false, false
	}
	v := arg[len(ifEpochPrefix):]
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, true, false
	}
	return n, true, true
}

// formatEpoch renders an epoch as a response field.
func formatEpoch(epoch uint64) string {
	return strconv.FormatUint(epoch, 10)
}

// handleInterestList: "Identifies list of local interests and
// transmits the list to the requesting client." A trailing if-epoch
// argument upgrades it to a conditional member-summary read.
func (s *Server) handleInterestList(args []string) Response {
	if len(args) >= 1 {
		if want, conditional, known := parseIfEpoch(args[len(args)-1]); conditional {
			return s.handleInterestListVersioned(want, known)
		}
	}
	p, ok := s.activeProfile()
	if !ok {
		return Response{Status: StatusNoMembersYet}
	}
	return Response{Status: StatusOK, Fields: p.Interests}
}

// handleInterestListVersioned answers the conditional form: NOT_MODIFIED
// when the client's quoted epoch is current, otherwise a member summary
// [epoch, member, interests...] that primes the client cache in one
// exchange. The epoch is read before the profile so a concurrent
// mutation can only make the reply look older than it is (a wasted
// re-fetch later), never newer (a stale cache passing as fresh).
func (s *Server) handleInterestListVersioned(want uint64, known bool) Response {
	epoch := s.store.Epoch()
	if known && want == epoch {
		return sealVersioned(StatusNotModified, []string{formatEpoch(epoch)})
	}
	p, ok := s.activeProfile()
	if !ok {
		return sealVersioned(StatusNoMembersYet, []string{formatEpoch(epoch)})
	}
	fields := make([]string, 0, len(p.Interests)+3)
	fields = append(fields, formatEpoch(epoch), string(p.Member))
	fields = append(fields, p.Interests...)
	return sealVersioned(StatusOK, fields)
}

// handleInterestedMemberList: "Identifies the list of online member in
// accordance to a common interest."
func (s *Server) handleInterestedMemberList(args []string) Response {
	if len(args) != 1 {
		return Response{Status: StatusBadRequest}
	}
	p, ok := s.activeProfile()
	if !ok {
		return Response{Status: StatusNoMembersYet}
	}
	if p.HasInterest(interest.Normalize(args[0])) {
		return Response{Status: StatusOK, Fields: []string{string(p.Member)}}
	}
	return Response{Status: StatusOK}
}

// handleGetProfile: "Transmits the local user profile to the requesting
// client" and records the requester as a profile visitor (Figure 13).
// A third if-epoch argument upgrades it to a conditional read; the
// visit is recorded either way (viewing is a side effect of asking, not
// of transferring the payload), and visits never bump the epoch.
func (s *Server) handleGetProfile(args []string) Response {
	if len(args) == 3 {
		if want, conditional, known := parseIfEpoch(args[2]); conditional {
			return s.handleGetProfileVersioned(ids.MemberID(args[0]), ids.MemberID(args[1]), want, known)
		}
	}
	if len(args) != 2 {
		return Response{Status: StatusBadRequest}
	}
	member, requester := ids.MemberID(args[0]), ids.MemberID(args[1])
	p, ok := s.activeProfile()
	if !ok || p.Member != member {
		return Response{Status: StatusNoMembersYet}
	}
	if requester != "" && requester != member {
		_ = s.store.RecordVisit(member, requester)
	}
	return Response{Status: StatusOK, Fields: encodeProfile(p)}
}

// handleGetProfileVersioned answers the conditional form of
// PS_GETPROFILE. As in the interest-list handler, the epoch is read
// before the profile so races only ever cause an extra re-fetch.
func (s *Server) handleGetProfileVersioned(member, requester ids.MemberID, want uint64, known bool) Response {
	epoch := s.store.Epoch()
	p, ok := s.activeProfile()
	if !ok || p.Member != member {
		return sealVersioned(StatusNoMembersYet, []string{formatEpoch(epoch)})
	}
	if requester != "" && requester != member {
		_ = s.store.RecordVisit(member, requester)
	}
	if known && want == epoch {
		return sealVersioned(StatusNotModified, []string{formatEpoch(epoch)})
	}
	return sealVersioned(StatusOK, append([]string{formatEpoch(epoch)}, encodeProfile(p)...))
}

// handleAddComment: "Writes or appends the Profile comments send by
// remote client into the local user's profile" (Figure 14).
func (s *Server) handleAddComment(args []string) Response {
	if len(args) != 3 {
		return Response{Status: StatusBadRequest}
	}
	member, from, text := ids.MemberID(args[0]), ids.MemberID(args[1]), args[2]
	p, ok := s.activeProfile()
	if !ok || p.Member != member {
		return Response{Status: StatusNoMembersYet}
	}
	if err := s.store.AddComment(member, from, text); err != nil {
		return Response{Status: StatusUnsuccessful, Fields: []string{err.Error()}}
	}
	return Response{Status: StatusWritten}
}

// handleCheckMemberID: "Compares the received MemberID with local
// user's member ID and returns the success or failure."
func (s *Server) handleCheckMemberID(args []string) Response {
	if len(args) != 1 {
		return Response{Status: StatusBadRequest}
	}
	p, ok := s.activeProfile()
	if ok && p.Member == ids.MemberID(args[0]) {
		return Response{Status: StatusSuccess}
	}
	return Response{Status: StatusFailure}
}

// handleMsg: "Receives the message from the remote client and writes
// into the local user's message inbox" (Figure 17).
func (s *Server) handleMsg(args []string) Response {
	if len(args) != 4 {
		return Response{Status: StatusBadRequest}
	}
	receiver, sender, subject, body := ids.MemberID(args[0]), ids.MemberID(args[1]), args[2], args[3]
	p, ok := s.activeProfile()
	if !ok || p.Member != receiver {
		return Response{Status: StatusUnsuccessful}
	}
	msg := profile.Message{From: sender, To: receiver, Subject: subject, Body: body}
	if err := s.store.Deliver(receiver, msg); err != nil {
		return Response{Status: StatusUnsuccessful, Fields: []string{err.Error()}}
	}
	return Response{Status: StatusWritten}
}

// handleGetTrusted returns the member's trusted-friends list
// (Figure 15).
func (s *Server) handleGetTrusted(args []string) Response {
	if len(args) != 1 {
		return Response{Status: StatusBadRequest}
	}
	p, ok := s.activeProfile()
	if !ok || p.Member != ids.MemberID(args[0]) {
		return Response{Status: StatusNoMembersYet}
	}
	fields := make([]string, 0, len(p.Trusted))
	for _, tf := range p.Trusted {
		fields = append(fields, string(tf))
	}
	return Response{Status: StatusOK, Fields: fields}
}

// handleCheckTrusted answers whether the requester is a trusted friend
// (the first half of Figure 16).
func (s *Server) handleCheckTrusted(args []string) Response {
	if len(args) != 2 {
		return Response{Status: StatusBadRequest}
	}
	member, requester := ids.MemberID(args[0]), ids.MemberID(args[1])
	p, ok := s.activeProfile()
	if !ok || p.Member != member {
		return Response{Status: StatusNoMembersYet}
	}
	if p.IsTrusted(requester) {
		return Response{Status: StatusOK}
	}
	return Response{Status: StatusNotTrustedYet}
}

// trustGate enforces the §5.1 trust levels for shared-content access.
func (s *Server) trustGate(member, requester ids.MemberID, perm core.Permission) (profile.Profile, Response, bool) {
	p, ok := s.activeProfile()
	if !ok || p.Member != member {
		return profile.Profile{}, Response{Status: StatusNoMembersYet}, false
	}
	level := core.LevelFor(true, p.IsTrusted(requester))
	if !level.Allows(perm) {
		return profile.Profile{}, Response{Status: StatusNotTrustedYet}, false
	}
	return p, Response{}, true
}

// handleSharedContent lists shared content to trusted friends
// (the second half of Figure 16).
func (s *Server) handleSharedContent(args []string) Response {
	if len(args) != 2 {
		return Response{Status: StatusBadRequest}
	}
	p, failure, ok := s.trustGate(ids.MemberID(args[0]), ids.MemberID(args[1]), core.PermViewShared)
	if !ok {
		return failure
	}
	fields := make([]string, 0, 2*len(p.Shared))
	for _, item := range p.Shared {
		fields = append(fields, item.Name, strconv.FormatInt(item.Size, 10))
	}
	return Response{Status: StatusOK, Fields: fields}
}

// handleFetchShared transfers one shared item's bytes to a trusted
// friend ("that trusted peer can view what files the accepting peer has
// shared and use them if needed", chapter 1).
func (s *Server) handleFetchShared(args []string) Response {
	if len(args) != 3 {
		return Response{Status: StatusBadRequest}
	}
	member, requester, name := ids.MemberID(args[0]), ids.MemberID(args[1]), args[2]
	_, failure, ok := s.trustGate(member, requester, core.PermFetchShared)
	if !ok {
		return failure
	}
	s.mu.Lock()
	data, exists := s.content[contentKey{member: member, name: name}]
	s.mu.Unlock()
	if !exists {
		return Response{Status: StatusUnsuccessful, Fields: []string{"no such content"}}
	}
	return Response{Status: StatusOK, Fields: []string{string(data)}}
}

// ShareContent shares a named blob on behalf of a member: the metadata
// goes into the profile (visible via PS_SHAREDCONTENT) and the bytes
// are retained for PS_FETCHSHARED.
func (s *Server) ShareContent(member ids.MemberID, name string, data []byte) error {
	if err := s.store.Share(member, profile.ContentItem{Name: name, Size: int64(len(data))}); err != nil {
		return err
	}
	s.mu.Lock()
	s.content[contentKey{member: member, name: name}] = append([]byte(nil), data...)
	s.mu.Unlock()
	return nil
}

// UnshareContent removes a shared item.
func (s *Server) UnshareContent(member ids.MemberID, name string) error {
	if err := s.store.Unshare(member, name); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.content, contentKey{member: member, name: name})
	s.mu.Unlock()
	return nil
}

// --- profile wire encoding ---

// encodeProfile flattens a profile into count-prefixed sections:
// fullname, location, about, #interests, interests..., #comments,
// (from, text) pairs..., #trusted, trusted...
func encodeProfile(p profile.Profile) []string {
	fields := []string{string(p.Member), p.FullName, p.Location, p.About}
	fields = append(fields, strconv.Itoa(len(p.Interests)))
	fields = append(fields, p.Interests...)
	fields = append(fields, strconv.Itoa(len(p.Comments)))
	for _, c := range p.Comments {
		fields = append(fields, string(c.From), c.Text)
	}
	fields = append(fields, strconv.Itoa(len(p.Trusted)))
	for _, tf := range p.Trusted {
		fields = append(fields, string(tf))
	}
	return fields
}

// RemoteProfile is the view of another member's profile a client
// receives from PS_GETPROFILE (Figure 13: profile information, interest
// list, trusted friends list and profile comments).
type RemoteProfile struct {
	Member    ids.MemberID
	FullName  string
	Location  string
	About     string
	Interests []string
	Comments  []profile.Comment
	Trusted   []ids.MemberID
}

// decodeProfile parses encodeProfile's output.
func decodeProfile(fields []string) (RemoteProfile, error) {
	var out RemoteProfile
	pos := 0
	next := func() (string, error) {
		if pos >= len(fields) {
			return "", fmt.Errorf("community: truncated profile")
		}
		f := fields[pos]
		pos++
		return f, nil
	}
	nextCount := func() (int, error) {
		f, err := next()
		if err != nil {
			return 0, err
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 0 || n > len(fields) {
			return 0, fmt.Errorf("community: bad section count %q", f)
		}
		return n, nil
	}

	memberField, err := next()
	if err != nil {
		return out, err
	}
	out.Member = ids.MemberID(memberField)
	if out.FullName, err = next(); err != nil {
		return out, err
	}
	if out.Location, err = next(); err != nil {
		return out, err
	}
	if out.About, err = next(); err != nil {
		return out, err
	}
	nInterests, err := nextCount()
	if err != nil {
		return out, err
	}
	for i := 0; i < nInterests; i++ {
		f, err := next()
		if err != nil {
			return out, err
		}
		out.Interests = append(out.Interests, f)
	}
	nComments, err := nextCount()
	if err != nil {
		return out, err
	}
	for i := 0; i < nComments; i++ {
		from, err := next()
		if err != nil {
			return out, err
		}
		text, err := next()
		if err != nil {
			return out, err
		}
		out.Comments = append(out.Comments, profile.Comment{From: ids.MemberID(from), Text: text})
	}
	nTrusted, err := nextCount()
	if err != nil {
		return out, err
	}
	for i := 0; i < nTrusted; i++ {
		f, err := next()
		if err != nil {
			return out, err
		}
		out.Trusted = append(out.Trusted, ids.MemberID(f))
	}
	return out, nil
}
