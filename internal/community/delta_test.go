package community

// Tests for the delta-synchronization extension: store epochs,
// conditional reads, the client's per-peer cache, the bounded fan-out
// pool and singleflight collapsing. The classic (cache-less) protocol
// shapes are covered too, proving old clients still interoperate.

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/profile"
)

// condInterestList drives the conditional PS_GETINTERESTLIST form
// straight through Handle and opens the sealed reply.
func condInterestList(t *testing.T, s *Server, epoch uint64, known bool) (status string, fields []string) {
	t.Helper()
	resp := s.Handle(Request{Op: OpGetInterestList, Args: []string{ifEpochArg(epoch, known)}})
	fields, ok := openVersioned(resp)
	if !ok {
		t.Fatalf("versioned reply failed integrity check: %+v", resp)
	}
	return resp.Status, fields
}

func TestConditionalInterestListEpochFlow(t *testing.T) {
	w := newTestWorld(t)
	bob := w.addNode(t, "bob", geo.Pt(0, 0), "football", "movies")

	// Cold read: full member summary with the current epoch.
	status, fields := condInterestList(t, bob.server, 0, false)
	if status != StatusOK {
		t.Fatalf("cold conditional read: status %q", status)
	}
	epoch, err := strconv.ParseUint(fields[0], 10, 64)
	if err != nil {
		t.Fatalf("bad epoch field %q", fields[0])
	}
	if fields[1] != "bob" {
		t.Fatalf("summary member = %q, want bob", fields[1])
	}
	if got := strings.Join(fields[2:], ","); got != "football,movies" {
		t.Fatalf("summary interests = %q", got)
	}

	// Same epoch: tiny NOT_MODIFIED frame.
	status, fields = condInterestList(t, bob.server, epoch, true)
	if status != StatusNotModified {
		t.Fatalf("unchanged conditional read: status %q, want %q", status, StatusNotModified)
	}
	if len(fields) != 1 || fields[0] != strconv.FormatUint(epoch, 10) {
		t.Fatalf("NOT_MODIFIED fields = %v", fields)
	}

	// A wire-visible mutation bumps the epoch and re-sends in full.
	if err := bob.store.AddInterest("bob", "chess"); err != nil {
		t.Fatal(err)
	}
	status, fields = condInterestList(t, bob.server, epoch, true)
	if status != StatusOK {
		t.Fatalf("post-mutation conditional read: status %q", status)
	}
	if got := strings.Join(fields[2:], ","); got != "football,movies,chess" {
		t.Fatalf("post-mutation interests = %q", got)
	}

	// Logout is wire-visible too (the member disappears).
	epoch2, _ := strconv.ParseUint(fields[0], 10, 64)
	bob.store.Logout()
	status, fields = condInterestList(t, bob.server, epoch2, true)
	if status != StatusNoMembersYet {
		t.Fatalf("logged-out conditional read: status %q, want %q", status, StatusNoMembersYet)
	}
	if len(fields) != 1 {
		t.Fatalf("logged-out reply fields = %v", fields)
	}
}

func TestVisitsAndMessagesDoNotBumpEpoch(t *testing.T) {
	w := newTestWorld(t)
	bob := w.addNode(t, "bob", geo.Pt(0, 0), "football")

	before := bob.store.Epoch()
	// Device-local bookkeeping: none of it is wire-visible.
	if err := bob.store.RecordVisit("bob", "alice"); err != nil {
		t.Fatal(err)
	}
	if err := bob.store.RecordSent("bob", profile.Message{From: "bob", To: "alice", Body: "hi"}); err != nil {
		t.Fatal(err)
	}
	if err := bob.store.Deliver("bob", profile.Message{From: "alice", To: "bob", Body: "yo"}); err != nil {
		t.Fatal(err)
	}
	if err := bob.store.MarkRead("bob", 0); err != nil {
		t.Fatal(err)
	}
	if got := bob.store.Epoch(); got != before {
		t.Fatalf("local bookkeeping moved the epoch: %d -> %d", before, got)
	}

	// No-op edits must not bump either — they cannot change any answer.
	if err := bob.store.AddInterest("bob", "football"); err != nil {
		t.Fatal(err)
	}
	if err := bob.store.RemoveInterest("bob", "no-such-interest"); err != nil {
		t.Fatal(err)
	}
	if got := bob.store.Epoch(); got != before {
		t.Fatalf("no-op edits moved the epoch: %d -> %d", before, got)
	}

	if err := bob.store.AddComment("bob", "alice", "hi"); err != nil {
		t.Fatal(err)
	}
	if got := bob.store.Epoch(); got == before {
		t.Fatal("a profile comment is wire-visible and must bump the epoch")
	}
}

// TestClassicShapesUnchanged pins the cache-less protocol: requests
// without an if-epoch argument get byte-identical classic replies, so
// a client predating delta synchronization keeps working. This is the
// old-client half of the mixed interop guarantee.
func TestClassicShapesUnchanged(t *testing.T) {
	w := newTestWorld(t)
	bob := w.addNode(t, "bob", geo.Pt(0, 0), "football", "movies")

	resp := bob.server.Handle(Request{Op: OpGetInterestList})
	if resp.Status != StatusOK || strings.Join(resp.Fields, ",") != "football,movies" {
		t.Fatalf("classic interest list changed shape: %+v", resp)
	}
	resp = bob.server.Handle(Request{Op: OpGetOnlineMemberList})
	if resp.Status != StatusOK || strings.Join(resp.Fields, ",") != "bob" {
		t.Fatalf("classic member list changed shape: %+v", resp)
	}
	resp = bob.server.Handle(Request{Op: OpGetProfile, Args: []string{"bob", "alice"}})
	if resp.Status != StatusOK {
		t.Fatalf("classic profile read: %+v", resp)
	}
	if _, err := decodeProfile(resp.Fields); err != nil {
		t.Fatalf("classic profile fields no longer decode: %v", err)
	}
	// The classic read recorded the visit.
	p, err := bob.store.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Visitors) != 1 || p.Visitors[0].By != "alice" {
		t.Fatalf("classic profile read did not record the visit: %+v", p.Visitors)
	}
}

// TestOldClientOverTheWire drives classic frames through the real
// transport against a delta-aware server: marshal → netsim → server →
// unmarshal, no epochs anywhere.
func TestOldClientOverTheWire(t *testing.T) {
	w := newTestWorld(t)
	alice := w.addNode(t, "alice", geo.Pt(0, 0), "football")
	bob := w.addNode(t, "bob", geo.Pt(5, 0), "football", "movies")
	_ = bob
	ctx := testCtx(t)
	w.refreshAll(t, ctx)

	conn, err := alice.lib.Connect(ctx, "dev-bob", ServiceName)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()

	exchange := func(req Request) Response {
		t.Helper()
		if err := conn.Send(MarshalRequest(req)); err != nil {
			t.Fatal(err)
		}
		raw, err := conn.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := UnmarshalResponse(raw)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// The old two-call discovery round still works end to end.
	who := exchange(Request{Op: OpGetOnlineMemberList})
	if who.Status != StatusOK || len(who.Fields) != 1 || who.Fields[0] != "bob" {
		t.Fatalf("old-client member list: %+v", who)
	}
	interests := exchange(Request{Op: OpGetInterestList})
	if interests.Status != StatusOK || strings.Join(interests.Fields, ",") != "football,movies" {
		t.Fatalf("old-client interest list: %+v", interests)
	}
	prof := exchange(Request{Op: OpGetProfile, Args: []string{"bob", "alice"}})
	if prof.Status != StatusOK {
		t.Fatalf("old-client profile: %+v", prof)
	}
	if _, err := decodeProfile(prof.Fields); err != nil {
		t.Fatalf("old-client profile decode: %v", err)
	}
}

// TestNearbyMembersCachesAndInvalidates exercises the client cache end
// to end: cold fill, NOT_MODIFIED hit, mutation-driven refresh, and
// invalidation on dropConn.
func TestNearbyMembersCachesAndInvalidates(t *testing.T) {
	_, alice, bob, ctx := pair(t)

	// Cold round: full fetch.
	members, err := alice.client.NearbyMembers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0].ID != "bob" {
		t.Fatalf("nearby = %+v", members)
	}
	if got := alice.client.Stats(); got.NotModified != 0 || got.CacheHits != 0 {
		t.Fatalf("cold round already used the cache: %+v", got)
	}

	// Steady round: one NOT_MODIFIED, served from cache, same answer.
	members2, err := alice.client.NearbyMembers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(members2) != 1 || members2[0].ID != "bob" ||
		strings.Join(members2[0].Interests, ",") != strings.Join(members[0].Interests, ",") {
		t.Fatalf("steady nearby = %+v, want %+v", members2, members)
	}
	st := alice.client.Stats()
	if st.NotModified != 1 || st.CacheHits != 1 {
		t.Fatalf("steady round: NotModified=%d CacheHits=%d, want 1/1", st.NotModified, st.CacheHits)
	}

	// Remote mutation: epoch moves, next round re-fetches in full.
	if err := bob.store.AddInterest("bob", "chess"); err != nil {
		t.Fatal(err)
	}
	members3, err := alice.client.NearbyMembers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(members3) != 1 || !hasTerm(members3[0].Interests, "chess") {
		t.Fatalf("post-mutation nearby = %+v", members3)
	}
	st = alice.client.Stats()
	if st.NotModified != 1 {
		t.Fatalf("mutated state must not answer NOT_MODIFIED: %+v", st)
	}

	// dropConn invalidates: the next round is a full fetch again.
	alice.client.dropConn("dev-bob")
	st = alice.client.Stats()
	if st.CacheInvalidations != 1 {
		t.Fatalf("CacheInvalidations = %d, want 1", st.CacheInvalidations)
	}
	members4, err := alice.client.NearbyMembers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(members4) != 1 {
		t.Fatalf("post-invalidation nearby = %+v", members4)
	}
	if got := alice.client.Stats(); got.NotModified != 1 {
		t.Fatalf("invalidated cache must not claim NOT_MODIFIED: %+v", got)
	}
}

// TestViewProfileConditional proves repeated profile views hit the
// cache while still recording every visit server-side (Figure 13's
// side effect survives delta synchronization).
func TestViewProfileConditional(t *testing.T) {
	_, alice, bob, ctx := pair(t)

	first, err := alice.client.ViewProfile(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	second, err := alice.client.ViewProfile(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(second.Interests, ",") != strings.Join(first.Interests, ",") {
		t.Fatalf("cached view differs: %+v vs %+v", second, first)
	}
	st := alice.client.Stats()
	if st.NotModified < 1 || st.CacheHits < 1 {
		t.Fatalf("second view should be NOT_MODIFIED from cache: %+v", st)
	}
	p, err := bob.store.Get("bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Visitors) != 2 {
		t.Fatalf("visits recorded = %d, want 2 (one per view, cached or not)", len(p.Visitors))
	}

	// A comment bumps bob's epoch; the next view sees it in full.
	if err := bob.store.AddComment("bob", "carol", "nice profile"); err != nil {
		t.Fatal(err)
	}
	third, err := alice.client.ViewProfile(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if len(third.Comments) != 1 || third.Comments[0].Text != "nice profile" {
		t.Fatalf("post-comment view = %+v", third.Comments)
	}
}

// TestFanoutOrderSortedByDevice pins the doc-comment promise that
// fanout answers come back sorted by device under the bounded worker
// pool, including when some peers error out mid-round.
func TestFanoutOrderSortedByDevice(t *testing.T) {
	w := newTestWorld(t)
	alice := w.addNode(t, "alice", geo.Pt(0, 0), "football")
	w.addNode(t, "bob", geo.Pt(3, 0), "football")
	w.addNode(t, "carol", geo.Pt(0, 3), "football")
	w.addNode(t, "dave", geo.Pt(3, 3), "football")
	w.addNode(t, "erin", geo.Pt(1, 1), "football")
	ctx := testCtx(t)
	w.refreshAll(t, ctx)

	assertSorted := func(out []deviceResponse, wantLen int) {
		t.Helper()
		if len(out) != wantLen {
			t.Fatalf("fanout answered %d devices, want %d", len(out), wantLen)
		}
		for i := 1; i < len(out); i++ {
			if !(out[i-1].Device < out[i].Device) {
				t.Fatalf("fanout order not sorted by device: %q before %q",
					out[i-1].Device, out[i].Device)
			}
		}
	}

	out := alice.client.fanout(ctx, Request{Op: OpGetOnlineMemberList})
	assertSorted(out, 4)
	for _, dr := range out {
		if dr.Err != nil {
			t.Fatalf("healthy fanout errored on %s: %v", dr.Device, dr.Err)
		}
	}

	// Kill one peer's whole device (daemon down, listener gone) while
	// alice's neighbor table still lists it: that peer now errors, the
	// order must not change.
	w.nodes["carol"].server.Stop()
	w.nodes["carol"].daemon.Stop()
	out = alice.client.fanout(ctx, Request{Op: OpGetOnlineMemberList})
	assertSorted(out, 4)
	var failed ids.DeviceID
	for _, dr := range out {
		if dr.Err != nil {
			failed = dr.Device
		}
	}
	if failed != "dev-carol" {
		t.Fatalf("expected dev-carol to be the erroring peer, got %q", failed)
	}
	if st := alice.client.Stats(); st.FanoutsDegraded == 0 {
		t.Fatalf("degraded fanout not counted: %+v", st)
	}
}

// TestSingleflightCollapse pins the collapsing mechanics
// deterministically: a waiter joining a registered in-flight call gets
// the leader's response without touching the wire.
func TestSingleflightCollapse(t *testing.T) {
	_, alice, _, ctx := pair(t)

	req := Request{Op: OpGetInterestList, Args: []string{ifEpochArg(0, false)}}
	key := flightKey{dev: "dev-bob", op: req.Op, args: strings.Join(req.Args, "\x1f")}
	canned := Response{Status: StatusOK, Fields: []string{"42", "bob", "football"}}
	fc := new(netsim.Completion[Response])
	fc.Set(netsim.Flow{}, canned, nil)
	alice.client.mu.Lock()
	alice.client.inflight[key] = fc
	alice.client.mu.Unlock()

	resp, err := await(alice.client, ctx, func(f netsim.Flow, done func(netsim.Flow, Response, error)) {
		alice.client.callShared(f, "dev-bob", req, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != canned.Status || strings.Join(resp.Fields, ",") != strings.Join(canned.Fields, ",") {
		t.Fatalf("collapsed call returned %+v, want the leader's %+v", resp, canned)
	}
	st := alice.client.Stats()
	if st.SingleflightHits != 1 {
		t.Fatalf("SingleflightHits = %d, want 1", st.SingleflightHits)
	}
	if st.CallsAttempted != 0 {
		t.Fatalf("collapsed call still hit the wire: %+v", st)
	}

	// Mutations must never collapse.
	if singleflightable(OpMsg) || singleflightable(OpAddProfileComment) || singleflightable(OpGetProfile) {
		t.Fatal("side-effecting ops must not be singleflightable")
	}

	alice.client.mu.Lock()
	delete(alice.client.inflight, key)
	alice.client.mu.Unlock()
}

// TestCorruptVersionedReplyRejected pins the integrity digest: a
// tampered versioned reply fails openVersioned, so it can never be
// cached under a valid epoch.
func TestCorruptVersionedReplyRejected(t *testing.T) {
	resp := sealVersioned(StatusOK, []string{"7", "bob", "football"})
	if _, ok := openVersioned(resp); !ok {
		t.Fatal("sealed reply must verify")
	}
	tampered := Response{Status: resp.Status, Fields: append([]string(nil), resp.Fields...)}
	tampered.Fields[2] = "rugby"
	if _, ok := openVersioned(tampered); ok {
		t.Fatal("tampered payload must fail the digest")
	}
	tamperedEpoch := Response{Status: resp.Status, Fields: append([]string(nil), resp.Fields...)}
	tamperedEpoch.Fields[0] = "8"
	if _, ok := openVersioned(tamperedEpoch); ok {
		t.Fatal("tampered epoch must fail the digest")
	}
	wrongStatus := Response{Status: StatusNotModified, Fields: resp.Fields}
	if _, ok := openVersioned(wrongStatus); ok {
		t.Fatal("status is part of the digest")
	}
	if _, ok := openVersioned(Response{Status: StatusOK}); ok {
		t.Fatal("an empty reply has no digest to verify")
	}
}

func hasTerm(terms []string, want string) bool {
	for _, t := range terms {
		if t == want {
			return true
		}
	}
	return false
}
