package scenario

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/ids"
	"repro/internal/interest"
	"repro/internal/radio"
	"repro/internal/vtime"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func fastBuilder() *Builder {
	return NewBuilder().WithScale(vtime.NewScale(1e-4))
}

func TestBuildEmptyFails(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("empty build accepted")
	}
}

func TestBuildTwoPeerWorld(t *testing.T) {
	d, err := fastBuilder().
		AddPeer(PeerSpec{Member: "alice", Position: geo.Pt(0, 0), Interests: []string{"football"}}).
		AddPeer(PeerSpec{Member: "bob", Position: geo.Pt(5, 0), Interests: []string{"football"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	ctx := testCtx(t)
	if err := d.RefreshAll(ctx); err != nil {
		t.Fatal(err)
	}
	alice := d.MustPeer("alice")
	if _, err := alice.Client.RefreshGroups(ctx); err != nil {
		t.Fatal(err)
	}
	groups := alice.Client.Groups()
	if len(groups) != 1 || groups[0].Interest != "football" {
		t.Fatalf("groups = %+v", groups)
	}
	members := d.Members()
	if len(members) != 2 || members[0] != "alice" || members[1] != "bob" {
		t.Fatalf("Members = %v", members)
	}
	if _, ok := d.Peer("ghost"); ok {
		t.Fatal("Peer(ghost) should miss")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := fastBuilder().AddPeer(PeerSpec{Member: ""}).Build(); err == nil {
		t.Fatal("invalid member accepted")
	}
	_, err := fastBuilder().
		AddPeer(PeerSpec{Member: "dup", Position: geo.Pt(0, 0)}).
		AddPeer(PeerSpec{Member: "dup", Position: geo.Pt(1, 0)}).
		Build()
	if err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestTrustAndSharedWiring(t *testing.T) {
	d, err := fastBuilder().
		AddPeer(PeerSpec{
			Member:    "owner",
			Position:  geo.Pt(0, 0),
			Interests: []string{"music"},
			Trusts:    []ids.MemberID{"friend"},
			Shared:    map[string][]byte{"song.mp3": []byte("bytes")},
		}).
		AddPeer(PeerSpec{Member: "friend", Position: geo.Pt(3, 0), Interests: []string{"music"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	ctx := testCtx(t)
	if err := d.RefreshAll(ctx); err != nil {
		t.Fatal(err)
	}
	friend := d.MustPeer("friend")
	items, err := friend.Client.SharedContentOf(ctx, "owner")
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Name != "song.mp3" {
		t.Fatalf("items = %+v", items)
	}
	data, err := friend.Client.FetchShared(ctx, "owner", "song.mp3")
	if err != nil || string(data) != "bytes" {
		t.Fatalf("fetch = %q, %v", data, err)
	}
}

func TestSemanticsShared(t *testing.T) {
	sem := interest.NewSemantics()
	sem.Teach("biking", "cycling")
	d, err := fastBuilder().WithSemantics(sem).
		AddPeer(PeerSpec{Member: "a", Position: geo.Pt(0, 0), Interests: []string{"biking"}}).
		AddPeer(PeerSpec{Member: "b", Position: geo.Pt(3, 0), Interests: []string{"cycling"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	ctx := testCtx(t)
	if err := d.RefreshAll(ctx); err != nil {
		t.Fatal(err)
	}
	a := d.MustPeer("a")
	if _, err := a.Client.RefreshGroups(ctx); err != nil {
		t.Fatal(err)
	}
	if groups := a.Client.Groups(); len(groups) != 1 {
		t.Fatalf("groups = %+v, want one merged group", groups)
	}
}

func TestGPRSProxyDeployment(t *testing.T) {
	d, err := fastBuilder().WithGPRSProxy("operator").
		AddPeer(PeerSpec{
			Member: "a", Position: geo.Pt(0, 0),
			Interests: []string{"x"}, Technologies: []radio.Technology{radio.GPRS},
		}).
		AddPeer(PeerSpec{
			Member: "b", Position: geo.Pt(1e5, 0),
			Interests: []string{"x"}, Technologies: []radio.Technology{radio.GPRS},
		}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if d.Proxy == nil {
		t.Fatal("proxy not created")
	}
	ctx := testCtx(t)
	if err := d.RefreshAll(ctx); err != nil {
		t.Fatal(err)
	}
	a := d.MustPeer("a")
	members, err := a.Client.OnlineMembers(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(members) < 1 {
		t.Fatalf("members = %+v", members)
	}
	if d.Proxy.Relayed() == 0 {
		t.Fatal("community traffic should have crossed the operator proxy")
	}
}

func TestStartAllRunsBackgroundDiscovery(t *testing.T) {
	d, err := fastBuilder().
		AddPeer(PeerSpec{Member: "a", Position: geo.Pt(0, 0), Interests: []string{"x"}}).
		AddPeer(PeerSpec{Member: "b", Position: geo.Pt(4, 0), Interests: []string{"x"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := d.StartAll(); err != nil {
		t.Fatal(err)
	}
	a := d.MustPeer("a")
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.Lib.GetDeviceList()) == 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("background discovery never found the neighbor")
}

func TestMustPeerPanics(t *testing.T) {
	d, err := fastBuilder().
		AddPeer(PeerSpec{Member: "only", Position: geo.Pt(0, 0)}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	defer func() {
		if recover() == nil {
			t.Error("MustPeer(ghost) should panic")
		}
	}()
	d.MustPeer("ghost")
}

func TestCustomDeviceID(t *testing.T) {
	d, err := fastBuilder().
		AddPeer(PeerSpec{Member: "m", Device: "custom-phone", Position: geo.Pt(0, 0)}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if d.MustPeer("m").Daemon.Device() != "custom-phone" {
		t.Fatal("device override ignored")
	}
}

func TestWithPHYOverride(t *testing.T) {
	phy := radio.PHYForWLANStandard("IEEE 802.11g")
	d, err := fastBuilder().WithPHY(phy).
		AddPeer(PeerSpec{Member: "a", Position: geo.Pt(0, 0),
			Technologies: []radio.Technology{radio.WLAN}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if got := d.Env.PHY(radio.WLAN).BitRate; got != phy.BitRate {
		t.Fatalf("WLAN bitrate = %v, want 802.11g override %v", got, phy.BitRate)
	}
}

// TestDESDeploymentAtRestRunsTwoGoroutinesPerPeer: after Build and
// RefreshAll, a DES deployment runs no goroutine per peer: the daemon's
// SDP server and the community server are both served as events. The
// name is historical; it dates from when the community server still
// ran an accept loop and a shedder per peer, and CI and the recorded
// test lists select the test by it. The growth is read as a slope
// between two deployment sizes, so the scheduler's worker pool, which
// GOMAXPROCS sizes, cancels out.
func TestDESDeploymentAtRestRunsTwoGoroutinesPerPeer(t *testing.T) {
	atRest := func(peers int) int {
		b := fastBuilder().WithDES(0)
		for i := 0; i < peers; i++ {
			b.AddPeer(PeerSpec{
				Member:    ids.MemberID(fmt.Sprintf("rest-%02d", i)),
				Position:  geo.Pt(float64(i)*4, 0),
				Interests: []string{"football"},
			})
		}
		d, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		if err := d.RefreshAll(testCtx(t)); err != nil {
			t.Fatal(err)
		}
		// Goroutines a discovery round started exit just after handing
		// over their results: wait for the count to hold still.
		n := runtime.NumGoroutine()
		for i := 0; i < 100; i++ {
			time.Sleep(10 * time.Millisecond)
			m := runtime.NumGoroutine()
			if m == n {
				break
			}
			n = m
		}
		return n
	}
	small, large := atRest(16), atRest(64)
	t.Logf("%d goroutines at rest with 16 peers, %d with 64", small, large)
	if got := large - small; got != 0 {
		t.Errorf("goroutines grew by %d from 16 to 64 peers (%d to %d), want none", got, small, large)
	}
}
