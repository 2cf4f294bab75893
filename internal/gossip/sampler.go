package gossip

import (
	"sort"

	"repro/internal/ids"
)

// CyclonSN-style peer sampling. The node keeps a small aged view of
// peer descriptors; every gossip frame piggybacks a view sample (self
// at age 0 plus a seeded subset), the receiver merges it, and entries
// age one round per Round. Partner selection for rumor pushes draws
// from the current radio neighbors weighted by social proximity:
// shared interests with the locally known record dominate, with a
// small bonus for peers present in the view (recently heard about).
// Anti-entropy partners are drawn uniformly instead — the convergence
// guarantee must not depend on the social bias, or a neighbor sharing
// no interests could be starved of reconciliation.

// mix64 is the splitmix64 finalizer, the same draw primitive the fault
// plane uses: every rng step is a pure function of the evolving state.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// nextRand advances the node's seeded rng. Callers hold n.mu.
func (n *Node) nextRand() uint64 {
	n.rngState++
	return mix64(n.rngState)
}

// sharedInterests counts terms present in both lists.
func sharedInterests(a, b []string) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	set := make(map[string]bool, len(a))
	for _, t := range a {
		set[t] = true
	}
	shared := 0
	for _, t := range b {
		if set[t] {
			shared++
		}
	}
	return shared
}

// partnerWeight scores one candidate neighbor. Callers hold n.mu.
func (n *Node) partnerWeight(dev ids.DeviceID, selfInterests []string) uint64 {
	w := uint64(1)
	if m, ok := n.byDevice[dev]; ok {
		if rec, ok := n.records[m]; ok && rec.Device == dev {
			w += 2 * uint64(sharedInterests(selfInterests, rec.Interests))
		}
	}
	for i := range n.view {
		if n.view[i].Device == dev {
			w++
			break
		}
	}
	return w
}

// pickPartner draws one neighbor, socially weighted, excluding already
// used partners. neigh must be sorted so the weighted walk is
// deterministic. Returns "" when no candidate remains. Callers hold
// n.mu.
func (n *Node) pickPartner(neigh []ids.DeviceID, used map[ids.DeviceID]bool) ids.DeviceID {
	selfInterests := n.records[n.member].Interests
	var total uint64
	weights := make([]uint64, len(neigh))
	for i, dev := range neigh {
		if dev == n.dev || used[dev] {
			continue
		}
		w := n.partnerWeight(dev, selfInterests)
		weights[i] = w
		total += w
	}
	if total == 0 {
		return ""
	}
	draw := n.nextRand() % total
	for i, dev := range neigh {
		if weights[i] == 0 {
			continue
		}
		if draw < weights[i] {
			return dev
		}
		draw -= weights[i]
	}
	return ""
}

// pickUniform draws one neighbor uniformly (the anti-entropy partner).
// Callers hold n.mu.
func (n *Node) pickUniform(neigh []ids.DeviceID) ids.DeviceID {
	cands := make([]ids.DeviceID, 0, len(neigh))
	for _, dev := range neigh {
		if dev != n.dev {
			cands = append(cands, dev)
		}
	}
	if len(cands) == 0 {
		return ""
	}
	return cands[n.nextRand()%uint64(len(cands))]
}

// viewSample builds the shuffle payload: self at age 0 plus up to
// Shuffle-1 seeded picks from the view. Callers hold n.mu.
func (n *Node) viewSample() []ViewEntry {
	out := make([]ViewEntry, 0, n.cfg.Shuffle)
	out = append(out, ViewEntry{Device: n.dev, Member: n.member, Age: 0})
	if len(n.view) == 0 || n.cfg.Shuffle <= 1 {
		return out
	}
	idx := make([]int, len(n.view))
	for i := range idx {
		idx[i] = i
	}
	// Seeded Fisher-Yates over indices; take the head.
	for i := len(idx) - 1; i > 0; i-- {
		j := int(n.nextRand() % uint64(i+1))
		idx[i], idx[j] = idx[j], idx[i]
	}
	take := n.cfg.Shuffle - 1
	if take > len(idx) {
		take = len(idx)
	}
	for _, i := range idx[:take] {
		out = append(out, n.view[i])
	}
	return out
}

// mergeView folds a received sample into the view: the sender itself
// enters at age 0, incoming entries keep their age, duplicates keep the
// youngest descriptor, and the view is trimmed oldest-first to
// ViewSize. Callers hold n.mu.
func (n *Node) mergeView(sample []ViewEntry, from ids.DeviceID, fromMember ids.MemberID) {
	byDev := make(map[ids.DeviceID]ViewEntry, len(n.view)+len(sample)+1)
	for _, e := range n.view {
		byDev[e.Device] = e
	}
	add := func(e ViewEntry) {
		if e.Device == "" || e.Device == n.dev {
			return
		}
		if cur, ok := byDev[e.Device]; !ok || e.Age < cur.Age {
			byDev[e.Device] = e
		}
	}
	for _, e := range sample {
		add(e)
	}
	if from != "" {
		add(ViewEntry{Device: from, Member: fromMember, Age: 0})
	}
	merged := make([]ViewEntry, 0, len(byDev))
	for _, e := range byDev {
		merged = append(merged, e)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Age != merged[j].Age {
			return merged[i].Age < merged[j].Age
		}
		return merged[i].Device < merged[j].Device
	})
	if len(merged) > n.cfg.ViewSize {
		merged = merged[:n.cfg.ViewSize]
	}
	n.view = merged
}

// ageView ages every entry one shuffle round.
func (n *Node) ageView() {
	n.mu.Lock()
	defer n.mu.Unlock()
	for i := range n.view {
		if n.view[i].Age < 1<<20 {
			n.view[i].Age++
		}
	}
}
