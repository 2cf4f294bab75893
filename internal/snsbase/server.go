package snsbase

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/radio"
)

// servicePort is the port the SNS front-end listens on.
const servicePort = "sns.http"

// Server is the centralized SNS: a group directory, join lists and
// member profiles behind one front-end — the thing the thesis contrasts
// with the serverless PeerHood approach ("SNS needs a centralized
// server and a centralized database system").
type Server struct {
	site SiteProfile
	dev  ids.DeviceID
	net  *netsim.Network

	mu       sync.Mutex
	groups   map[string]*group
	profiles map[string]Profile

	svc *netsim.Service
}

type group struct {
	Name    string
	Members map[string]bool
}

// Profile is a member profile on the SNS.
type Profile struct {
	Member   string `json:"member"`
	FullName string `json:"full_name"`
	About    string `json:"about"`
}

// request/response are the front-end's JSON wire format. PadBytes in
// the response models the page weight the handset must download.
type request struct {
	Op     string `json:"op"`
	User   string `json:"user"`
	Query  string `json:"query,omitempty"`
	Group  string `json:"group,omitempty"`
	Member string `json:"member,omitempty"`
}

type response struct {
	Status  string   `json:"status"`
	Groups  []string `json:"groups,omitempty"`
	Members []string `json:"members,omitempty"`
	Profile *Profile `json:"profile,omitempty"`
	Pad     string   `json:"pad,omitempty"`
}

// NewServer creates the SNS back-end on a device in the environment
// (the device stands in for the site's data center; clients reach it
// over GPRS).
func NewServer(net *netsim.Network, dev ids.DeviceID, site SiteProfile) (*Server, error) {
	s := &Server{
		site:     site,
		dev:      dev,
		net:      net,
		groups:   make(map[string]*group),
		profiles: make(map[string]Profile),
	}
	listener, err := net.Listen(dev, servicePort)
	if err != nil {
		return nil, fmt.Errorf("snsbase: %w", err)
	}
	s.svc = listener.Serve(s.serve)
	return s, nil
}

// Stop shuts the server down.
func (s *Server) Stop() { s.svc.Stop() }

// Site returns the server's site profile.
func (s *Server) Site() SiteProfile { return s.site }

// SeedGroup creates a group with members, like the pre-existing
// "England Football" group the thesis searched for.
func (s *Server) SeedGroup(name string, members ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := &group{Name: name, Members: make(map[string]bool, len(members))}
	for _, m := range members {
		g.Members[m] = true
		if _, ok := s.profiles[m]; !ok {
			s.profiles[m] = Profile{Member: m, FullName: m, About: "seeded member"}
		}
	}
	s.groups[strings.ToLower(name)] = g
}

// SeedProfile registers a member profile.
func (s *Server) SeedProfile(p Profile) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.profiles[p.Member] = p
}

// serve answers one JSON request, then serves the next; a response
// that fails to marshal closes the conn.
func (s *Server) serve(_ ids.DeviceID, frame []byte) ([]byte, netsim.ServeStep) {
	var req request
	resp := response{Status: "ok"}
	if err := json.Unmarshal(frame, &req); err != nil {
		resp.Status = "bad-request"
	} else {
		resp = s.handle(req)
	}
	out, err := json.Marshal(resp)
	if err != nil {
		return nil, nil
	}
	return out, s.serve
}

// pad returns filler bytes so the serialized response weighs about n
// bytes, modeling the page weight.
func pad(base, n int) string {
	if n <= base {
		return ""
	}
	return strings.Repeat("x", n-base)
}

// approxEnvelope is the JSON overhead estimate subtracted from padding.
const approxEnvelope = 200

func (s *Server) handle(req request) response {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch req.Op {
	case "search":
		var names []string
		q := strings.ToLower(req.Query)
		for key, g := range s.groups {
			if strings.Contains(key, q) {
				names = append(names, g.Name)
			}
		}
		sort.Strings(names)
		return response{
			Status: "ok",
			Groups: names,
			Pad:    pad(approxEnvelope, s.site.Search.TotalBytes()),
		}
	case "create":
		key := strings.ToLower(req.Group)
		if key == "" {
			return response{Status: "bad-request"}
		}
		if _, exists := s.groups[key]; exists {
			return response{Status: "group-exists"}
		}
		s.groups[key] = &group{Name: req.Group, Members: map[string]bool{req.User: true}}
		return response{
			Status: "ok",
			Pad:    pad(approxEnvelope, s.site.Join.TotalBytes()),
		}
	case "join":
		g, ok := s.groups[strings.ToLower(req.Group)]
		if !ok {
			return response{Status: "no-such-group"}
		}
		g.Members[req.User] = true
		return response{
			Status: "ok",
			Pad:    pad(approxEnvelope, s.site.Join.TotalBytes()),
		}
	case "members":
		g, ok := s.groups[strings.ToLower(req.Group)]
		if !ok {
			return response{Status: "no-such-group"}
		}
		members := make([]string, 0, len(g.Members))
		for m := range g.Members {
			members = append(members, m)
		}
		sort.Strings(members)
		return response{
			Status:  "ok",
			Members: members,
			Pad:     pad(approxEnvelope, s.site.List.TotalBytes()),
		}
	case "profile":
		p, ok := s.profiles[req.Member]
		if !ok {
			return response{Status: "no-such-member"}
		}
		return response{
			Status:  "ok",
			Profile: &p,
			Pad:     pad(approxEnvelope, s.site.Profile.TotalBytes()),
		}
	default:
		return response{Status: "bad-request"}
	}
}

// Client is the handset-side SNS client: it performs the four Table 8
// operations over the cellular link and charges the handset's
// per-page render time after each page arrives.
type Client struct {
	net     *netsim.Network
	dev     ids.DeviceID
	server  ids.DeviceID
	handset HandsetProfile
	site    SiteProfile
	user    string

	mu   sync.Mutex
	conn *netsim.Conn
}

// NewClient creates a handset client for a user.
func NewClient(net *netsim.Network, dev, server ids.DeviceID, handset HandsetProfile, site SiteProfile, user string) *Client {
	return &Client{net: net, dev: dev, server: server, handset: handset, site: site, user: user}
}

// connect dials the front-end lazily (the thesis's handsets kept a data
// session open once the browser started). The dial — a full simulated
// GPRS connection setup — happens with the mutex released so a slow
// attach never wedges a concurrent Close; a racing connect keeps the
// winner's session.
func (c *Client) connect(ctx context.Context) (*netsim.Conn, error) {
	c.mu.Lock()
	if c.conn != nil && c.conn.Alive() {
		conn := c.conn
		c.mu.Unlock()
		return conn, nil
	}
	c.mu.Unlock()
	conn, err := c.net.Dial(ctx, c.dev, c.server, radio.GPRS, servicePort)
	if err != nil {
		return nil, fmt.Errorf("snsbase: dialing site: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil && c.conn.Alive() {
		_ = conn.Close() // lost the race; keep the established session
		return c.conn, nil
	}
	c.conn = conn
	return conn, nil
}

// Close drops the data session.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn != nil {
		_ = c.conn.Close() // dropping the session; the error has no consumer
		c.conn = nil
	}
}

// render charges the handset's page render cost, scaled.
func (c *Client) render(pages int) {
	env := c.net.Environment()
	env.Clock().Sleep(env.Scale().ToReal(time.Duration(pages) * c.handset.RenderPerPage))
}

// call performs one request/response.
func (c *Client) call(ctx context.Context, req request) (response, error) {
	conn, err := c.connect(ctx)
	if err != nil {
		return response{}, err
	}
	req.User = c.user
	out, err := json.Marshal(req)
	if err != nil {
		return response{}, err
	}
	if err := conn.Send(out); err != nil {
		return response{}, err
	}
	frame, err := conn.Recv(ctx)
	if err != nil {
		return response{}, err
	}
	var resp response
	if err := json.Unmarshal(frame, &resp); err != nil {
		return response{}, err
	}
	if resp.Status != "ok" {
		return resp, fmt.Errorf("snsbase: %s", resp.Status)
	}
	return resp, nil
}

// CreateGroup creates a new group with the user as its first member —
// the manual flow the thesis contrasts with dynamic discovery: "users
// need to create their interest group themselves and advertise it to
// others to join that group" (§3.2). It costs a page load like join.
func (c *Client) CreateGroup(ctx context.Context, groupName string) error {
	if _, err := c.call(ctx, request{Op: "create", Group: groupName}); err != nil {
		return err
	}
	c.render(c.site.Join.Count)
	return nil
}

// SearchGroup loads the search flow and returns matching group names.
func (c *Client) SearchGroup(ctx context.Context, query string) ([]string, error) {
	resp, err := c.call(ctx, request{Op: "search", Query: query})
	if err != nil {
		return nil, err
	}
	c.render(c.site.Search.Count)
	return resp.Groups, nil
}

// JoinGroup submits the join flow.
func (c *Client) JoinGroup(ctx context.Context, groupName string) error {
	if _, err := c.call(ctx, request{Op: "join", Group: groupName}); err != nil {
		return err
	}
	c.render(c.site.Join.Count)
	return nil
}

// MemberList loads a group's member list.
func (c *Client) MemberList(ctx context.Context, groupName string) ([]string, error) {
	resp, err := c.call(ctx, request{Op: "members", Group: groupName})
	if err != nil {
		return nil, err
	}
	c.render(c.site.List.Count)
	return resp.Members, nil
}

// ViewProfile loads one member's profile page.
func (c *Client) ViewProfile(ctx context.Context, member string) (Profile, error) {
	resp, err := c.call(ctx, request{Op: "profile", Member: member})
	if err != nil {
		return Profile{}, err
	}
	c.render(c.site.Profile.Count)
	if resp.Profile == nil {
		return Profile{}, fmt.Errorf("snsbase: empty profile for %q", member)
	}
	return *resp.Profile, nil
}
