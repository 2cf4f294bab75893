// Package accesscontrol implements the wireless access-control system
// the thesis describes in §4.4 as an existing application on the mobile
// environment: "PTDs with wireless access control system can be used as
// keys for locking or unlocking and provides access to locked resources
// and places." A door device registers an AccessControl service in
// PeerHood; a personal trusted device carrying an authorized credential
// unlocks it over Bluetooth when in proximity, and the door re-locks
// automatically when the key device leaves radio range (PeerHood's
// active monitoring).
package accesscontrol

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/peerhood"
)

// ServiceName is the service doors register in the PeerHood daemon.
const ServiceName ids.ServiceName = "AccessControl"

// Errors.
var (
	ErrAccessDenied = errors.New("accesscontrol: access denied")
	ErrDoorGone     = errors.New("accesscontrol: door unreachable")
)

// credentialFor derives the unlock token for a key holder from the
// door's shared secret — the moral equivalent of the Bluetooth PIN
// pairing the thesis mentions.
func credentialFor(secret string, holder ids.DeviceID) string {
	mac := hmac.New(sha256.New, []byte(secret))
	_, _ = mac.Write([]byte(holder)) // hash.Hash.Write never returns an error
	return hex.EncodeToString(mac.Sum(nil))
}

// DoorState is the lock's condition.
type DoorState int

// Lock states.
const (
	Locked DoorState = iota + 1
	Unlocked
)

// String implements fmt.Stringer.
func (s DoorState) String() string {
	if s == Unlocked {
		return "unlocked"
	}
	return "locked"
}

// Door is a Bluetooth-controlled lock on a PeerHood device.
type Door struct {
	lib    *peerhood.Library
	secret string

	mu         sync.Mutex
	state      DoorState
	authorized map[ids.DeviceID]bool
	unlockedBy ids.DeviceID
	cancelMon  func()
	transcript []string

	svc *netsim.Service
}

// NewDoor registers the access-control service on the door's device and
// starts serving unlock requests. The secret is shared out of band with
// authorized key holders.
func NewDoor(lib *peerhood.Library, secret string) (*Door, error) {
	d := &Door{
		lib:        lib,
		secret:     secret,
		state:      Locked,
		authorized: make(map[ids.DeviceID]bool),
	}
	listener, err := lib.RegisterService(ServiceName, map[string]string{"kind": "door"})
	if err != nil {
		return nil, fmt.Errorf("accesscontrol: %w", err)
	}
	d.svc = listener.Serve(d.serve)
	return d, nil
}

// Stop unregisters and stops the door.
func (d *Door) Stop() {
	d.svc.Stop()
	d.lib.UnregisterService(ServiceName)
	d.mu.Lock()
	if d.cancelMon != nil {
		d.cancelMon()
		d.cancelMon = nil
	}
	d.mu.Unlock()
}

// Authorize grants a key device access.
func (d *Door) Authorize(key ids.DeviceID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.authorized[key] = true
}

// Revoke removes a key device's access.
func (d *Door) Revoke(key ids.DeviceID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.authorized, key)
}

// State returns the current lock state.
func (d *Door) State() DoorState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Transcript returns the audit log of lock events.
func (d *Door) Transcript() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.transcript...)
}

func (d *Door) logf(format string, args ...any) {
	d.transcript = append(d.transcript, fmt.Sprintf(format, args...))
}

// serve answers one request per conn.
func (d *Door) serve(from ids.DeviceID, req []byte) ([]byte, netsim.ServeStep) {
	return []byte(d.handle(from, string(req))), nil
}

// handle processes "UNLOCK <credential>" and "LOCK" requests.
func (d *Door) handle(from ids.DeviceID, req string) string {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case len(req) > 7 && req[:7] == "UNLOCK ":
		cred := req[7:]
		if !d.authorized[from] || !hmac.Equal([]byte(cred), []byte(credentialFor(d.secret, from))) {
			d.logf("denied %s", from)
			return "DENIED"
		}
		d.state = Unlocked
		d.unlockedBy = from
		d.logf("unlocked by %s", from)
		d.armAutoLockLocked(from)
		return "UNLOCKED"
	case req == "LOCK":
		d.state = Locked
		d.unlockedBy = ""
		d.logf("locked by %s", from)
		if d.cancelMon != nil {
			d.cancelMon()
			d.cancelMon = nil
		}
		return "LOCKED"
	default:
		return "BAD_REQUEST"
	}
}

// armAutoLockLocked starts monitoring the key holder; when PeerHood
// reports the device left range, the door re-locks itself. Callers hold
// d.mu.
func (d *Door) armAutoLockLocked(key ids.DeviceID) {
	if d.cancelMon != nil {
		d.cancelMon()
	}
	d.cancelMon = d.lib.Monitor(key, func(ev peerhood.MonitorEvent) {
		if ev.Appeared {
			return
		}
		d.mu.Lock()
		defer d.mu.Unlock()
		if d.state == Unlocked && d.unlockedBy == key {
			d.state = Locked
			d.unlockedBy = ""
			d.logf("auto-locked: %s left range", key)
		}
	})
}

// Key is the PTD side: it finds nearby doors and unlocks them.
type Key struct {
	lib    *peerhood.Library
	secret string
}

// NewKey binds a key to the holder's PeerHood library and the shared
// secret.
func NewKey(lib *peerhood.Library, secret string) *Key {
	return &Key{lib: lib, secret: secret}
}

// NearbyDoors lists discovered devices offering the door service.
func (k *Key) NearbyDoors() []ids.DeviceID {
	return k.lib.DevicesOffering(ServiceName)
}

// Unlock asks a door to open.
func (k *Key) Unlock(ctx context.Context, door ids.DeviceID) error {
	resp, err := k.request(ctx, door, "UNLOCK "+credentialFor(k.secret, k.lib.Device()))
	if err != nil {
		return err
	}
	if resp != "UNLOCKED" {
		return fmt.Errorf("%w: door said %q", ErrAccessDenied, resp)
	}
	return nil
}

// Lock asks a door to close.
func (k *Key) Lock(ctx context.Context, door ids.DeviceID) error {
	resp, err := k.request(ctx, door, "LOCK")
	if err != nil {
		return err
	}
	if resp != "LOCKED" {
		return fmt.Errorf("accesscontrol: door said %q", resp)
	}
	return nil
}

func (k *Key) request(ctx context.Context, door ids.DeviceID, msg string) (string, error) {
	conn, err := k.lib.Connect(ctx, door, ServiceName)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrDoorGone, err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send([]byte(msg)); err != nil {
		return "", err
	}
	resp, err := conn.Recv(ctx)
	if err != nil {
		return "", err
	}
	return string(resp), nil
}
