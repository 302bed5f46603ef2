// Package registry defines the canonical device model of the middleware
// — the neutral vocabulary every protocol adapter translates into — and
// the device registry that tracks what is deployed where. This is the
// O(M) integration pivot of §III: M protocol families need M adapters to
// the canonical model instead of M² pairwise translators.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// DeviceID uniquely names a device.
type DeviceID string

// CapabilityKind distinguishes sensing from actuation.
type CapabilityKind int

// Capability kinds.
const (
	KindSensor CapabilityKind = iota
	KindActuator
)

// String names the kind.
func (k CapabilityKind) String() string {
	if k == KindSensor {
		return "sensor"
	}
	return "actuator"
}

// Capability is one named measurement or control point of a device.
type Capability struct {
	Name string
	Kind CapabilityKind
	Unit string
}

// Device is the canonical description of a field device.
type Device struct {
	ID       DeviceID
	Vendor   string
	Model    string
	Protocol string // adapter protocol name ("modbus", "blegatt", ...)
	Tenant   string // administrative domain (§IV-C)
	Caps     []Capability
}

// Capability returns the named capability.
func (d *Device) Capability(name string) (Capability, bool) {
	for _, c := range d.Caps {
		if c.Name == name {
			return c, true
		}
	}
	return Capability{}, false
}

// Observation is a canonical sensor reading.
type Observation struct {
	Device DeviceID
	Cap    string
	Value  float64
	Unit   string
	At     time.Duration
}

// Topic returns the bus topic for this observation.
func (o Observation) Topic() string {
	return fmt.Sprintf("obs/%s/%s", o.Device, o.Cap)
}

// Command is a canonical actuation request.
type Command struct {
	Device DeviceID
	Cap    string
	Value  float64
}

// Registry errors.
var (
	ErrDuplicate = errors.New("registry: device already registered")
	ErrNotFound  = errors.New("registry: device not found")
)

// Registry tracks registered devices. Safe for concurrent use.
type Registry struct {
	mu      sync.Mutex
	devices map[DeviceID]*Device
	hooks   []func(*Device)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{devices: make(map[DeviceID]*Device)}
}

// Register adds a device.
func (r *Registry) Register(d *Device) error {
	if d.ID == "" {
		return errors.New("registry: empty device ID")
	}
	r.mu.Lock()
	if _, dup := r.devices[d.ID]; dup {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrDuplicate, d.ID)
	}
	r.devices[d.ID] = d
	hooks := make([]func(*Device), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.Unlock()
	for _, h := range hooks {
		h(d)
	}
	return nil
}

// Deregister removes a device.
func (r *Registry) Deregister(id DeviceID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.devices[id]; !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	delete(r.devices, id)
	return nil
}

// Lookup returns the device with the given ID.
func (r *Registry) Lookup(id DeviceID) (*Device, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.devices[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return d, nil
}

// OnRegister adds a hook called for each newly registered device.
func (r *Registry) OnRegister(h func(*Device)) {
	r.mu.Lock()
	r.hooks = append(r.hooks, h)
	r.mu.Unlock()
}

// All returns all devices sorted by ID.
func (r *Registry) All() []*Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Device, 0, len(r.devices))
	for _, d := range r.devices {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByProtocol returns devices speaking the given protocol, sorted by ID.
func (r *Registry) ByProtocol(proto string) []*Device {
	var out []*Device
	for _, d := range r.All() {
		if d.Protocol == proto {
			out = append(out, d)
		}
	}
	return out
}

// Len returns the number of registered devices.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.devices)
}
