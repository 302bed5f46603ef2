package registry

import (
	"errors"
	"testing"
	"time"
)

func device(id DeviceID) *Device {
	return &Device{
		ID: id, Vendor: "v", Model: "m", Protocol: "modbus", Tenant: "acme",
		Caps: []Capability{
			{Name: "temp", Kind: KindSensor, Unit: "C"},
			{Name: "valve", Kind: KindActuator, Unit: "%"},
		},
	}
}

func TestRegisterLookupDeregister(t *testing.T) {
	r := New()
	if err := r.Register(device("d1")); err != nil {
		t.Fatal(err)
	}
	d, err := r.Lookup("d1")
	if err != nil || d.Vendor != "v" {
		t.Fatalf("Lookup: %v", err)
	}
	if err := r.Register(device("d1")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate err = %v", err)
	}
	if err := r.Deregister("d1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Lookup("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-deregister err = %v", err)
	}
	if err := r.Deregister("d1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double deregister err = %v", err)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New()
	if err := r.Register(&Device{}); err == nil {
		t.Fatal("empty ID accepted")
	}
}

func TestHooksFireOnRegister(t *testing.T) {
	r := New()
	var got []DeviceID
	r.OnRegister(func(d *Device) { got = append(got, d.ID) })
	_ = r.Register(device("a"))
	_ = r.Register(device("b"))
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("hooks = %v", got)
	}
}

func TestQueriesSortedAndFiltered(t *testing.T) {
	r := New()
	_ = r.Register(device("b"))
	_ = r.Register(device("a"))
	other := device("c")
	other.Protocol = "blegatt"
	other.Tenant = "globex"
	_ = r.Register(other)

	all := r.All()
	if len(all) != 3 || all[0].ID != "a" || all[2].ID != "c" {
		t.Fatalf("All = %v", all)
	}
	if got := r.ByProtocol("modbus"); len(got) != 2 {
		t.Fatalf("ByProtocol = %d", len(got))
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d", r.Len())
	}
}

func TestCapabilityLookup(t *testing.T) {
	d := device("x")
	c, ok := d.Capability("valve")
	if !ok || c.Kind != KindActuator {
		t.Fatalf("Capability = %+v ok=%v", c, ok)
	}
	if _, ok := d.Capability("ghost"); ok {
		t.Fatal("phantom capability")
	}
	if KindSensor.String() != "sensor" || KindActuator.String() != "actuator" {
		t.Fatal("kind strings wrong")
	}
}

func TestObservationTopic(t *testing.T) {
	o := Observation{Device: "press-1", Cap: "temp", Value: 20, At: time.Second}
	if o.Topic() != "obs/press-1/temp" {
		t.Fatalf("Topic = %q", o.Topic())
	}
}
