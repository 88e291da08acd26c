package isa

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

func pagesHeld(m *Interp) int {
	n := 0
	for _, pg := range m.priv {
		if pg != nil {
			n++
		}
	}
	return n
}

func TestPrivatePaging(t *testing.T) {
	m := NewInterp(&Program{})
	if n := pagesHeld(m); n != 0 {
		t.Fatalf("fresh interpreter holds %d pages", n)
	}
	const pageBytes = privPageWords * 8
	last := PrivateBase + PrivateWords*8 - 8
	addrs := []uint64{
		PrivateBase,
		PrivateBase + pageBytes - 8, // last word of page 0
		PrivateBase + pageBytes,     // first word of page 1
		last,
	}
	for _, a := range addrs {
		if v, err := m.ReadPriv(a); err != nil || v != 0 {
			t.Fatalf("unwritten %#x reads %d, %v", a, v, err)
		}
	}
	if n := pagesHeld(m); n != 0 {
		t.Fatalf("loads allocated %d pages", n)
	}
	for i, a := range addrs {
		if err := m.WritePriv(a, uint64(i+1)*0x1111); err != nil {
			t.Fatal(err)
		}
	}
	for i, a := range addrs {
		if v, err := m.ReadPriv(a); err != nil || v != uint64(i+1)*0x1111 {
			t.Fatalf("%#x reads %#x, %v; want %#x", a, v, err, uint64(i+1)*0x1111)
		}
	}
	if v, _ := m.ReadPriv(PrivateBase + 8); v != 0 {
		t.Fatalf("neighbour of a written word reads %#x", v)
	}
	if n := pagesHeld(m); n != 3 {
		t.Fatalf("stores to 3 pages allocated %d", n)
	}

	for _, a := range []uint64{PrivateBase - 8, PrivateBase + PrivateWords*8} {
		want := fmt.Sprintf("isa: private address %#x out of range", a)
		if err := m.WritePriv(a, 1); err == nil || err.Error() != want {
			t.Errorf("WritePriv(%#x) = %v, want %q", a, err, want)
		}
		if _, err := m.ReadPriv(a); err == nil || err.Error() != want {
			t.Errorf("ReadPriv(%#x) = %v, want %q", a, err, want)
		}
	}
}

func TestSumProgramTouchesFewPages(t *testing.T) {
	prog, err := Assemble(sumProgram)
	if err != nil {
		t.Fatal(err)
	}
	s := testSystem(t)
	m := NewInterp(prog)
	s.Spawn("cpu", 0, func(p *core.Proc) {
		if err := m.Run(p, "main"); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n := pagesHeld(m); n > 2 {
		t.Fatalf("sum program touched %d pages", n)
	}
}
