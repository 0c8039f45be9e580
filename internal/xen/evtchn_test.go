package xen

import (
	"strings"
	"testing"

	"repro/internal/hw"
)

// twoDomains builds an active VMM with a privileged driver domain and an
// unprivileged guest.
func twoDomains(t *testing.T) (*VMM, *Domain, *Domain, *hw.CPU) {
	t.Helper()
	h, err := BootHost(hw.Config{MemBytes: 32 << 20, NumCPUs: 1}, 2048)
	if err != nil {
		t.Fatal(err)
	}
	v, d0, c := h.V, h.Dom0, h.C
	dU, err := v.CreateDomain("domU", hw.PFN(h.M.Frames.Available()), false)
	if err != nil {
		t.Fatal(err)
	}
	v.SetCurrent(c, dU)
	return v, d0, dU, c
}

func TestEvtchnBindAndSend(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	fired := 0
	p0 := v.EvtchnAllocUnbound(c, d0, dU.ID)
	d0.SetPortHandler(p0, func(cc *hw.CPU) { fired++ })
	pU, err := v.EvtchnBindInterdomain(c, dU, d0.ID, p0)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.EvtchnSend(c, dU, pU); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("handler fired %d times", fired)
	}
}

// TestEvtchnConnect: a connected channel runs its handler in the
// receiving domain, in either direction, and nothing in the sender; a
// connect to a domain that is gone fails at the bind.
func TestEvtchnConnect(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	for _, dir := range []struct{ from, to *Domain }{{dU, d0}, {d0, dU}} {
		ran, stray := 0, 0
		p, err := v.EvtchnConnect(c, dir.from, dir.to, func(cc *hw.CPU) {
			if cur := v.Current(cc); cur != dir.to {
				t.Errorf("dom%d->dom%d: handler ran in dom%d", dir.from.ID, dir.to.ID, cur.ID)
			}
			ran++
		})
		if err != nil {
			t.Fatal(err)
		}
		dir.from.SetPortHandler(p, func(*hw.CPU) { stray++ })
		v.SetCurrent(c, dir.from)
		if err := v.EvtchnSend(c, dir.from, p); err != nil {
			t.Fatal(err)
		}
		if ran != 1 || stray != 0 {
			t.Fatalf("dom%d->dom%d: receiver ran %d times, sender %d", dir.from.ID, dir.to.ID, ran, stray)
		}
	}
	if err := v.DestroyDomain(dU.ID); err != nil {
		t.Fatal(err)
	}
	_, err := v.EvtchnConnect(c, d0, dU, func(*hw.CPU) {})
	if err == nil || !strings.Contains(err.Error(), "bind to nonexistent dom") {
		t.Fatalf("connect to a destroyed domain: err = %v", err)
	}
}

func TestEvtchnBindValidation(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	// Binding to a port not offered to us fails.
	p0 := v.EvtchnAllocUnbound(c, d0, 99)
	if _, err := v.EvtchnBindInterdomain(c, dU, d0.ID, p0); err == nil {
		t.Fatal("bound to a port offered to another domain")
	}
	// Binding to a nonexistent domain fails.
	if _, err := v.EvtchnBindInterdomain(c, dU, 77, 0); err == nil {
		t.Fatal("bound to nonexistent domain")
	}
	// Sending on an unbound port fails.
	if err := v.EvtchnSend(c, dU, 55); err == nil {
		t.Fatal("send on invalid port accepted")
	}
}

func TestEvtchnMaskedByVIF(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	fired := 0
	p0 := v.EvtchnAllocUnbound(c, d0, dU.ID)
	d0.SetPortHandler(p0, func(cc *hw.CPU) { fired++ })
	pU, err := v.EvtchnBindInterdomain(c, dU, d0.ID, p0)
	if err != nil {
		t.Fatal(err)
	}
	// Mask the target's virtual IF: event stays pending.
	d0.VCPU0().SetVIF(false)
	if err := v.EvtchnSend(c, dU, pU); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("delivered to masked domain")
	}
	// Unmasking drains the pending event.
	v.SetVIF(c, d0, true)
	if fired != 1 {
		t.Fatalf("pending event not drained on unmask (fired=%d)", fired)
	}
}

func TestGrantMapLifecycle(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	pfn := dU.Frames.Alloc()
	v.M.Mem.WriteWord(pfn.Addr(), 0xABCD)
	ref := dU.GrantAccess(c, d0.ID, pfn, true)

	got, unmap, err := v.GrantMap(c, d0, dU.ID, ref, false)
	if err != nil {
		t.Fatal(err)
	}
	if got != pfn {
		t.Fatalf("mapped %d, want %d", got, pfn)
	}
	if v.M.Mem.ReadWord(got.Addr()) != 0xABCD {
		t.Fatal("granted frame contents wrong")
	}
	// Ending a grant while mapped fails.
	if err := dU.GrantEnd(c, ref); err == nil {
		t.Fatal("ended grant while mapped")
	}
	unmap()
	if err := dU.GrantEnd(c, ref); err != nil {
		t.Fatal(err)
	}
	// Frame refs fully released.
	if fi := v.FT.Get(pfn); fi.TotalRefs != 0 {
		t.Fatalf("grant left refs: %+v", fi)
	}
}

func TestGrantMapAuthorization(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	pfn := dU.Frames.Alloc()
	ref := dU.GrantAccess(c, 42, pfn, true) // granted to someone else
	if _, _, err := v.GrantMap(c, d0, dU.ID, ref, false); err == nil {
		t.Fatal("mapped a grant addressed to another domain")
	}
	if _, _, err := v.GrantMap(c, d0, dU.ID, GrantRef(99), false); err == nil {
		t.Fatal("mapped a nonexistent grant")
	}
}

func TestDomctlPrivilegeChecks(t *testing.T) {
	v, _, dU, c := twoDomains(t)
	if _, err := v.HypDomctlCreate(c, dU, "x", 10); err == nil {
		t.Fatal("unprivileged domctl create accepted")
	}
	if err := v.HypDomctlPause(c, dU, dU.ID); err == nil {
		t.Fatal("unprivileged pause accepted")
	}
	if err := v.HypDomctlDestroy(c, dU, dU.ID); err == nil {
		t.Fatal("unprivileged destroy accepted")
	}
}

func TestDomctlPauseUnpause(t *testing.T) {
	v, d0, dU, c := twoDomains(t)
	if err := v.HypDomctlPause(c, d0, dU.ID); err != nil {
		t.Fatal(err)
	}
	if dU.State != DomPaused {
		t.Fatal("domain not paused")
	}
	// Events to a paused domain stay pending.
	p0 := v.EvtchnAllocUnbound(c, dU, d0.ID)
	fired := 0
	dU.SetPortHandler(p0, func(cc *hw.CPU) { fired++ })
	pd, err := v.EvtchnBindInterdomain(c, d0, dU.ID, p0)
	if err != nil {
		t.Fatal(err)
	}
	v.SetCurrent(c, d0)
	if err := v.EvtchnSend(c, d0, pd); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatal("paused domain received upcall")
	}
	if err := v.HypDomctlUnpause(c, d0, dU.ID); err != nil {
		t.Fatal(err)
	}
	if dU.State != DomRunning {
		t.Fatal("domain not resumed")
	}
}
