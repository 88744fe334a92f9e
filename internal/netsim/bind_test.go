package netsim

import (
	"net/netip"
	"testing"
	"time"
)

// bindWorld is one router with two local addresses and a host behind it.
func bindWorld(t *testing.T) (*Network, *Host, *Router) {
	t.Helper()
	net := NewNetwork()
	rtr := NewRouter("r", addr("192.0.2.1"))
	rtr.AddAddr(addr("192.0.2.2"))
	host := NewHost("h", addr("10.0.0.2"), netip.Addr{}, rtr)
	rtr.AddRoute(pfx("10.0.0.0/24"), host)
	return net, host, rtr
}

func exchangeTag(t *testing.T, net *Network, host *Host, dst string) (string, error) {
	t.Helper()
	pkts, err := host.Exchange(net, ap(dst), []byte("q"), ExchangeOptions{})
	if err != nil {
		return "", err
	}
	return string(pkts[0].Payload), nil
}

// TestRouterAddrSpecificBindings: BindOn beats the wildcard Bind on its
// address, CloseOn firewalls one address without unbinding the port,
// and Unbind removes only the wildcard.
func TestRouterAddrSpecificBindings(t *testing.T) {
	net, host, rtr := bindWorld(t)
	if !rtr.HasAddr(addr("192.0.2.2")) {
		t.Fatal("AddAddr did not register the second address")
	}
	if got := len(rtr.Addrs()); got != 2 {
		t.Fatalf("router reports %d addresses, want 2", got)
	}

	rtr.Bind(53, echoService("wild"))
	rtr.BindOn(addr("192.0.2.2"), 53, echoService("specific"))

	if got, err := exchangeTag(t, net, host, "192.0.2.1:53"); err != nil || got != "wild:q" {
		t.Errorf("wildcard address answered (%q, %v), want wild:q", got, err)
	}
	if got, err := exchangeTag(t, net, host, "192.0.2.2:53"); err != nil || got != "specific:q" {
		t.Errorf("bound address answered (%q, %v), want the addr-specific service", got, err)
	}

	rtr.CloseOn(addr("192.0.2.1"), 53)
	if _, err := exchangeTag(t, net, host, "192.0.2.1:53"); err != ErrTimeout {
		t.Errorf("closed address answered (err=%v), want ErrTimeout", err)
	}
	if got, _ := exchangeTag(t, net, host, "192.0.2.2:53"); got != "specific:q" {
		t.Errorf("CloseOn on one address leaked to another (%q)", got)
	}

	rtr.Unbind(53)
	if got, _ := exchangeTag(t, net, host, "192.0.2.2:53"); got != "specific:q" {
		t.Errorf("Unbind removed the addr-specific binding (%q)", got)
	}
}

// TestServiceCtxClockAndBuffers: services read the virtual clock and
// build replies in recycled payload buffers.
func TestServiceCtxClockAndBuffers(t *testing.T) {
	net, host, rtr := bindWorld(t)
	var seen time.Duration
	rtr.Bind(99, ServiceFunc(func(sc *ServiceCtx, pkt *Packet) {
		seen = sc.Now()
		buf := append(sc.PayloadBuf(), []byte("pooled")...)
		sc.Reply(pkt, buf)
	}))
	got, err := exchangeTag(t, net, host, "192.0.2.1:99")
	if err != nil || got != "pooled" {
		t.Errorf("service answered (%q, %v), want the pooled-buffer reply", got, err)
	}
	if seen < 0 {
		t.Errorf("service observed a negative virtual time %v", seen)
	}
}
