package net_test

import (
	"testing"
	"time"

	"ssbyzclock/internal/net"
)

// transports under test; each factory builds a fresh n-node medium with
// the given queue capacity.
func transports(n, qcap int) map[string]func(t *testing.T) net.Transport {
	return map[string]func(t *testing.T) net.Transport{
		"chan": func(t *testing.T) net.Transport { return net.NewChanTransport(n, qcap) },
		"udp": func(t *testing.T) net.Transport {
			tr, err := net.NewLoopbackUDP(n, qcap)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		"tcp": func(t *testing.T) net.Transport {
			tr, err := net.NewLoopbackTCP(n, qcap)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	}
}

func attachAll(t *testing.T, tr net.Transport, n int) []net.Endpoint {
	t.Helper()
	eps := make([]net.Endpoint, n)
	for i := range eps {
		ep, err := tr.Endpoint(i)
		if err != nil {
			t.Fatalf("endpoint %d: %v", i, err)
		}
		eps[i] = ep
	}
	return eps
}

func recvOne(t *testing.T, ep net.Endpoint) net.Packet {
	t.Helper()
	select {
	case p := <-ep.Recv():
		return p
	case <-time.After(5 * time.Second):
		t.Fatalf("endpoint %d: no packet within 5s", ep.ID())
		return net.Packet{}
	}
}

func TestTransportRoundTrip(t *testing.T) {
	const n = 4
	for name, mk := range transports(n, 64) {
		t.Run(name, func(t *testing.T) {
			tr := mk(t)
			defer tr.Close()
			eps := attachAll(t, tr, n)
			defer func() {
				for _, ep := range eps {
					ep.Close()
				}
			}()
			// Everyone sends one tagged frame to everyone (including self).
			for from, ep := range eps {
				for to := 0; to < n; to++ {
					frame := []byte{byte(from), byte(to), 0xAB}
					if err := ep.Send(to, frame); err != nil {
						t.Fatalf("send %d->%d: %v", from, to, err)
					}
				}
			}
			for to, ep := range eps {
				seen := make(map[byte]bool)
				for len(seen) < n {
					p := recvOne(t, ep)
					if len(p.Data) != 3 || int(p.Data[1]) != to || p.Data[2] != 0xAB {
						t.Fatalf("endpoint %d: bad frame %x", to, p.Data)
					}
					if int(p.Data[0]) != p.From {
						t.Fatalf("endpoint %d: transport From=%d but frame claims %d", to, p.From, p.Data[0])
					}
					seen[p.Data[0]] = true
				}
			}
		})
	}
}

// TestTransportBoundedQueues drowns one receiver and checks the memory
// contract: at most qcap frames are held, the rest are counted drops.
func TestTransportBoundedQueues(t *testing.T) {
	const n, qcap, burst = 2, 8, 512
	for name, mk := range transports(n, qcap) {
		t.Run(name, func(t *testing.T) {
			if name == "udp" {
				// UDP drops in the kernel as well as our queue; the counter
				// contract is still checked but via a retry loop below.
			}
			tr := mk(t)
			defer tr.Close()
			eps := attachAll(t, tr, n)
			defer func() {
				for _, ep := range eps {
					ep.Close()
				}
			}()
			for i := 0; i < burst; i++ {
				if err := eps[0].Send(1, []byte{byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			// Give socket transports time to land what will land.
			deadline := time.Now().Add(5 * time.Second)
			for {
				held := len(eps[1].Recv())
				if held > qcap {
					t.Fatalf("receiver holds %d frames, queue capacity %d", held, qcap)
				}
				dropped := eps[0].Dropped() + eps[1].Dropped()
				if dropped > 0 && held > 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no drops recorded after %d-frame burst into capacity %d (held %d)", burst, qcap, held)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}

// TestTransportCrashRestart closes an endpoint (sends to it drop), then
// re-attaches the same id and checks traffic flows again.
func TestTransportCrashRestart(t *testing.T) {
	const n = 2
	for name, mk := range transports(n, 64) {
		t.Run(name, func(t *testing.T) {
			tr := mk(t)
			defer tr.Close()
			eps := attachAll(t, tr, n)
			defer eps[0].Close()

			if _, err := tr.Endpoint(1); err == nil {
				t.Fatal("double attach allowed")
			}
			if err := eps[1].Close(); err != nil {
				t.Fatal(err)
			}
			if err := eps[1].Send(0, []byte{1}); err != net.ErrClosed {
				t.Fatalf("send on closed endpoint: err=%v", err)
			}
			// Sends into the crash window must not error or block.
			for i := 0; i < 4; i++ {
				if err := eps[0].Send(1, []byte{0xCC}); err != nil {
					t.Fatal(err)
				}
			}
			reborn, err := tr.Endpoint(1)
			if err != nil {
				t.Fatalf("re-attach: %v", err)
			}
			defer reborn.Close()
			// Real sockets may need a beat to rebind; retry until delivery.
			deadline := time.Now().Add(5 * time.Second)
			for {
				if err := eps[0].Send(1, []byte{0xDD}); err != nil {
					t.Fatal(err)
				}
				select {
				case p := <-reborn.Recv():
					if len(p.Data) == 1 && p.Data[0] == 0xDD {
						return
					}
					if name == "chan" && p.Data[0] == 0xCC {
						t.Fatal("frame sent into the crash window survived the restart")
					}
				case <-time.After(50 * time.Millisecond):
				}
				if time.Now().After(deadline) {
					t.Fatal("no delivery after re-attach")
				}
			}
		})
	}
}

func TestTransportOutOfRange(t *testing.T) {
	tr := net.NewChanTransport(2, 4)
	if _, err := tr.Endpoint(2); err == nil {
		t.Fatal("out-of-range attach allowed")
	}
	if _, err := tr.Endpoint(-1); err == nil {
		t.Fatal("negative attach allowed")
	}
	ep, err := tr.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	if err := ep.Send(5, []byte{1}); err == nil {
		t.Fatal("out-of-range send allowed")
	}
}
