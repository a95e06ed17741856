package net

import (
	gonet "net"
	"testing"
	"time"
)

// TestUDPForgedSourceDropped pins UDP sender authentication: a datagram
// is delivered under the id whose address book entry it came from, and
// one from an address outside the book is dropped and counted, whatever
// its bytes claim.
func TestUDPForgedSourceDropped(t *testing.T) {
	tr, err := NewLoopbackUDP(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	ep0, err := tr.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	defer ep0.Close()
	ep1, err := tr.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	defer ep1.Close()

	stray, err := gonet.DialUDP("udp", nil, tr.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer stray.Close()
	if _, err := stray.Write([]byte{1, 0xEE}); err != nil {
		t.Fatal(err)
	}
	uc := ep0.(UnknownSourceCounter)
	deadline := time.Now().Add(5 * time.Second)
	for uc.UnknownSources() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("a datagram from outside the address book was not counted")
		}
		time.Sleep(time.Millisecond)
	}
	if err := ep1.Send(0, []byte{1, 0xAB}); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-ep0.Recv():
		if p.From != 1 || len(p.Data) != 2 || p.Data[1] != 0xAB {
			t.Fatalf("got From=%d %x, want node 1's frame under id 1", p.From, p.Data)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node 1's frame never arrived")
	}
	if got := uc.UnknownSources(); got != 1 {
		t.Fatalf("%d unknown-source drops, want 1", got)
	}
}
