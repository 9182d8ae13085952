package interceptor_test

import (
	"testing"

	"eternalgw/internal/interceptor"
	"eternalgw/internal/orb"
)

func TestGatewayAddrRewritesAdvertisement(t *testing.T) {
	a := interceptor.GatewayAddr{Host: "gw.example", Port: 9021}
	h, p := a.AdvertisedAddr("server.internal", 34567)
	if h != "gw.example" || p != 9021 {
		t.Fatalf("advertised = %s:%d", h, p)
	}
}

func TestGatewayAddrPlugsIntoORB(t *testing.T) {
	// The interceptor hook replaces the server's address when the ORB
	// publishes an IOR (paper section 3.1): the published profile never
	// names the real server endpoint.
	s, err := orb.NewServer("127.0.0.1:0", orb.WithAdvertiser(interceptor.GatewayAddr{Host: "gw", Port: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	ref := s.IOR("IDL:X:1.0", []byte("k"))
	p, err := ref.PrimaryProfile()
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != "gw" || p.Port != 1 {
		t.Fatalf("profile = %+v", p)
	}
	if p.Addr() == s.Addr() {
		t.Fatal("published IOR leaked the server's real address")
	}
}

func TestStitchIORProducesOrderedProfiles(t *testing.T) {
	ref := interceptor.StitchIOR("IDL:X:1.0", []byte("key"),
		interceptor.GatewayAddr{Host: "gw1", Port: 1},
		interceptor.GatewayAddr{Host: "gw2", Port: 2},
	)
	ps, err := ref.IIOPProfiles()
	if err != nil || len(ps) != 2 {
		t.Fatalf("profiles = %v, %v", ps, err)
	}
	if ps[0].Host != "gw1" || ps[1].Host != "gw2" {
		t.Fatalf("order = %s, %s", ps[0].Host, ps[1].Host)
	}
	for _, p := range ps {
		if string(p.ObjectKey) != "key" {
			t.Fatalf("object key = %q", p.ObjectKey)
		}
	}
}
