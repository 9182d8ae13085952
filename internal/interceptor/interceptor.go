// Package interceptor models the Eternal Interceptor (paper sections
// 2.1 and 3.1): the component that, in the original system, attaches to
// every CORBA object via library interpositioning — without the ORB's or
// the application's knowledge — and modifies its behaviour.
//
// Go programs cannot interpose on dynamic-library symbols, so this
// package reproduces the two *effects* the paper obtains from
// interpositioning (see DESIGN.md section 2):
//
//   - Address rewriting: when a replicated server publishes its IOR, the
//     {host, port} it contains are replaced with the gateway's, so
//     external clients implicitly connect to the gateway believing it is
//     the server. GatewayAddr plugs into the ORB exactly where the
//     getsockname()/sysinfo() interposition would take effect, and
//     StitchIOR builds the multi-profile IORs of section 3.5.
//
//   - Connection diversion: replicated clients inside the domain never
//     use the TCP/IP addressing in an IOR; their connection establishment
//     is diverted to the local Replication Mechanisms. That is
//     replication.Handle: it invokes by the object key alone, under the
//     identifier figure 6 gives the call, so this package holds no
//     connection of its own.
package interceptor

import (
	"eternalgw/internal/ior"
	"eternalgw/internal/orb"
)

// GatewayAddr is an orb.Advertiser that substitutes the gateway's
// endpoint for the server's when IORs are published. The gateway host
// and port are dedicated choices supplied at system configuration time
// (paper section 3.1).
type GatewayAddr struct {
	Host string
	Port uint16
}

// AdvertisedAddr implements orb.Advertiser: the server's real address is
// discarded and the gateway's returned.
func (a GatewayAddr) AdvertisedAddr(string, uint16) (string, uint16) {
	return a.Host, a.Port
}

var _ orb.Advertiser = GatewayAddr{}

// StitchIOR builds the multi-profile IOR of paper section 3.5: the
// addressing information of each redundant gateway stitched into a
// single reference, in failover order.
func StitchIOR(typeID string, objectKey []byte, gateways ...GatewayAddr) ior.Ref {
	profiles := make([]ior.IIOPProfile, 0, len(gateways))
	for _, g := range gateways {
		profiles = append(profiles, ior.IIOPProfile{
			Host:      g.Host,
			Port:      g.Port,
			ObjectKey: objectKey,
		})
	}
	return ior.NewMulti(typeID, profiles...)
}
