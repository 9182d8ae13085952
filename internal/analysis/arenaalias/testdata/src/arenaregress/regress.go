// Package arenaregress replays the PR 3 receive-path aliasing footguns
// against the real replication and totem types — including the holdback
// retention this PR fixed in replication/replica.go — reconstructed
// outside those packages so the corpus keeps failing if the default
// arena set regresses.
package arenaregress

import (
	"eternalgw/internal/memnet"
	"eternalgw/internal/replication"
	"eternalgw/internal/totem"
)

// holdback replays the holdback-queue bug: appending the HeaderView's
// borrowed payload into a long-lived slice pins the packed datagram's
// arena for as long as the gap before it stays open.
type holdback struct {
	payloads [][]byte
}

func (h *holdback) retain(hv replication.HeaderView) {
	h.payloads = append(h.payloads, hv.Payload) // want `stored in a struct field`
}

// requeue replays the same bug one level up: a Message materialized
// from a view still aliases the delivery buffer.
type requeue struct {
	pending []replication.Message
}

func (q *requeue) push(hv replication.HeaderView) {
	q.pending = append(q.pending, hv.Message()) // want `stored in a struct field`
}

var lastDelivery []byte

func retainDelivery(d totem.Delivery) {
	lastDelivery = d.Payload // want `stored in a package variable`
}

func forward(ev totem.Event, out chan []byte) {
	out <- ev.Delivery.Payload // want `sent on a channel`
}

// The sanctioned shapes: copy before the callback returns, or hand the
// borrow on in an arena type so the caller knows what it holds.
func snapshot(d totem.Delivery) []byte {
	return append([]byte(nil), d.Payload...)
}

func peek(d totem.Delivery) (replication.HeaderView, error) {
	return replication.DecodeHeader(d.Payload)
}

// A memnet.Packet is made to be queued and handed on, so it is not
// escape-checked...
func relay(pkt memnet.Packet, out chan memnet.Packet) {
	out <- pkt
}

// ...but memnet puts one broadcast's payload into every receiver's
// inbox, so it is as read-only as a delivery: a transport shim or fault
// injector that wants to damage a datagram damages a copy.
func corruptInPlace(pkt memnet.Packet) {
	pkt.Payload[0] ^= 0xff // want `write into delivery-arena memory`
}

func corruptCopy(pkt memnet.Packet) memnet.Packet {
	own := append([]byte(nil), pkt.Payload...)
	own[0] ^= 0xff
	return memnet.Packet{From: pkt.From, Payload: own}
}

// The same rule one layer up, on the real delivery types.
func scrub(d totem.Delivery) {
	copy(d.Payload, make([]byte, len(d.Payload))) // want `copy onto delivery-arena memory`
}

func extend(hv replication.HeaderView) []byte {
	return append(hv.Payload, 0) // want `append to delivery-arena memory` `returning delivery-arena memory`
}

// The gateway-group record keeps a delivery's bytes through the one
// function that may hand the window back (DESIGN.md section 7), asked
// with the delivery's own Sole...
//
// gwlint:arena-retain
func retain(b []byte, sole bool) []byte {
	if sole {
		return b
	}
	return append([]byte(nil), b...)
}

type gatewayRecord struct {
	replies [][]byte
}

func (g *gatewayRecord) recorded(d totem.Delivery) {
	g.replies = append(g.replies, retain(d.Payload, d.Sole))
}

// ...and not by looking at Sole themselves,
func (g *gatewayRecord) recordedUnasked(d totem.Delivery) {
	if d.Sole {
		g.replies = append(g.replies, d.Payload) // want `stored in a struct field`
	}
}

// and what it keeps it never writes to: on memnet it is in the other
// members' records too.
func (g *gatewayRecord) stamp(d totem.Delivery) {
	kept := retain(d.Payload, d.Sole)
	kept[0] |= 0x80 // want `write into delivery-arena memory`
	g.replies = append(g.replies, kept)
}

// The recovery log keeps a delivery's bytes by reference, a part of a
// pack as much as a datagram of its own — it is cut at every checkpoint —
// in the one function declared to keep them...
type recoveryLog struct {
	entries [][]byte
}

// gwlint:arena-keep
func (l *recoveryLog) log(raw []byte) {
	l.entries = append(l.entries, raw)
}

func (l *recoveryLog) logged(d totem.Delivery) {
	l.log(d.Payload)
}

// ...and nowhere else,
func (l *recoveryLog) loggedInline(d totem.Delivery) {
	l.entries = append(l.entries, d.Payload) // want `stored in a struct field`
}

// and what it keeps it never writes to either.
//
// gwlint:arena-keep
func (l *recoveryLog) logStamped(raw []byte) {
	raw[0] |= 0x80 // want `write into delivery-arena memory`
	l.entries = append(l.entries, raw)
}
