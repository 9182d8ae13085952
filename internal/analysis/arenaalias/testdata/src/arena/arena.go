// Package arena exercises the arenaalias analyzer on self-contained
// types brought into the arena/carrier sets with gwlint directives,
// plus the //lint:allow escape hatch.
package arena

// view values alias the delivery arena wherever they appear, like
// replication.HeaderView.
//
// gwlint:arena
type view struct {
	buf []byte
	id  uint64
}

// parcel may carry borrowed memory across a channel hop, like
// replication.task; its consumer must copy or decode promptly.
//
// gwlint:arena-carrier
type parcel struct {
	raw []byte
}

type keeper struct {
	held []byte
}

var sink []byte

func use([]byte) {}

// Locals and call arguments are fine: the borrow stays inside the
// callback, and callees are analyzed on their own.
func ok(v view) {
	b := v.buf
	use(b)
	use(v.buf)
}

// The sanctioned copy idiom comes out clean without special-casing:
// append copies the bytes.
func okCopy(v view) []byte {
	return append([]byte(nil), v.buf...)
}

// Scalar fields are plain copies, not borrows.
func okScalar(v view) uint64 {
	return v.id
}

func storePackageVar(v view) {
	sink = v.buf // want `stored in a package variable`
}

func storeField(v view, k *keeper) {
	k.held = v.buf // want `stored in a struct field`
}

func storeElem(v view, m map[string][]byte) {
	m["k"] = v.buf // want `stored in a map or slice element`
}

func storeDeref(v view, p *[]byte) {
	*p = v.buf // want `stored in a dereferenced pointer`
}

func send(v view, ch chan []byte) {
	ch <- v.buf // want `sent on a channel`
}

// Sending a declared carrier is the sanctioned handoff.
func sendCarrier(v view, ch chan parcel) {
	ch <- parcel{raw: v.buf}
}

// The consumer of a carrier holds the borrow again: a received parcel
// is tainted by provenance, and with no declared field set every
// reference-carrying field borrows.
func receive(ch chan parcel) {
	p := <-ch
	sink = p.raw // want `stored in a package variable`
}

// A carrier rebuilt from copies is clean — the detach idiom.
func detach(p parcel) parcel {
	return parcel{raw: append([]byte(nil), p.raw...)}
}

func spawnArg(v view) {
	go use(v.buf) // want `passed to a spawned goroutine`
}

func spawnCapture(v view) {
	b := v.buf
	go func() {
		use(b) // want `goroutine captures delivery-arena memory`
	}()
}

func leak(v view) []byte {
	return v.buf // want `returning delivery-arena memory as a plain value`
}

// Returning the arena type itself is explicit: the caller sees the
// borrow in the signature.
func handoff(v view) view {
	return v
}

// The escape hatch: a justified allow suppresses the finding on its own
// line...
func pinned(v view) {
	sink = v.buf //lint:allow arenaalias the test pins one payload deliberately
}

// ...and a directive standing alone covers the line below.
func pinnedBelow(v view) {
	//lint:allow arenaalias standalone directive covers the next line
	sink = v.buf
}

// Borrowed is read-only: the bytes behind a view belong to every
// payload packed into the datagram and, on memnet, to every ring member.
// Each form has its sanctioned shape and its mutation.

// Element writes go to a copy...
func okWriteCopy(v view) []byte {
	own := append([]byte(nil), v.buf...)
	own[0] = 1
	own[1] ^= 0xff
	own[2]++
	return own
}

// ...never into the borrow, directly or through a local or a sub-slice.
func writeElem(v view) {
	v.buf[0] = 1 // want `write into delivery-arena memory`
}

func writeElemOp(v view) {
	b := v.buf
	b[1] ^= 0xff // want `write into delivery-arena memory`
	b[2:][0]++   // want `write into delivery-arena memory`
}

// A borrow may be the source of a copy...
func okCopyFrom(v view, dst []byte) int {
	return copy(dst, v.buf)
}

// ...not its destination.
func copyOnto(v view, src []byte) {
	copy(v.buf, src) // want `copy onto delivery-arena memory`
}

// Appending onto a borrow is fine once its capacity is visibly clipped:
// the append has to reallocate and the borrow is only read.
func okAppendClipped(v view, tail []byte) []byte {
	b := v.buf
	out := append(b[:len(b):len(b)], tail...)
	return append([]byte(nil), out...)
}

// Unclipped, it writes into whatever follows the borrow in the datagram.
func appendOnto(v view, tail []byte) int {
	grown := append(v.buf, tail...) // want `append to delivery-arena memory`
	return len(grown)
}

// A carrier's queue of parcels is the carrier's own index over the
// datagram, not the datagram: growing it is the escape pass's business
// (a carrier field store is the sanctioned handoff), not a write.
//
// gwlint:arena-carrier
type queue struct {
	items []parcel
}

func (q *queue) push(p parcel) {
	q.items = append(q.items, p)
}

// A carrier's ring stores into its own array by index, like
// totem.eventQueue: the slot is the carrier's, as a field is.
//
// gwlint:arena-carrier
type ring struct {
	slots []view
	head  int
}

func (r *ring) put(v view) {
	r.slots[r.head] = v
}

func (r *ring) drop() {
	r.slots[r.head] = view{}
}

// The same store into the slice of a type that is not a carrier is an
// escape.
type shelf struct {
	slots []view
}

func (s *shelf) put(i int, v view) {
	s.slots[i] = v // want `stored in a map or slice element`
}

// The one sanctioned retention (DESIGN.md section 7): a datagram that
// carries one message may be kept as it is, and the function that decides
// — window or copy — is the only non-copy whose result may be stored.
//
// gwlint:arena-retain
func retain(b []byte, sole bool) []byte {
	if sole {
		return b
	}
	return append([]byte(nil), b...)
}

// pack is a datagram that carries several payloads, like a packed
// regularMsg: sole says whether it carries just the one.
//
// gwlint:arena
type pack struct {
	parts [][]byte
	sole  bool
}

func okRetain(p pack, k *keeper) {
	k.held = retain(p.parts[0], p.sole)
}

// Without it a window stays a borrow, whatever the code around it knows:
// a part of a pack kept by reference pins the whole pack...
func keepPart(p pack, k *keeper) {
	k.held = p.parts[1] // want `stored in a struct field`
}

// ...and so does the payload of a datagram that travelled alone, kept on
// the caller's own say-so.
func keepSoleUnasked(p pack, k *keeper) {
	if p.sole {
		k.held = p.parts[0] // want `stored in a struct field`
	}
}

// A kept datagram is still the datagram every other member holds.
func writeKept(p pack, k *keeper) {
	kept := retain(p.parts[0], p.sole)
	kept[0] = 1 // want `write into delivery-arena memory`
	k.held = kept
}
