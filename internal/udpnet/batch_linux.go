//go:build linux && (amd64 || arm64)

package udpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"runtime"
	"syscall"
	"unsafe"
)

// The batched datapath speaks sendmmsg/recvmmsg directly through the
// raw syscall interface so the module stays stdlib-only: the frozen
// syscall package predates sendmmsg on some architectures (amd64 lists
// SYS_RECVMMSG but not SYS_SENDMMSG), so the numbers live in the
// per-arch sysnum files next to this one.

// sendmmsgChunk bounds the mmsghdr vector length of one sendmmsg call.
const sendmmsgChunk = 64

// mmsghdr mirrors struct mmsghdr: a msghdr plus the kernel-filled
// datagram length. Go pads the struct to the platform msghdr alignment,
// matching the C layout on the architectures this file builds for.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
}

// batchState is the platform half of an endpoint: the raw connection,
// the resolved peer sockaddrs, and the preallocated syscall vectors
// owned by the send and receive loops.
type batchState struct {
	e  *Endpoint
	rc syscall.RawConn

	// Peer sockaddr table, parallel to Endpoint.peers.
	sas    []syscall.RawSockaddrAny
	salens []uint32

	// Send-loop scratch (sendLoop goroutine only): one iovec pair
	// [header, payload] per gathered frame, one mmsghdr per
	// (frame, peer) datagram. send is the raw-conn write callback,
	// built once; it transmits ents[off:], and off carries its progress
	// across the re-entries that follow a wait for writability.
	iovs []syscall.Iovec
	ents []mmsghdr
	off  int
	send func(fd uintptr) bool

	// Receive-loop scratch (readLoop goroutine only): pooled
	// maxDatagram buffers, one per recvmmsg slot, the first allocated
	// when the socket is first readable and more as bursts call for them
	// (readLoop). recv is the raw-conn read callback, built once; it
	// leaves the datagram count in rn, or the call's error in rerr, and
	// notes in waited whether it had to wait for readability.
	rbufs  [][]byte
	riovs  []syscall.Iovec
	rents  []mmsghdr
	rn     int
	rerr   syscall.Errno
	waited bool
	recv   func(fd uintptr) bool
}

// useBatchSyscalls resolves the raw connection and peer sockaddrs,
// preallocates the syscall vectors and installs the sendmmsg/recvmmsg
// transmit and read loop on the endpoint.
func (e *Endpoint) useBatchSyscalls() (bool, error) {
	rc, err := e.conn.SyscallConn()
	if err != nil {
		return false, fmt.Errorf("udpnet: raw conn: %w", err)
	}
	local := e.conn.LocalAddr().(*net.UDPAddr)
	v6 := local.IP.To4() == nil
	bs := &batchState{
		e:      e,
		rc:     rc,
		sas:    make([]syscall.RawSockaddrAny, len(e.peers)),
		salens: make([]uint32, len(e.peers)),
		iovs:   make([]syscall.Iovec, 0, 2*sendGather),
		ents:   make([]mmsghdr, 0, sendGather*len(e.peers)),
	}
	for i, p := range e.peers {
		n, err := putSockaddr(&bs.sas[i], p.addr, v6)
		if err != nil {
			return false, fmt.Errorf("udpnet: peer %q: %w", p.id, err)
		}
		bs.salens[i] = n
	}
	bs.send, bs.recv = bs.sendmmsg, bs.recvmmsg
	e.transmit, e.readLoop = bs.sendFrames, bs.readLoop
	return true, nil
}

// putSockaddr encodes a UDP address into a raw sockaddr matching the
// local socket's family (v4 peers become v4-mapped on a v6 socket) and
// returns the sockaddr length.
func putSockaddr(sa *syscall.RawSockaddrAny, a *net.UDPAddr, v6 bool) (uint32, error) {
	if ip4 := a.IP.To4(); ip4 != nil && !v6 {
		p := (*syscall.RawSockaddrInet4)(unsafe.Pointer(sa))
		p.Family = syscall.AF_INET
		binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&p.Port))[:], uint16(a.Port))
		copy(p.Addr[:], ip4)
		return syscall.SizeofSockaddrInet4, nil
	}
	ip16 := a.IP.To16()
	if ip16 == nil {
		return 0, fmt.Errorf("unsupported address %v", a)
	}
	p := (*syscall.RawSockaddrInet6)(unsafe.Pointer(sa))
	p.Family = syscall.AF_INET6
	binary.BigEndian.PutUint16((*[2]byte)(unsafe.Pointer(&p.Port))[:], uint16(a.Port))
	copy(p.Addr[:], ip16)
	if a.Zone != "" {
		ifi, err := net.InterfaceByName(a.Zone)
		if err != nil {
			return 0, fmt.Errorf("zone %q: %w", a.Zone, err)
		}
		p.Scope_id = uint32(ifi.Index)
	}
	return syscall.SizeofSockaddrInet6, nil
}

// sendFrames transmits every gathered frame to every peer, packing up
// to sendmmsgChunk datagrams into each sendmmsg call. The shared header
// and each payload travel as separate iovecs, so payload bytes are
// never copied. Runs on the sendLoop goroutine.
func (bs *batchState) sendFrames(frames [][]byte) {
	e := bs.e
	iovs := bs.iovs[:0]
	for _, f := range frames {
		hi := syscall.Iovec{Base: &e.hdr[0]}
		hi.SetLen(len(e.hdr))
		pi := syscall.Iovec{}
		if len(f) > 0 {
			pi.Base = &f[0]
			pi.SetLen(len(f))
		}
		iovs = append(iovs, hi, pi)
	}
	ents := bs.ents[:0]
	for i := range frames {
		for pi := range e.peers {
			var m mmsghdr
			m.hdr.Name = (*byte)(unsafe.Pointer(&bs.sas[pi]))
			m.hdr.Namelen = bs.salens[pi]
			m.hdr.Iov = &iovs[2*i]
			m.hdr.Iovlen = 2
			ents = append(ents, m)
		}
	}
	if len(ents) == 0 {
		return
	}
	bs.ents, bs.off = ents, 0
	_ = bs.rc.Write(bs.send) // socket closed mid-flush: remaining datagrams are lost, as on the wire
	runtime.KeepAlive(frames)
	runtime.KeepAlive(iovs)
}

// sendmmsg is the raw-conn write callback of sendFrames: it transmits
// bs.ents[bs.off:] and reports false to wait for writability.
func (bs *batchState) sendmmsg(fd uintptr) bool {
	e, ents := bs.e, bs.ents
	for bs.off < len(ents) {
		n := min(len(ents)-bs.off, sendmmsgChunk)
		r, _, errno := syscall.Syscall6(sysSENDMMSG, fd,
			uintptr(unsafe.Pointer(&ents[bs.off])), uintptr(n), 0, 0, 0)
		switch errno {
		case 0:
			e.txDatagrams.Add(uint64(r))
			bs.off += int(r)
			if r == 0 {
				bs.off++ // cannot happen, but never spin
			}
		case syscall.EINTR:
			// retry
		case syscall.EAGAIN:
			return false
		default:
			// Per-datagram refusal (e.g. a bounced ICMP error
			// surfacing on the error queue): count it, skip one
			// datagram, keep the rest of the batch moving.
			e.txErrors.Add(1)
			bs.off++
		}
	}
	return true
}

// recvmmsg is the raw-conn read callback of readLoop: it fills the
// pooled buffers and leaves the count in bs.rn, or an error in bs.rerr,
// and reports false, noting bs.waited, to wait for readability.
func (bs *batchState) recvmmsg(fd uintptr) bool {
	for {
		r, _, errno := syscall.Syscall6(sysRECVMMSG, fd,
			uintptr(unsafe.Pointer(&bs.rents[0])), uintptr(len(bs.rents)), 0, 0, 0)
		switch errno {
		case 0:
			bs.rn = int(r)
			return true
		case syscall.EINTR:
			// retry
		case syscall.EAGAIN:
			bs.waited = true
			return false
		default:
			bs.rerr = errno
			return true
		}
	}
}

// growRing makes the receive ring slots long: the buffers it has, more
// maxDatagram buffers behind them, and the vectors recvmmsg fills them
// through.
func (bs *batchState) growRing(slots int) {
	for len(bs.rbufs) < slots {
		bs.rbufs = append(bs.rbufs, make([]byte, maxDatagram))
	}
	bs.riovs = make([]syscall.Iovec, slots)
	bs.rents = make([]mmsghdr, slots)
	for i := range bs.rbufs {
		bs.riovs[i].Base = &bs.rbufs[i][0]
		bs.riovs[i].SetLen(maxDatagram)
		bs.rents[i].hdr.Iov = &bs.riovs[i]
		bs.rents[i].hdr.Iovlen = 1
	}
	bs.e.rxRingSlots.Store(int64(slots))
}

// awaitFirst is the raw-conn read callback the read loop starts with: it
// peeks for a datagram without taking it, and reports false to wait for
// readability until there is one.
func awaitFirst(fd uintptr) bool {
	var b byte
	for {
		_, _, errno := syscall.Syscall6(syscall.SYS_RECVFROM, fd,
			uintptr(unsafe.Pointer(&b)), 1, syscall.MSG_PEEK|syscall.MSG_DONTWAIT, 0, 0)
		if errno != syscall.EINTR {
			return errno != syscall.EAGAIN
		}
	}
}

// readLoop waits until the socket first has something to receive — an
// endpoint closed before then, such as a port probe, allocates no receive
// ring — then drains it with recvmmsg into the pooled buffers, and
// validates and queues each datagram. The ring starts at one slot and
// doubles, up to recvBatch, whenever a call that filled every slot is
// followed by one that found more without waiting: the socket held more
// than the ring takes at once. It never shrinks.
func (bs *batchState) readLoop() {
	e := bs.e
	if err := bs.rc.Read(awaitFirst); err != nil {
		return // socket closed
	}
	bs.growRing(1)
	full := false // the last call filled every slot
	for {
		bs.rn, bs.rerr, bs.waited = 0, 0, false
		if err := bs.rc.Read(bs.recv); err != nil {
			return // socket closed
		}
		if bs.rerr != 0 {
			if e.closed.Load() {
				return
			}
			continue // transient error-queue hit; keep receiving
		}
		n := bs.rn
		if n > 0 {
			e.rxBatches.Add(1)
		}
		for i := 0; i < n; i++ {
			m := &bs.rents[i]
			e.deliverFrame(bs.rbufs[i][:m.n], m.hdr.Flags&syscall.MSG_TRUNC != 0)
			m.hdr.Flags = 0
		}
		if full && !bs.waited && len(bs.rents) < recvBatch {
			bs.growRing(2 * len(bs.rents))
		}
		full = n == len(bs.rents)
	}
}
