//go:build linux && (amd64 || arm64)

package udpnet

import (
	"syscall"
	"testing"
	"unsafe"
)

// TestMmsghdrLayout pins the struct mmsghdr ABI the raw syscalls depend
// on: the kernel expects a 64-byte record (msghdr + msg_len padded to
// msghdr alignment) on both architectures this file builds for.
func TestMmsghdrLayout(t *testing.T) {
	if got := unsafe.Sizeof(mmsghdr{}); got != 64 {
		t.Fatalf("sizeof(mmsghdr) = %d, want 64", got)
	}
	if got := unsafe.Offsetof(mmsghdr{}.n); got != unsafe.Sizeof(syscall.Msghdr{}) {
		t.Fatalf("offsetof(mmsghdr.n) = %d, want %d", got, unsafe.Sizeof(syscall.Msghdr{}))
	}
}

// TestBatchedEnabledOnLinux pins that the default configuration actually
// takes the sendmmsg/recvmmsg path on supported platforms, and that the
// portable seam the other tests use really selects the per-datagram one.
func TestBatchedEnabledOnLinux(t *testing.T) {
	reg := freeRegistry(t, "n")
	e, err := Listen("n", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if !e.Batched() {
		t.Fatal("default endpoint not batched on linux")
	}
	d, err := listen("n", Registry{"n": "127.0.0.1:0"}, Config{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = d.Close() }()
	if d.Batched() {
		t.Fatal("portable endpoint still batched")
	}
}
