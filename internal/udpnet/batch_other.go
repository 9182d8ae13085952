//go:build !(linux && (amd64 || arm64))

package udpnet

// Platforms without sendmmsg/recvmmsg (or whose syscall numbers this
// package does not pin) keep the portable per-datagram transmit and
// read loop of udpnet.go.
func (e *Endpoint) useBatchSyscalls() (bool, error) { return false, nil }
