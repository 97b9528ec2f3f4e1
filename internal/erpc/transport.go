package erpc

import (
	"treaty/internal/enclave"
	"treaty/internal/simnet"
)

// Transport carries wire bytes between endpoints. Reliability is not
// required — the protocol layers tolerate loss via retries or abort.
type Transport interface {
	// Send transmits data to the named address, paying its message cost.
	Send(to string, data []byte) error
	// Recv returns the channel received packets arrive on; it closes when
	// the transport closes. The endpoint's event loop is its only reader
	// (Endpoint.receive), blocking on it when idle.
	Recv() <-chan simnet.Packet
	// Charge pays the cost of moving one n-byte message across the
	// transport's boundary. The event loop calls it once per packet it
	// takes off Recv; Send pays its own.
	Charge(n int)
	// LocalAddr returns this transport's address.
	LocalAddr() string
	// Close releases the transport.
	Close() error
}

// TransportKind is a shim for the frozen benchmark, which passes
// KindDPDK to NewSimTransport: there is one transport and one cost
// profile.
type TransportKind int

// KindDPDK models kernel-bypass userspace I/O: polling, zero syscalls on
// the data path (eRPC over DPDK, §VII-A).
const KindDPDK TransportKind = 1

// SimTransport runs over a simnet endpoint.
type SimTransport struct {
	ep *simnet.Endpoint
	rt *enclave.Runtime
}

// NewSimTransport wraps a simnet endpoint. rt is the runtime every
// message is charged to — the transport holds it, the endpoint has none
// of its own; nil means native (no charge).
func NewSimTransport(ep *simnet.Endpoint, rt *enclave.Runtime, _ TransportKind) *SimTransport {
	return &SimTransport{ep: ep, rt: rt}
}

var _ Transport = (*SimTransport)(nil)

// Send implements Transport.
func (t *SimTransport) Send(to string, data []byte) error {
	t.Charge(len(data))
	return t.ep.Send(to, data)
}

// Recv implements Transport: the fabric's inbox itself, no goroutine in
// between.
func (t *SimTransport) Recv() <-chan simnet.Packet { return t.ep.RecvCh() }

// Charge implements Transport: in enclave mode a message pays the
// boundary cost (buffers live in host memory and are copied across,
// §VII-D); kernel-bypass I/O issues no syscall.
func (t *SimTransport) Charge(n int) {
	if t.rt != nil {
		t.rt.MessageCost(n)
	}
}

// LocalAddr implements Transport.
func (t *SimTransport) LocalAddr() string { return t.ep.Addr() }

// Close implements Transport.
func (t *SimTransport) Close() error {
	t.ep.Close()
	return nil
}
