// Package rpc provides the message transport used by Petal, the lock
// service, and the Frangipani servers. It offers two primitives on a
// common Endpoint type:
//
//   - Cast: a one-way asynchronous message (the lock service's
//     request/grant/revoke/release messages are casts, per §6 of the
//     paper, which notes that clerks and lock servers communicate "via
//     asynchronous messages rather than RPC").
//   - Call: a request/response exchange with a timeout, used for the
//     Petal data path.
//
// The default carrier is the in-memory simulated network
// (sim.Network), which charges link bandwidth and latency; a TCP
// carrier with the same interface lives in tcp.go for the daemon
// binaries.
package rpc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/sim"
)

// Errors returned by calls.
var (
	ErrTimeout = errors.New("rpc: call timed out")
	ErrClosed  = errors.New("rpc: endpoint closed")
)

// Envelope frames every message on the wire. Trace and Span carry
// the trace context of the span the sender passed (obs), so one
// operation can be followed across layers and machines; both are 0
// when the sender was not inside a traced operation. Principal carries
// that span's client/tenant tag the same way, so server-side work is
// charged to the client it serves. It is exported so the wire codec's
// tests and benchmarks can drive the exact carrier format.
type Envelope struct {
	ID        uint64 // correlation id; 0 for casts
	IsReply   bool
	Trace     uint64
	Span      uint64
	Principal string
	Body      any
}

// HandlerFunc serves an incoming message. sp is the sender's context
// rebuilt by obs.Remote: it parents the handler's spans and names the
// principal to charge; nil when the sender passed none. For messages
// sent with Call, the returned value (if non-nil) is sent back as the
// reply. For casts the return value is ignored. Handlers run on
// dedicated goroutines; they may block.
type HandlerFunc func(sp *obs.Span, from string, body any) (reply any)

// Carrier abstracts the underlying datagram network so Endpoint works
// over both sim.Network and TCP.
type Carrier interface {
	// Send transmits body (already enveloped) to the named host,
	// charging the modelled wire size.
	Send(from, to string, body any, size int) error
	// Register installs the receive function for a host.
	Register(name string, recv func(from string, body any, size int))
	// Unregister removes the host.
	Unregister(name string)
}

// SimCarrier adapts sim.Network to the Carrier interface.
type SimCarrier struct{ Net *sim.Network }

// Send implements Carrier.
func (c SimCarrier) Send(from, to string, body any, size int) error {
	return c.Net.Send(from, to, body, size)
}

// Register implements Carrier.
func (c SimCarrier) Register(name string, recv func(from string, body any, size int)) {
	c.Net.Register(name, func(m sim.Message) { recv(m.From, m.Payload, m.Size) })
}

// Unregister implements Carrier.
func (c SimCarrier) Unregister(name string) { c.Net.Unregister(name) }

// Endpoint is one named party on the network. It dispatches incoming
// requests to its handler and routes replies back to waiting callers.
type Endpoint struct {
	addr    string
	carrier Carrier
	clock   *sim.Clock
	handler atomic.Value // HandlerFunc

	mu      sync.Mutex
	pending map[uint64]chan any
	nextID  uint64
	closed  bool
}

// NewEndpoint registers addr on the carrier and returns the endpoint.
// The handler may be nil initially and installed later with Handle.
func NewEndpoint(addr string, carrier Carrier, clock *sim.Clock, h HandlerFunc) *Endpoint {
	e := &Endpoint{
		addr:    addr,
		carrier: carrier,
		clock:   clock,
		pending: make(map[uint64]chan any),
	}
	if h != nil {
		e.handler.Store(h)
	}
	carrier.Register(addr, e.receive)
	return e
}

// Addr returns this endpoint's network name.
func (e *Endpoint) Addr() string { return e.addr }

// Handle replaces the request handler.
func (e *Endpoint) Handle(h HandlerFunc) { e.handler.Store(h) }

func (e *Endpoint) receive(from string, body any, size int) {
	env, ok := body.(Envelope)
	if !ok {
		return
	}
	if env.IsReply {
		e.mu.Lock()
		ch := e.pending[env.ID]
		delete(e.pending, env.ID)
		e.mu.Unlock()
		if ch != nil {
			ch <- env.Body
		} else {
			// Caller gave up (timeout): return any pooled payload
			// buffer the decoded reply still holds.
			Release(env.Body)
		}
		return
	}
	hv := e.handler.Load()
	if hv == nil {
		Release(env.Body)
		return
	}
	h := hv.(HandlerFunc)
	sp := obs.Remote(env.Trace, env.Span, env.Principal)
	if env.ID == 0 {
		// Casts run synchronously on the delivery goroutine so that
		// per-pair FIFO network ordering extends to handler execution;
		// the lock protocol depends on a release sent before a request
		// being processed before it.
		h(sp, from, env.Body)
		return
	}
	go func() {
		if reply := h(sp, from, env.Body); reply != nil {
			_ = e.carrier.Send(e.addr, from, Envelope{ID: env.ID, IsReply: true, Body: reply}, sizeOf(reply))
		}
	}()
}

// envelope frames body with sp's trace context and principal.
func envelope(sp *obs.Span, id uint64, body any) Envelope {
	env := Envelope{ID: id, Body: body}
	if sp != nil {
		env.Trace, env.Span, env.Principal = sp.TraceID, sp.ID, sp.Principal
	}
	return env
}

// Cast sends a one-way message on behalf of sp's operation (nil for
// none). Delivery is best-effort: an error is returned only for
// immediately-detectable failures (unknown or unreachable
// destination).
func (e *Endpoint) Cast(sp *obs.Span, to string, body any) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return e.carrier.Send(e.addr, to, envelope(sp, 0, body), sizeOf(body))
}

// Call sends a request on behalf of sp's operation (nil for none) and
// waits up to timeout (simulated time) for the reply.
func (e *Endpoint) Call(sp *obs.Span, to string, req any, timeout time.Duration) (any, error) {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	e.nextID++
	id := e.nextID
	ch := make(chan any, 1)
	e.pending[id] = ch
	e.mu.Unlock()

	err := e.carrier.Send(e.addr, to, envelope(sp, id, req), sizeOf(req))
	if err != nil {
		e.mu.Lock()
		delete(e.pending, id)
		e.mu.Unlock()
		return nil, err
	}
	select {
	case reply := <-ch:
		return reply, nil
	case <-e.clock.After(timeout):
		e.mu.Lock()
		delete(e.pending, id)
		e.mu.Unlock()
		// The reply may have been buffered in the same instant the
		// timer fired; recycle its pooled payload buffer if so.
		select {
		case reply := <-ch:
			Release(reply)
		default:
		}
		return nil, fmt.Errorf("%w: %s -> %s", ErrTimeout, e.addr, to)
	}
}

// Close unregisters the endpoint; outstanding calls time out.
func (e *Endpoint) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.carrier.Unregister(e.addr)
}

// Sizer lets message types report their modelled wire size so the
// simulated network charges realistic bandwidth. Types that do not
// implement it are charged a small fixed header size.
type Sizer interface{ WireSize() int }

// DefaultMsgSize is the modelled size of a message that does not
// implement Sizer: a typical small control message.
const DefaultMsgSize = 128

func sizeOf(body any) int {
	if s, ok := body.(Sizer); ok {
		return s.WireSize() + DefaultMsgSize
	}
	return DefaultMsgSize
}
