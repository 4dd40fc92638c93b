package rpc

import (
	"errors"
	"sync"
	"testing"
	"time"

	"frangipani/internal/obs"
	"frangipani/internal/sim"
)

type echoReq struct{ N int }
type echoResp struct{ N int }

type bigMsg struct{ bytes int }

func (b bigMsg) WireSize() int { return b.bytes }

func newPair(t *testing.T) (*sim.World, *Endpoint, *Endpoint) {
	t.Helper()
	w := sim.NewWorld(2000, 7)
	w.AddMachine("a", sim.DefaultLinkParams())
	w.AddMachine("b", sim.DefaultLinkParams())
	carrier := SimCarrier{Net: w.Net}
	a := NewEndpoint("a", carrier, w.Clock, nil)
	b := NewEndpoint("b", carrier, w.Clock, func(_ *obs.Span, from string, body any) any {
		if r, ok := body.(echoReq); ok {
			return echoResp{N: r.N + 1}
		}
		return nil
	})
	t.Cleanup(func() { a.Close(); b.Close() })
	return w, a, b
}

func TestCallRoundTrip(t *testing.T) {
	_, a, _ := newPair(t)
	got, err := a.Call(nil, "b", echoReq{N: 41}, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got.(echoResp).N != 42 {
		t.Fatalf("got %v, want 42", got)
	}
}

func TestConcurrentCallsCorrelate(t *testing.T) {
	_, a, _ := newPair(t)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			got, err := a.Call(nil, "b", echoReq{N: n}, 10*time.Second)
			if err != nil {
				t.Errorf("call %d: %v", n, err)
				return
			}
			if got.(echoResp).N != n+1 {
				t.Errorf("call %d got %v", n, got)
			}
		}(i)
	}
	wg.Wait()
}

func TestCallTimeout(t *testing.T) {
	w, a, b := newPair(t)
	b.Handle(func(_ *obs.Span, from string, body any) any {
		w.Clock.Sleep(time.Hour) // never answer in time
		return echoResp{}
	})
	_, err := a.Call(nil, "b", echoReq{}, 200*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestCallUnreachable(t *testing.T) {
	w, a, _ := newPair(t)
	w.Net.Isolate("b")
	_, err := a.Call(nil, "b", echoReq{}, time.Second)
	if !errors.Is(err, sim.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}

func TestCast(t *testing.T) {
	_, a, b := newPair(t)
	got := make(chan any, 1)
	b.Handle(func(_ *obs.Span, from string, body any) any {
		got <- body
		return nil
	})
	if err := a.Cast(nil, "b", "ping"); err != nil {
		t.Fatal(err)
	}
	select {
	case v := <-got:
		if v != "ping" {
			t.Fatalf("got %v", v)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cast not delivered")
	}
}

// TestPrincipalPropagatesSim checks the principal of the sender's
// span reaches the handler's span for both Call (fresh goroutine) and
// Cast (delivery goroutine), and is absent when the sender passed no
// span.
func TestPrincipalPropagatesSim(t *testing.T) {
	_, a, b := newPair(t)
	seen := make(chan string, 1)
	b.Handle(func(sp *obs.Span, from string, body any) any {
		seen <- sp.Who()
		if _, ok := body.(echoReq); ok {
			return echoResp{}
		}
		return nil
	})
	if _, err := a.Call(&obs.Span{Principal: "tenant-a"}, "b", echoReq{N: 1}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != "tenant-a" {
		t.Fatalf("call handler saw principal %q, want tenant-a", got)
	}
	if err := a.Cast(&obs.Span{Principal: "tenant-b"}, "b", "ping"); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-seen:
		if got != "tenant-b" {
			t.Fatalf("cast handler saw principal %q, want tenant-b", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cast not delivered")
	}
	// No span: the handler must see no principal.
	if _, err := a.Call(nil, "b", echoReq{N: 2}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got != "" {
		t.Fatalf("unbound call leaked principal %q", got)
	}
	if n := obs.BoundPrincipals(); n != 0 {
		t.Fatalf("%d principal bindings leaked", n)
	}
}

func TestClosedEndpoint(t *testing.T) {
	_, a, _ := newPair(t)
	a.Close()
	if err := a.Cast(nil, "b", "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("cast after close: %v", err)
	}
	if _, err := a.Call(nil, "b", echoReq{}, time.Second); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after close: %v", err)
	}
}

func TestReplyToClosedCallerDoesNotBlock(t *testing.T) {
	w, a, b := newPair(t)
	release := make(chan struct{})
	b.Handle(func(_ *obs.Span, from string, body any) any {
		<-release
		return echoResp{N: 1}
	})
	done := make(chan struct{})
	go func() {
		_, _ = a.Call(nil, "b", echoReq{}, 50*time.Millisecond)
		close(done)
	}()
	<-done // call timed out
	close(release)
	// The late reply must be dropped without blocking the network.
	w.Clock.Sleep(time.Second)
}

func TestSizerChargesBandwidth(t *testing.T) {
	w := sim.NewWorld(200, 7)
	p := sim.LinkParams{Latency: 0, Bandwidth: 1 << 20}
	w.AddMachine("a", p)
	w.AddMachine("b", p)
	carrier := SimCarrier{Net: w.Net}
	a := NewEndpoint("a", carrier, w.Clock, nil)
	got := make(chan struct{}, 1)
	NewEndpoint("b", carrier, w.Clock, func(*obs.Span, string, any) any {
		got <- struct{}{}
		return nil
	})
	start := w.Clock.Now()
	if err := a.Cast(nil, "b", bigMsg{bytes: 512 << 10}); err != nil { // 512 KB at 1 MB/s
		t.Fatal(err)
	}
	<-got
	elapsed := time.Duration(w.Clock.Now() - start)
	if elapsed < 400*time.Millisecond {
		t.Fatalf("512KB over 1MB/s took %v simulated, want >= ~0.5s", elapsed)
	}
}
