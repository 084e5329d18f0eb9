package net

import (
	"errors"
	gonet "net"
	"testing"
	"time"
)

// connPair returns two framed conns over a real loopback TCP connection.
func connPair(t *testing.T, cfg Config) (*Conn, *Conn) {
	t.Helper()
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type acc struct {
		c   gonet.Conn
		err error
	}
	ch := make(chan acc, 1)
	go func() {
		c, err := ln.Accept()
		ch <- acc{c, err}
	}()
	cl, err := gonet.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	a := <-ch
	if a.err != nil {
		t.Fatal(a.err)
	}
	c1, c2 := NewConn(cl, cfg), NewConn(a.c, cfg)
	t.Cleanup(func() { c1.Close(); c2.Close() })
	return c1, c2
}

func TestFrameRoundTrip(t *testing.T) {
	c1, c2 := connPair(t, Config{})
	payload := []byte("tree grafting")
	if err := c1.Send(7, payload); err != nil {
		t.Fatal(err)
	}
	typ, got, err := c2.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if typ != 7 || string(got) != string(payload) {
		t.Fatalf("got type %d payload %q", typ, got)
	}
	// Empty payloads are legal frames (heartbeats).
	if err := c2.Send(9, nil); err != nil {
		t.Fatal(err)
	}
	typ, got, err = c1.Recv()
	if err != nil || typ != 9 || len(got) != 0 {
		t.Fatalf("empty frame: type %d payload %q err %v", typ, got, err)
	}
}

func TestOversizedFrameRejectedTyped(t *testing.T) {
	// The receiver caps frames below what the sender emits: the length
	// header alone must reject the frame before any allocation.
	c1, c2 := connPair(t, Config{})
	c2.cfg.Limits = Limits{MaxFrame: 16}
	if err := c1.Send(1, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	_, _, err := c2.Recv()
	var fe *FrameError
	if !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FrameError", err)
	}
	if fe.Size != 64 {
		t.Fatalf("FrameError.Size = %d, want 64", fe.Size)
	}
}

func TestMalformedHeaderIsError(t *testing.T) {
	// A peer that writes garbage shorter than a header yields an I/O error,
	// not a hang or panic.
	ln, err := gonet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = c.Write([]byte{0x01, 0x00}) //lint:ignore err-checked test peer writes a deliberately truncated header
		c.Close()
	}()
	cl, err := gonet.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c := NewConn(cl, Config{})
	if _, _, err := c.Recv(); err == nil {
		t.Fatal("truncated header did not error")
	}
	<-done
}

func TestReservedTypeRejectedOnSend(t *testing.T) {
	c1, _ := connPair(t, Config{})
	var fe *FrameError
	if err := c1.Send(typeAck, nil); !errors.As(err, &fe) {
		t.Fatalf("reserved-type send: got %v, want *FrameError", err)
	}
}

func TestReadDeadlineSurfacesTransient(t *testing.T) {
	c1, _ := connPair(t, Config{ReadTimeout: 30 * time.Millisecond})
	_, _, err := c1.Recv()
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("got %v, want *TransportError", err)
	}
	if !te.Timeout || !te.Transient() {
		t.Fatalf("deadline expiry should be a transient timeout, got %+v", te)
	}
}

// TestSetTimeoutsDisarmsReadDeadline pins that turning the read timeout off
// also clears the deadline the last Recv armed: Recv only arms deadlines
// while a timeout is configured, so a stale one would fire on the first
// read after it lapses. Each frame is in the socket buffer before its Recv,
// so only the stale deadline can make the second Recv fail.
func TestSetTimeoutsDisarmsReadDeadline(t *testing.T) {
	const timeout = 50 * time.Millisecond
	c, peer := connPair(t, Config{ReadTimeout: timeout})
	exchange := func(stage string) {
		t.Helper()
		if err := peer.Send(7, []byte("x")); err != nil {
			t.Fatalf("peer Send %s: %v", stage, err)
		}
		if _, _, err := c.Recv(); err != nil {
			t.Fatalf("Recv %s: %v", stage, err)
		}
	}
	exchange("under the read timeout")
	c.SetTimeouts(0, 0)
	time.Sleep(2 * timeout)
	exchange("after the timeout was disabled")
}

func TestBackoffJitteredAndCapped(t *testing.T) {
	b := &Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Seed: 1}
	want := []time.Duration{10, 20, 40, 80, 80, 80} // nominal (pre-jitter) ladder, ms
	for i, nominal := range want {
		nominal *= time.Millisecond
		d := b.Next()
		if d < nominal/2 || d > nominal {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, d, nominal/2, nominal)
		}
	}
	b.Reset()
	if d := b.Next(); d > 10*time.Millisecond {
		t.Fatalf("after Reset, delay %v exceeds base", d)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := &Backoff{Base: time.Millisecond, Max: 16 * time.Millisecond, Seed: seed}
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMonitorExpiry(t *testing.T) {
	m := NewMonitor(50*time.Millisecond, 4) // deadline: 200ms of silence
	m.Touch(0)
	m.Touch(1)
	if dead := m.Expired(time.Now()); len(dead) != 0 {
		t.Fatalf("fresh peers reported dead: %v", dead)
	}
	// Keep peer 1 chatty while peer 0 goes silent well past the deadline.
	for start := time.Now(); time.Since(start) < 250*time.Millisecond; {
		time.Sleep(20 * time.Millisecond)
		m.Touch(1)
	}
	dead := m.Expired(time.Now())
	if len(dead) != 1 || dead[0] != 0 {
		t.Fatalf("expired = %v, want [0]", dead)
	}
	if s, ok := m.Silence(0, time.Now()); !ok || s < m.Deadline() {
		t.Fatalf("Silence(0) = %v, %v; want >= %v", s, ok, m.Deadline())
	}
	m.Forget(0)
	if dead := m.Expired(time.Now().Add(time.Hour)); len(dead) != 1 || dead[0] != 1 {
		t.Fatalf("after Forget(0), expired = %v, want [1]", dead)
	}
}

func TestNetworkGuess(t *testing.T) {
	for addr, want := range map[string]string{
		"127.0.0.1:9000": "tcp",
		"host:1":         "tcp",
		"/tmp/x.sock":    "unix",
		"./rank0.sock":   "unix",
		"@abstract":      "unix",
	} {
		if got := Network(addr); got != want {
			t.Fatalf("Network(%q) = %q, want %q", addr, got, want)
		}
	}
}
