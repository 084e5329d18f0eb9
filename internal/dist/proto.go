package dist

import (
	"encoding/binary"
	"fmt"

	"graftmatch/internal/checkpoint"
)

// protoVersion gates the cluster wire protocol; a worker and coordinator
// must agree exactly (the Hello/Welcome handshake checks). v2 added the
// run-trace context (Hello send timestamp, Welcome trace id, trace ids on
// superstep frames) and the fTelemetry span-shipping frame.
const protoVersion = 2

// Frame types on a cluster link. Hello and Welcome travel raw on the conn
// before the reliable session attaches (they negotiate the session's
// identity); everything else rides the session. All types stay below the
// session layer's reserved range (0xF0+).
const (
	fHello     byte = iota + 1 // 1: worker → coordinator: version, rank wanted, nonce, graph fingerprint
	fWelcome                   // 2: coordinator → worker: assigned rank, K, epoch, heartbeat/lease terms
	fStep                      // 3: coordinator → worker: one superstep order with routed inbox
	fStepDone                  // 4: worker → coordinator: outboxes, census info, new renewable roots
	fDone                      // 5: coordinator → worker: run complete, exit cleanly
	fAbort                     // 6: either direction: fatal condition, carries the reason
	fHB                        // 7: unreliable heartbeat, empty payload
	fTelemetry                 // 8: worker → coordinator: batched spans + metric deltas, best-effort
)

// Superstep op codes, the coordinator-driven counterpart of the ops methods.
// The worker is entirely op-driven: it holds rank state and executes what it
// is told, while every global decision (frontier emptiness, the graft/rebuild
// choice, termination, recovery) lives on the coordinator.
const (
	opScatter     byte = iota + 1 // load mate arrays, reset all derived state
	opSeed                        // root trees at owned unmatched X
	opExpand                      // BFS expand: frontier → claims
	opClaim                       // BFS claim: resolve Y ownership
	opApply                       // BFS apply: install frontier/leaf updates
	opAugInit                     // start augmenting walks at renewable roots
	opAugStep                     // advance token-passing walks
	opCensus                      // classify Y vertices, report graft census
	opGraftQuery                  // freed Y query neighbors' owners
	opGraftAccept                 // active X owners accept queries
	opGraftAdopt                  // freed Y adopt first acceptance
	opGraftApply                  // install post-adoption frontier/leaf updates
	opRebuild                     // destroy active trees, reseed from unmatched
	opReportMates                 // return the rank's mate arrays (phase boundary)
)

// opNames maps op codes to the span names the cluster trace uses, so the
// telemetry frame ships one byte per span instead of a string. Index 0 and
// out-of-range ops render as "op?" rather than faulting on a garbage byte.
var opNames = [...]string{
	opScatter:     "scatter",
	opSeed:        "seed",
	opExpand:      "expand",
	opClaim:       "claim",
	opApply:       "apply",
	opAugInit:     "aug-init",
	opAugStep:     "aug-step",
	opCensus:      "census",
	opGraftQuery:  "graft-query",
	opGraftAccept: "graft-accept",
	opGraftAdopt:  "graft-adopt",
	opGraftApply:  "graft-apply",
	opRebuild:     "rebuild",
	opReportMates: "report-mates",
}

// opSpanName returns the trace span name for an op code.
func opSpanName(op byte) string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return "op?"
}

// ProtoError reports a malformed cluster frame: truncated, oversized counts,
// unknown discriminators. It is terminal for the link that produced it — a
// peer speaking garbage is not retried against.
type ProtoError struct {
	Frame  string
	Reason string
}

func (e *ProtoError) Error() string {
	return fmt.Sprintf("dist: malformed %s frame: %s", e.Frame, e.Reason)
}

// helloFrame opens a worker's connection, raw on the conn: who it is (nonce
// distinguishes a reconnect of the same process from a respawned
// incarnation), which rank it wants (-1 for any), and the fingerprint of the
// graph it loaded — both sides must be looking at the same problem.
type helloFrame struct {
	Version uint16
	Rank    int32 // requested rank; -1 means "assign me one"
	Nonce   uint64
	SentAt  int64 // worker wall clock (UnixNano) at send; clock-offset estimate
	FP      checkpoint.Fingerprint
}

// welcomeFrame answers a Hello: the assigned rank, the cluster width, the
// epoch the worker joins at, the run trace id every spilled span inherits,
// and the failure-detection terms the worker must obey.
type welcomeFrame struct {
	Rank        int32
	K           int32
	Epoch       uint64
	Trace       uint64 // run/trace id minted by the coordinator
	HBMillis    uint32 // heartbeat send interval
	LeaseMillis uint32 // coordinator silence after which the worker aborts
}

// stepFrame orders one superstep: the op to run, the renewable roots merged
// since the worker's last step, and the routed inbox. Scatter steps carry
// the mate arrays for the worker's block instead of an inbox. Trace echoes
// the run trace id so a captured frame is self-identifying.
type stepFrame struct {
	Epoch    uint64
	SSID     uint64
	Trace    uint64
	Op       byte
	RenewNew []int32
	In       []message
	MateX    []int32 // opScatter only
	MateY    []int32 // opScatter only
}

// stepDoneFrame reports a superstep: per-destination outboxes, the roots that
// turned renewable, and the op's scalar results in Info (frontier size,
// paths, census counts). ReportMates steps carry the block's mate arrays.
type stepDoneFrame struct {
	Epoch    uint64
	SSID     uint64
	Trace    uint64
	Op       byte
	Info     [2]int64
	NewRenew []int32
	Out      [][]message
	MateX    []int32 // opReportMates only
	MateY    []int32 // opReportMates only
}

// telSpan is one shipped span: the op it timed, worker-local wall-clock
// start, duration, and one scalar (the op's Info[0]). Op-coded so the wire
// cost is a fixed 25 bytes and encoding allocates nothing.
type telSpan struct {
	Op    byte
	Start int64 // worker wall clock, UnixNano; coordinator applies clock offset
	Dur   int64
	Arg   int64
}

// telSpanBytes is the wire size of one telSpan (1 + 3×8).
const telSpanBytes = 25

// maxTelSpans bounds one telemetry frame; the worker's shipper buffer is
// sized to it, so anything beyond is dropped-oldest at the source.
const maxTelSpans = 512

// telemetryFrame ships a worker's batched spans and metric deltas to the
// coordinator at superstep boundaries. Entirely best-effort: the coordinator
// ingests it off the pump goroutine and the driver never waits for one.
type telemetryFrame struct {
	Epoch   uint64
	Trace   uint64
	Dropped uint64 // spans lost to the shipper's bounded buffer so far
	Steps   int64  // supersteps executed since the last telemetry frame
	MsgsOut int64  // messages emitted since the last telemetry frame
	Spans   []telSpan
}

// --- encoding -------------------------------------------------------------

func putU16(b []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func putI32(b []byte, v int32) []byte  { return putU32(b, uint32(v)) }
func putI64(b []byte, v int64) []byte  { return putU64(b, uint64(v)) }

func putI32s(b []byte, s []int32) []byte {
	b = putU32(b, uint32(len(s)))
	for _, v := range s {
		b = putI32(b, v)
	}
	return b
}

func putMsgs(b []byte, ms []message) []byte {
	b = putU32(b, uint32(len(ms)))
	for _, m := range ms {
		b = append(b, m.kind)
		b = putI32(b, m.a)
		b = putI32(b, m.b)
		b = putI32(b, m.c)
	}
	return b
}

func encodeHello(h helloFrame) []byte {
	b := make([]byte, 0, 48)
	b = putU16(b, h.Version)
	b = putI32(b, h.Rank)
	b = putU64(b, h.Nonce)
	b = putI64(b, h.SentAt)
	b = putI32(b, h.FP.NX)
	b = putI32(b, h.FP.NY)
	b = putI64(b, h.FP.NNZ)
	b = putU64(b, h.FP.AdjHash)
	return b
}

func encodeWelcome(w welcomeFrame) []byte {
	b := make([]byte, 0, 32)
	b = putI32(b, w.Rank)
	b = putI32(b, w.K)
	b = putU64(b, w.Epoch)
	b = putU64(b, w.Trace)
	b = putU32(b, w.HBMillis)
	b = putU32(b, w.LeaseMillis)
	return b
}

// encodeStep appends into buf (reused across supersteps by the coordinator).
func encodeStep(buf []byte, f *stepFrame) []byte {
	b := buf[:0]
	b = putU64(b, f.Epoch)
	b = putU64(b, f.SSID)
	b = putU64(b, f.Trace)
	b = append(b, f.Op)
	b = putI32s(b, f.RenewNew)
	b = putMsgs(b, f.In)
	b = putI32s(b, f.MateX)
	b = putI32s(b, f.MateY)
	return b
}

// encodeStepDone appends into buf (reused across supersteps by the worker).
func encodeStepDone(buf []byte, f *stepDoneFrame) []byte {
	b := buf[:0]
	b = putU64(b, f.Epoch)
	b = putU64(b, f.SSID)
	b = putU64(b, f.Trace)
	b = append(b, f.Op)
	b = putI64(b, f.Info[0])
	b = putI64(b, f.Info[1])
	b = putI32s(b, f.NewRenew)
	b = putU32(b, uint32(len(f.Out)))
	for _, box := range f.Out {
		b = putMsgs(b, box)
	}
	b = putI32s(b, f.MateX)
	b = putI32s(b, f.MateY)
	return b
}

// encodeTelemetry appends into buf (reused across ships by the worker's
// telemetry shipper — the encode itself allocates nothing).
func encodeTelemetry(buf []byte, f *telemetryFrame) []byte {
	b := buf[:0]
	b = putU64(b, f.Epoch)
	b = putU64(b, f.Trace)
	b = putU64(b, f.Dropped)
	b = putI64(b, f.Steps)
	b = putI64(b, f.MsgsOut)
	b = putU32(b, uint32(len(f.Spans)))
	for i := range f.Spans {
		s := &f.Spans[i]
		b = append(b, s.Op)
		b = putI64(b, s.Start)
		b = putI64(b, s.Dur)
		b = putI64(b, s.Arg)
	}
	return b
}

func encodeAbort(reason string) []byte {
	b := make([]byte, 0, 4+len(reason))
	b = putU32(b, uint32(len(reason)))
	return append(b, reason...)
}

// --- decoding -------------------------------------------------------------

// pr is a bounds-latched little-endian reader: the first short read trips
// bad, every later read returns zero values, and finish reports one typed
// error for the whole frame. Element counts are validated against the bytes
// actually present before any count-sized allocation happens — the same
// allocation-bomb discipline as mmio.Limits, applied to the wire.
type pr struct {
	b    []byte
	off  int
	bad  bool
	why  string
	name string
}

func newPR(name string, b []byte) *pr { return &pr{b: b, name: name} }

func (r *pr) fail(why string) {
	if !r.bad {
		r.bad = true
		r.why = why
	}
}

func (r *pr) need(n int) bool {
	if r.bad {
		return false
	}
	if len(r.b)-r.off < n {
		r.fail("truncated")
		return false
	}
	return true
}

func (r *pr) u8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *pr) u16() uint16 {
	if !r.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v
}

func (r *pr) u32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *pr) u64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *pr) i32() int32 { return int32(r.u32()) }
func (r *pr) i64() int64 { return int64(r.u64()) }

// i32s reads a count-prefixed []int32. Counts stay uint32 and are bounded
// in uint64, here and in every decoder below: on a 32-bit target
// int(0xFFFFFFFF) is -1, which passes a signed bound and panics in make.
func (r *pr) i32s() []int32 {
	n := r.u32()
	if r.bad {
		return nil
	}
	if uint64(len(r.b)-r.off) < 4*uint64(n) {
		r.fail("element count exceeds frame")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = r.i32()
	}
	return out
}

func (r *pr) msgs() []message {
	n := r.u32()
	if r.bad {
		return nil
	}
	if uint64(len(r.b)-r.off) < 13*uint64(n) {
		r.fail("message count exceeds frame")
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]message, n)
	for i := range out {
		out[i] = message{kind: r.u8(), a: r.i32(), b: r.i32(), c: r.i32()}
	}
	return out
}

// finish validates the frame consumed exactly: trailing garbage is as
// malformed as truncation.
func (r *pr) finish() error {
	if !r.bad && r.off != len(r.b) {
		r.fail("trailing bytes")
	}
	if r.bad {
		return &ProtoError{Frame: r.name, Reason: r.why}
	}
	return nil
}

func decodeHello(b []byte) (helloFrame, error) {
	r := newPR("hello", b)
	h := helloFrame{
		Version: r.u16(),
		Rank:    r.i32(),
		Nonce:   r.u64(),
		SentAt:  r.i64(),
		FP: checkpoint.Fingerprint{
			NX: r.i32(), NY: r.i32(), NNZ: r.i64(), AdjHash: r.u64(),
		},
	}
	return h, r.finish()
}

func decodeWelcome(b []byte) (welcomeFrame, error) {
	r := newPR("welcome", b)
	w := welcomeFrame{
		Rank:        r.i32(),
		K:           r.i32(),
		Epoch:       r.u64(),
		Trace:       r.u64(),
		HBMillis:    r.u32(),
		LeaseMillis: r.u32(),
	}
	return w, r.finish()
}

func decodeStep(b []byte) (stepFrame, error) {
	r := newPR("step", b)
	f := stepFrame{
		Epoch:    r.u64(),
		SSID:     r.u64(),
		Trace:    r.u64(),
		Op:       r.u8(),
		RenewNew: r.i32s(),
		In:       r.msgs(),
		MateX:    r.i32s(),
		MateY:    r.i32s(),
	}
	if !r.bad && (f.Op < opScatter || f.Op > opReportMates) {
		r.fail("unknown op")
	}
	return f, r.finish()
}

// decodeStepDone validates the outbox fan-out against the cluster width K.
func decodeStepDone(b []byte, k int) (stepDoneFrame, error) {
	r := newPR("stepdone", b)
	f := stepDoneFrame{
		Epoch: r.u64(),
		SSID:  r.u64(),
		Trace: r.u64(),
		Op:    r.u8(),
	}
	f.Info[0] = r.i64()
	f.Info[1] = r.i64()
	f.NewRenew = r.i32s()
	nOut := int(r.u32())
	if !r.bad && nOut != k {
		r.fail(fmt.Sprintf("outbox fan-out %d, want %d", nOut, k))
	}
	if !r.bad {
		f.Out = make([][]message, nOut)
		for i := range f.Out {
			f.Out[i] = r.msgs()
		}
	}
	f.MateX = r.i32s()
	f.MateY = r.i32s()
	return f, r.finish()
}

// decodeTelemetry validates the span count against the bytes actually
// present (and the maxTelSpans cap) before allocating — a telemetry frame is
// the only worker-originated frame besides StepDone, so it gets the same
// allocation-bomb discipline.
func decodeTelemetry(b []byte) (telemetryFrame, error) {
	r := newPR("telemetry", b)
	f := telemetryFrame{
		Epoch:   r.u64(),
		Trace:   r.u64(),
		Dropped: r.u64(),
		Steps:   r.i64(),
		MsgsOut: r.i64(),
	}
	n := r.u32()
	if !r.bad && n > maxTelSpans {
		r.fail("span count exceeds cap")
	}
	if !r.bad && uint64(len(r.b)-r.off) < telSpanBytes*uint64(n) {
		r.fail("span count exceeds frame")
	}
	if !r.bad && n > 0 {
		f.Spans = make([]telSpan, n)
		for i := range f.Spans {
			f.Spans[i] = telSpan{Op: r.u8(), Start: r.i64(), Dur: r.i64(), Arg: r.i64()}
		}
	}
	return f, r.finish()
}

func decodeAbort(b []byte) (string, error) {
	r := newPR("abort", b)
	n := r.u32()
	if !r.bad && uint64(len(r.b)-r.off) < uint64(n) {
		r.fail("reason length exceeds frame")
	}
	if r.bad {
		return "", r.finish()
	}
	reason := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return reason, r.finish()
}
