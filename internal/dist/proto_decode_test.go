package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"graftmatch/internal/checkpoint"
)

// fuzzK is the cluster width StepDone frames are decoded against.
const fuzzK = 2

// TestDecodeCountExceedsFrame forges each length-prefixed count the decoders
// read (i32s, msgs, telemetry spans, abort reason) to 0xFFFFFFFF over a body
// too short to hold it. Every decoder must reject the frame with the
// matching *ProtoError reason before any count-sized allocation — on 32-bit
// targets too, where the count does not fit in an int.
func TestDecodeCountExceedsFrame(t *testing.T) {
	// Fixed header sizes: Epoch, SSID, Trace (3×8) + Op (1); StepDone adds
	// Info (2×8); telemetry is Epoch, Trace, Dropped, Steps, MsgsOut (5×8).
	const stepHdr, doneHdr, telHdr = 25, 41, 40
	step := encodeStep(nil, &stepFrame{Op: opExpand})
	done := encodeStepDone(nil, &stepDoneFrame{Op: opExpand, Out: make([][]message, fuzzK)})
	tel := encodeTelemetry(nil, &telemetryFrame{})
	abort := encodeAbort("")
	cases := []struct {
		name   string
		frame  []byte
		at     int
		count  uint32
		decode func([]byte) error
		reason string
	}{
		{"step i32s", step, stepHdr, 0xFFFFFFFF, decodeStepErr, "element count exceeds frame"},
		{"step msgs", step, stepHdr + 4, 0xFFFFFFFF, decodeStepErr, "message count exceeds frame"},
		{"stepdone i32s", done, doneHdr, 0xFFFFFFFF, decodeStepDoneErr, "element count exceeds frame"},
		{"stepdone msgs", done, doneHdr + 8, 0xFFFFFFFF, decodeStepDoneErr, "message count exceeds frame"},
		{"telemetry spans", tel, telHdr, 0xFFFFFFFF, decodeTelemetryErr, "span count exceeds cap"},
		{"telemetry spans under cap", tel, telHdr, maxTelSpans, decodeTelemetryErr, "span count exceeds frame"},
		{"abort reason", abort, 0, 0xFFFFFFFF, decodeAbortErr, "reason length exceeds frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := append([]byte(nil), tc.frame...)
			binary.LittleEndian.PutUint32(b[tc.at:], tc.count)
			var pe *ProtoError
			if err := tc.decode(b); !errors.As(err, &pe) || pe.Reason != tc.reason {
				t.Fatalf("decode = %v, want *ProtoError with reason %q", err, tc.reason)
			}
		})
	}
}

func decodeStepErr(b []byte) error      { _, err := decodeStep(b); return err }
func decodeStepDoneErr(b []byte) error  { _, err := decodeStepDone(b, fuzzK); return err }
func decodeTelemetryErr(b []byte) error { _, err := decodeTelemetry(b); return err }
func decodeAbortErr(b []byte) error     { _, err := decodeAbort(b); return err }

// FuzzDecodeFrames throws arbitrary bodies at every frame decoder. A decoder
// must never panic, and a body it accepts must re-encode to the same bytes:
// the decoders consume a frame exactly, so anything else is a field the
// decoder dropped or invented.
func FuzzDecodeFrames(f *testing.F) {
	msgs := []message{{kind: 1, a: 2, b: 3, c: 4}}
	f.Add(fHello, encodeHello(helloFrame{Version: protoVersion, Rank: -1, Nonce: 9, SentAt: 10,
		FP: checkpoint.Fingerprint{NX: 3, NY: 4, NNZ: 5, AdjHash: 6}}))
	f.Add(fWelcome, encodeWelcome(welcomeFrame{Rank: 1, K: fuzzK, Epoch: 2, Trace: 3, HBMillis: 4, LeaseMillis: 5}))
	f.Add(fStep, encodeStep(nil, &stepFrame{Epoch: 1, SSID: 2, Trace: 3, Op: opExpand,
		RenewNew: []int32{7}, In: msgs, MateX: []int32{1, -1}, MateY: []int32{0}}))
	f.Add(fStepDone, encodeStepDone(nil, &stepDoneFrame{Epoch: 1, SSID: 2, Trace: 3, Op: opClaim,
		Info: [2]int64{4, 5}, NewRenew: []int32{6}, Out: [][]message{msgs, nil}}))
	f.Add(fTelemetry, encodeTelemetry(nil, &telemetryFrame{Epoch: 1, Trace: 2, Dropped: 3, Steps: 4, MsgsOut: 5,
		Spans: []telSpan{{Op: opExpand, Start: 6, Dur: 7, Arg: 8}}}))
	f.Add(fAbort, encodeAbort("bye"))
	f.Fuzz(func(t *testing.T, typ byte, body []byte) {
		var re []byte
		switch typ {
		case fHello:
			h, err := decodeHello(body)
			if err != nil {
				return
			}
			re = encodeHello(h)
		case fWelcome:
			w, err := decodeWelcome(body)
			if err != nil {
				return
			}
			re = encodeWelcome(w)
		case fStep:
			s, err := decodeStep(body)
			if err != nil {
				return
			}
			re = encodeStep(nil, &s)
		case fStepDone:
			d, err := decodeStepDone(body, fuzzK)
			if err != nil {
				return
			}
			re = encodeStepDone(nil, &d)
		case fTelemetry:
			tf, err := decodeTelemetry(body)
			if err != nil {
				return
			}
			re = encodeTelemetry(nil, &tf)
		case fAbort:
			reason, err := decodeAbort(body)
			if err != nil {
				return
			}
			re = encodeAbort(reason)
		default:
			return
		}
		if !bytes.Equal(re, body) {
			t.Fatalf("frame type %d re-encodes differently:\n in  %x\n out %x", typ, body, re)
		}
	})
}
