package wire

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/counter"
	"repro/internal/datalink"
	"repro/internal/ids"
	"repro/internal/join"
	"repro/internal/label"
	"repro/internal/recma"
	"repro/internal/recsa"
	"repro/internal/regmem"
	"repro/internal/smr"
	"repro/internal/vs"
)

// outsideType lies outside the codec's closed type set.
type outsideType struct{ X int }

// encodeOne writes one message and returns the stream minus the
// preamble.
func encodeOne(t *testing.T, m Msg) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()[preambleLen:]
}

// hotShapes enumerates representative payloads of every type the codec
// encodes — the shapes the stack actually sends, control packets, raw
// values outside any packet, and edge cases (nil payload, empty batch,
// zero-value structs, multi-key maps, a shard-0 tag).
func hotShapes() map[string]any {
	conf := ids.NewSet(1, 2, 3)
	ctr := counter.Counter{
		Lbl:  label.Label{Creator: 3, Sting: 2, Antistings: []int{0, 1, 5}},
		Seqn: 9, WID: 3,
	}
	cancel := counter.Counter{Lbl: label.Label{Creator: 1}, Seqn: 1, WID: 1}
	rep := vs.Replica{
		View:   vs.View{ID: ctr, Set: conf},
		Status: vs.StatusPropose,
		Rnd:    4,
		State: regmem.State{
			Base:  map[string]string{"x": "1", "a": "0", "m": "7"},
			Delta: &regmem.Delta{Name: "x", Value: "2", Prev: &regmem.Delta{Name: "y", Value: "3"}},
			Depth: 2,
		},
		Inputs: map[ids.ID]any{
			1: regmem.WriteCmd{Name: "x", Value: "2", Writer: 1, Seq: 7},
			2: smr.Batch{Cmds: []any{
				regmem.MarkerCmd{Reader: 2, Seq: 3},
				regmem.WriteCmd{Name: "z", Value: "9", Writer: 2, Seq: 4},
			}},
			3: nil,
		},
		Input: smr.KVCmd{Op: smr.KVPut, Key: "k", Value: "v"},
		PropV: vs.View{ID: cancel, Set: ids.NewSet(1, 2)},
		NoCrd: true,
		Crd:   3,
	}
	saMsg := recsa.Message{
		FD:     ids.NewSet(1, 2, 3, 4),
		Part:   conf,
		Config: recsa.ConfigOf(conf),
		Prp:    recsa.Notification{Phase: 1, HasSet: true, Set: ids.NewSet(1, 2)},
		All:    true,
		Echo:   recsa.Echo{Valid: true, Part: conf, Prp: recsa.DefaultNtf()},
	}
	fullEnv := core.Envelope{
		RecSA:    &saMsg,
		RecMA:    &recma.Message{NoMaj: true, NeedReconf: true},
		JoinReq:  true,
		JoinResp: &join.Response{Pass: true, State: map[string]int64{"acct": -12, "b": 4}},
		App: vs.Payload{
			Replica: &rep,
			Counter: counter.Message{
				Gossip:    counter.Pair{MCT: ctr, Cancel: &cancel},
				HasGossip: true,
				RPCs: []counter.RPC{
					{Kind: counter.ReadReq, Seq: 1},
					{Kind: counter.WriteResp, Seq: 2, Counter: counter.Pair{MCT: ctr}, HasCtr: true, Abort: true},
				},
			},
		},
		ShardApps: []core.ShardApp{
			{Shard: 1, App: smr.Batch{Cmds: []any{smr.BankCmd{From: "a", To: "b", Amount: 5}}}},
			{Shard: 2, App: map[ids.ID]any{4: "s", 9: 42}},
		},
	}
	return map[string]any{
		"clean":            datalink.Packet{Kind: datalink.KindClean, Session: 3},
		"clean-ack":        datalink.Packet{Kind: datalink.KindCleanAck, Session: 3},
		"ack":              datalink.Packet{Kind: datalink.KindAck, Session: 3, Seq: 2},
		"top-level-string": "not a packet at all",
		"top-level-nil":    nil,
		"top-level-map":    map[ids.ID]any{1: regmem.WriteCmd{Name: "x", Value: "1", Writer: 1, Seq: 1}},
		"shard-zero-tag": datalink.Packet{Kind: datalink.KindData, Session: 4, Payload: core.Envelope{
			ShardApps: []core.ShardApp{{Shard: 0, App: "s0"}, {Shard: 3, App: "s3"}},
		}},
		"empty-shards": datalink.Packet{Kind: datalink.KindData, Session: 4, Payload: core.Envelope{ShardApps: []core.ShardApp{}}},
		"empty-token":  datalink.Packet{Kind: datalink.KindData, Session: 7, Seq: 3},
		"full-env":     datalink.Packet{Kind: datalink.KindData, Session: 99, Seq: 1, Payload: fullEnv},
		"zero-ptrs":    datalink.Packet{Kind: datalink.KindData, Session: 1, Payload: core.Envelope{RecMA: &recma.Message{}, JoinResp: &join.Response{}}},
		"raw-string":   datalink.Packet{Kind: datalink.KindData, Session: 2, Seq: 9, Payload: "garbage"},
		"raw-int":      datalink.Packet{Kind: datalink.KindData, Session: 2, Payload: -41},
		"raw-bool":     datalink.Packet{Kind: datalink.KindData, Session: 2, Payload: true},
		"raw-set":      datalink.Packet{Kind: datalink.KindData, Session: 2, Payload: ids.NewSet(3, 1, 2)},
		"raw-map-ss":   datalink.Packet{Kind: datalink.KindData, Session: 2, Payload: map[string]string{"k1": "v1", "k0": "v0"}},
		"empty-batch":  datalink.Packet{Kind: datalink.KindData, Session: 5, Seq: 2, Batch: []any{}},
		"mixed-batch":  datalink.Packet{Kind: datalink.KindData, Session: 5, Seq: 2, Batch: []any{fullEnv, "raw", core.Envelope{}, nil}},
		"state-batch":  datalink.Packet{Kind: datalink.KindData, Session: 5, Seq: 4, Batch: []any{core.Envelope{App: regmem.State{}}, core.Envelope{App: vs.Payload{}}}},
		"counter-only": datalink.Packet{Kind: datalink.KindData, Session: 6, Payload: core.Envelope{App: vs.Payload{Counter: counter.Message{}}}},
		// Empty non-nil maps next to nil ones: vs.follow keys
		// incremental apply off Inputs != nil, so the codec keeps the
		// distinction (regression: an earlier encoding collapsed empty
		// maps to nil, forcing a wholesale adoption + snapshot every
		// round).
		"nil-vs-empty-maps": datalink.Packet{Kind: datalink.KindData, Session: 8, Seq: 1, Batch: []any{
			core.Envelope{App: vs.Payload{Replica: &vs.Replica{
				Rnd:    2,
				State:  regmem.State{Base: map[string]string{}},
				Inputs: map[ids.ID]any{},
			}}},
			core.Envelope{App: vs.Payload{Replica: &vs.Replica{Rnd: 3}}},
			core.Envelope{JoinResp: &join.Response{Pass: true, State: map[string]int64{}}},
			core.Envelope{App: map[string]string{}},
			core.Envelope{App: map[string]int64{}},
		}},
	}
}

// TestBinaryRoundTrip: every payload shape decodes back deep-equal to
// the input.
func TestBinaryRoundTrip(t *testing.T) {
	for name, payload := range hotShapes() {
		t.Run(name, func(t *testing.T) {
			if got := roundTrip(t, payload)[0]; !reflect.DeepEqual(got, payload) {
				t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", payload, got)
			}
		})
	}
}

// TestBinaryPreservesEmptyInputs: an assembled-but-empty round ships
// as Replica.Inputs = map[ids.ID]any{}, and followers treat a nil
// Inputs as "no round to apply" (vs.Manager.follow). The codec must
// therefore hand back an empty non-nil map, and leave genuinely nil
// maps nil.
func TestBinaryPreservesEmptyInputs(t *testing.T) {
	empty := &vs.Replica{Rnd: 2, State: regmem.State{Base: map[string]string{}}, Inputs: map[ids.ID]any{}}
	null := &vs.Replica{Rnd: 3}
	pkt := datalink.Packet{Kind: datalink.KindData, Session: 3, Seq: 1, Batch: []any{
		core.Envelope{App: vs.Payload{Replica: empty}},
		core.Envelope{App: vs.Payload{Replica: null}},
	}}
	batch := roundTrip(t, pkt)[0].(datalink.Packet).Batch
	got := batch[0].(core.Envelope).App.(vs.Payload).Replica
	if got.Inputs == nil || len(got.Inputs) != 0 {
		t.Fatalf("empty Inputs round-tripped as %#v, want empty non-nil map", got.Inputs)
	}
	if base := got.State.(regmem.State).Base; base == nil || len(base) != 0 {
		t.Fatalf("empty State.Base round-tripped as %#v, want empty non-nil map", base)
	}
	gotNil := batch[1].(core.Envelope).App.(vs.Payload).Replica
	if gotNil.Inputs != nil {
		t.Fatalf("nil Inputs round-tripped non-nil: %#v", gotNil.Inputs)
	}
}

// TestBinaryDeterministicBytes: the encoding of a message with
// multi-key maps is byte-identical across encodes (maps are sorted), so
// bytes-per-op columns in experiments are reproducible.
func TestBinaryDeterministicBytes(t *testing.T) {
	in := NewMsg(1, 2, hotShapes()["full-env"])
	first := encodeOne(t, in)
	for i := 0; i < 8; i++ {
		if again := encodeOne(t, in); !bytes.Equal(first, again) {
			t.Fatalf("encode %d diverged from first encode", i)
		}
	}
}

// TestUnsupportedPayloadRefused: a payload type outside the closed set,
// wherever it sits in the message, fails the encode with
// ErrUnsupportedPayload, as does a packet kind the kind byte cannot
// carry.
func TestUnsupportedPayloadRefused(t *testing.T) {
	cases := map[string]any{
		"outside-raw":    outsideType{X: 7},
		"outside-type":   datalink.Packet{Kind: datalink.KindData, Session: 3, Payload: outsideType{X: 7}},
		"outside-in-env": datalink.Packet{Kind: datalink.KindData, Session: 3, Payload: core.Envelope{App: outsideType{X: 8}}},
		"outside-batch":  datalink.Packet{Kind: datalink.KindData, Session: 3, Batch: []any{core.Envelope{}, outsideType{X: 9}}},
		"outside-shard":  core.Envelope{ShardApps: []core.ShardApp{{Shard: 1, App: outsideType{}}}},
		"kind-zero":      datalink.Packet{Session: 3},
		"kind-too-large": datalink.Packet{Kind: 256, Session: 3},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := appendMsg(nil, NewMsg(1, 2, payload)); !errors.Is(err, ErrUnsupportedPayload) {
				t.Fatalf("encode of %#v = %v, want ErrUnsupportedPayload", payload, err)
			}
		})
	}
}

// TestBinaryTruncationAndCorruptionRejected: every prefix of a valid
// message encoding fails to decode cleanly (no silent partial
// messages), and absurd counts are rejected before allocation.
func TestBinaryTruncationAndCorruptionRejected(t *testing.T) {
	b, err := appendMsg(nil, NewMsg(1, 2, hotShapes()["full-env"]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeMsg(b); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	for n := 0; n < len(b); n++ {
		if _, err := decodeMsg(b[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded cleanly", n, len(b))
		}
	}
	if _, err := decodeMsg(append(append([]byte(nil), b...), 0)); err == nil {
		t.Fatal("trailing byte decoded cleanly")
	}

	// An over-bound batch count must be rejected by the remaining-bytes
	// check, not allocated.
	huge := []byte{
		2, 4, // from=1, to=2 (zigzag)
		byte(datalink.KindData),
		0, 0, 0, 0, 0, 0, 0, 1, // session
		1,                            // seq
		shapeBatch,                   // batch shape
		0xff, 0xff, 0xff, 0xff, 0x7f, // uvarint count ≈ 34 G
	}
	if _, err := decodeMsg(huge); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("absurd batch count not rejected: %v", err)
	}

	// Nesting past maxAnyDepth is refused, not recursed into.
	deep := []byte{2, 4, kindNone}
	for i := 0; i <= maxAnyDepth; i++ {
		deep = append(deep, tagSMRBatch, 1)
	}
	deep = append(deep, tagNil)
	if _, err := decodeMsg(deep); err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("over-deep nesting not rejected: %v", err)
	}
}
