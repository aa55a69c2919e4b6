package wire

import (
	"bytes"
	"errors"
	"io"
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
	"repro/internal/vs"
)

func roundTrip(t *testing.T, payloads ...any) []any {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := w.WriteMsg(NewMsg(1, 2, p)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]any, 0, len(payloads))
	for i := range payloads {
		m, err := r.ReadMsg()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if m.From != 1 || m.To != 2 {
			t.Fatalf("read %d: routing %v->%v", i, m.From, m.To)
		}
		out = append(out, m.Payload)
	}
	return out
}

func TestFullEnvelopeRoundTrip(t *testing.T) {
	conf := ids.NewSet(1, 2, 3)
	saMsg := recsa.Message{
		FD:     ids.NewSet(1, 2, 3, 4),
		Part:   conf,
		Config: recsa.ConfigOf(conf),
		Prp:    recsa.Notification{Phase: 1, HasSet: true, Set: ids.NewSet(1, 2)},
		All:    true,
		Echo: recsa.Echo{
			Valid: true, Part: conf,
			Prp: recsa.DefaultNtf(), All: false,
		},
	}
	ctr := counter.Counter{
		Lbl:  label.Label{Creator: 3, Sting: 2, Antistings: []int{0, 1}},
		Seqn: 9, WID: 3,
	}
	rep := vs.Replica{
		View:   vs.View{ID: ctr, Set: conf},
		Status: vs.StatusMulticast,
		Rnd:    4,
		State:  map[string]string{"x": "1"},
		Inputs: map[ids.ID]any{
			1: regmem.WriteCmd{Name: "x", Value: "2", Writer: 1, Seq: 7},
			2: regmem.MarkerCmd{Reader: 2, Seq: 3},
		},
		Input: regmem.WriteCmd{Name: "y", Value: "0", Writer: 1, Seq: 8},
		Crd:   3,
	}
	app := vs.Payload{
		Replica: &rep,
		Counter: counter.Message{
			Gossip:    counter.Pair{MCT: ctr},
			HasGossip: true,
			RPCs:      []counter.RPC{{Kind: counter.ReadReq, Seq: 1}},
		},
	}
	env := core.Envelope{
		RecSA:    &saMsg,
		RecMA:    &recma.Message{NoMaj: true},
		JoinReq:  true,
		JoinResp: &join.Response{Pass: true, State: map[ids.ID]any{1: "s"}},
		App:      app,
	}
	in := datalink.Packet{Kind: datalink.KindData, Session: 99, Seq: 1, Payload: env}

	got := roundTrip(t, in)[0]
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in, got)
	}
}

// TestZeroValueFieldsSurvive guards the nil-vs-zero hazard: pointers to
// zero values (an explicit join denial, an all-clear recMA message) must
// arrive as non-nil pointers to zero values, not as nil.
func TestZeroValueFieldsSurvive(t *testing.T) {
	env := core.Envelope{
		RecMA:    &recma.Message{}, // all-clear flags
		JoinResp: &join.Response{}, // explicit join denial
	}
	in := datalink.Packet{Kind: datalink.KindData, Session: 1, Payload: env}
	got, ok := roundTrip(t, in)[0].(datalink.Packet)
	if !ok {
		t.Fatalf("payload type %T", got)
	}
	out, ok := got.Payload.(core.Envelope)
	if !ok {
		t.Fatalf("envelope type %T", got.Payload)
	}
	if out.RecMA == nil || *out.RecMA != (recma.Message{}) {
		t.Errorf("zero recMA message lost: %+v", out.RecMA)
	}
	if out.JoinResp == nil || out.JoinResp.Pass || out.JoinResp.State != nil {
		t.Errorf("explicit join denial lost: %+v", out.JoinResp)
	}
	if out.RecSA != nil {
		t.Errorf("absent recSA materialized: %+v", out.RecSA)
	}
}

// TestShardTaggedEnvelopeRoundTrip exercises the shard-mux field:
// payloads of shards ≥ 1 travel tagged, and an entry tagged shard 0
// keeps its zero tag.
func TestShardTaggedEnvelopeRoundTrip(t *testing.T) {
	st := regmem.State{Base: map[string]string{"a": "1"}, Delta: &regmem.Delta{Name: "b", Value: "2"}, Depth: 1}
	app0 := vs.Payload{Replica: &vs.Replica{Status: vs.StatusMulticast, Rnd: 1, State: st}}
	app1 := vs.Payload{Replica: &vs.Replica{Status: vs.StatusPropose, Rnd: 2}}
	env := core.Envelope{
		App: app0,
		ShardApps: []core.ShardApp{
			{Shard: 0, App: app0}, // a zero tag must survive
			{Shard: 1, App: app1},
		},
	}
	in := datalink.Packet{Kind: datalink.KindData, Session: 5, Payload: env}
	got, ok := roundTrip(t, in)[0].(datalink.Packet)
	if !ok {
		t.Fatalf("payload type %T", got)
	}
	out, ok := got.Payload.(core.Envelope)
	if !ok {
		t.Fatalf("envelope type %T", got.Payload)
	}
	if len(out.ShardApps) != 2 {
		t.Fatalf("ShardApps = %+v, want 2 entries", out.ShardApps)
	}
	if out.ShardApps[0].Shard != 0 || out.ShardApps[1].Shard != 1 {
		t.Fatalf("shard tags %d,%d, want 0,1", out.ShardApps[0].Shard, out.ShardApps[1].Shard)
	}
	if !reflect.DeepEqual(out, in.Payload) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in.Payload, out)
	}
}

// TestUnshardedEnvelopeHasNoShardField: a single-shard envelope carries
// no shard field, and none materializes on decode.
func TestUnshardedEnvelopeHasNoShardField(t *testing.T) {
	env := core.Envelope{App: vs.Payload{Replica: &vs.Replica{Status: vs.StatusMulticast}}}
	in := datalink.Packet{Kind: datalink.KindData, Session: 2, Payload: env}
	got := roundTrip(t, in)[0].(datalink.Packet)
	out := got.Payload.(core.Envelope)
	if out.ShardApps != nil {
		t.Fatalf("unsharded envelope grew ShardApps: %+v", out.ShardApps)
	}
	if !reflect.DeepEqual(out, env) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", env, out)
	}
}

func TestControlAndRawPayloads(t *testing.T) {
	payloads := []any{
		datalink.Packet{Kind: datalink.KindClean, Session: 7},
		datalink.Packet{Kind: datalink.KindCleanAck, Session: 7},
		datalink.Packet{Kind: datalink.KindAck, Session: 7, Seq: 1},
		"garbage",
		42,
	}
	got := roundTrip(t, payloads...)
	for i := range payloads {
		if !reflect.DeepEqual(got[i], payloads[i]) {
			t.Errorf("payload %d: %#v != %#v", i, got[i], payloads[i])
		}
	}
}

// TestBatchedPacketRoundTrip exercises the batch field: a DATA packet carrying several payloads — envelopes (with shard tags)
// and raw values mixed — survives the trip with order and presence
// intact.
func TestBatchedPacketRoundTrip(t *testing.T) {
	env0 := core.Envelope{RecMA: &recma.Message{NoMaj: true}, App: "a0"}
	env1 := core.Envelope{
		App:       "a1",
		ShardApps: []core.ShardApp{{Shard: 0, App: "s0"}, {Shard: 2, App: "s2"}},
	}
	in := datalink.Packet{
		Kind: datalink.KindData, Session: 77, Seq: 9,
		Batch: []any{env0, "raw-middle", env1},
	}
	got, ok := roundTrip(t, in)[0].(datalink.Packet)
	if !ok {
		t.Fatalf("payload type %T", got)
	}
	if !reflect.DeepEqual(got, in) {
		t.Fatalf("round trip mismatch:\n in=%#v\nout=%#v", in, got)
	}
}

// TestEmptyBatchDistinctFromUnbatched: explicit presence means a
// zero-length batch is not confused with a single-payload packet.
func TestEmptyBatchDistinctFromUnbatched(t *testing.T) {
	in := datalink.Packet{Kind: datalink.KindData, Session: 1, Seq: 1, Batch: []any{}}
	got := roundTrip(t, in)[0].(datalink.Packet)
	if got.Batch == nil {
		t.Fatal("empty batch decoded as unbatched packet")
	}
	if len(got.Batch) != 0 || got.Payload != nil {
		t.Fatalf("empty batch mutated: %#v", got)
	}
}

// frameSizes parses a written stream's frame headers.
func frameSizes(t *testing.T, b []byte) []int {
	t.Helper()
	b = b[8:] // preamble
	var sizes []int
	for len(b) > 0 {
		if len(b) < 4 {
			t.Fatalf("dangling %d header bytes", len(b))
		}
		n := int((uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])) &^ uint32(chunkFlag))
		b = b[4:]
		if n > len(b) {
			t.Fatalf("frame header claims %d bytes, %d remain", n, len(b))
		}
		sizes = append(sizes, n)
		b = b[n:]
	}
	return sizes
}

// TestOversizeMessageSplitsAcrossFrames is the MaxFrame boundary
// regression: a message encoding just past MaxFrame is chunked across
// frames (each within the bound) instead of erroring after buffering,
// and decodes back intact; one encoding just under stays a single
// frame.
func TestOversizeMessageSplitsAcrossFrames(t *testing.T) {
	write := func(payloadLen int) ([]byte, string) {
		payload := strings.Repeat("x", payloadLen)
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WriteMsg(NewMsg(1, 2, payload)); err != nil {
			t.Fatalf("payload of %d bytes: %v", payloadLen, err)
		}
		return buf.Bytes(), payload
	}

	// Just under: encoding overhead must not push a small message over.
	under, _ := write(MaxFrame - 1024)
	if n := len(frameSizes(t, under)); n != 1 {
		t.Fatalf("under-bound message used %d frames, want 1", n)
	}

	// Just over (MaxFrame+1 payload): must split, every frame in bound.
	over, payload := write(MaxFrame + 1)
	sizes := frameSizes(t, over)
	if len(sizes) < 2 {
		t.Fatalf("over-bound message used %d frame(s), want >= 2", len(sizes))
	}
	for i, n := range sizes {
		if n > MaxFrame {
			t.Fatalf("frame %d is %d bytes > MaxFrame", i, n)
		}
	}
	r, err := NewReader(bytes.NewReader(over))
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.ReadMsg()
	if err != nil {
		t.Fatalf("split message did not decode: %v", err)
	}
	if got, ok := m.Payload.(string); !ok || got != payload {
		t.Fatalf("split message corrupted (len %d)", len(got))
	}
}

// TestMessageSizeBoundsSymmetry: the writer refuses encodings beyond
// MaxMessage (every reader would reject them — writing one would
// dead-loop the link on retransmission), and a reader fed a hand-framed
// over-budget transfer refuses it instead of buffering it in full.
func TestMessageSizeBoundsSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates several ×MaxMessage")
	}
	big := NewMsg(1, 2, strings.Repeat("x", MaxMessage+1024))

	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(big); err == nil || !errors.Is(err, ErrMessageTooLarge) {
		t.Fatalf("writer accepted an over-MaxMessage message (err=%v)", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := frameSizes(t, buf.Bytes()); len(got) != 0 {
		t.Fatalf("refused message still emitted %d frames", len(got))
	}

	// Chunk the same encoding by hand (bypassing the writer's bound, as
	// a hostile peer would) and confirm the reader refuses it.
	enc, err := appendMsg(nil, big)
	if err != nil {
		t.Fatal(err)
	}
	var stream bytes.Buffer
	hostile, err := NewWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if err := hostile.appendChunked(enc); err != nil {
		t.Fatal(err)
	}
	if err := hostile.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&stream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err == nil || !strings.Contains(err.Error(), "MaxMessage") {
		t.Fatalf("message beyond MaxMessage accepted by reader: %v", err)
	}
}

// TestReaderRejectsOversizeBatchCount: an absurd decoded batch length is
// refused even when the frames themselves are in bounds.
func TestReaderRejectsOversizeBatchCount(t *testing.T) {
	batch := make([]any, MaxWireBatch+1)
	for i := range batch {
		batch[i] = i
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(NewMsg(1, 2, datalink.Packet{Kind: datalink.KindData, Batch: batch})); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err == nil {
		t.Fatal("oversize batch count accepted")
	}
}

func TestReaderRejectsBadPreamble(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("notrecfg"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	bad := append([]byte("recfg\x00"), 99, 0)
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("rec"))); err == nil {
		t.Fatal("truncated preamble accepted")
	}
}

func TestReaderRejectsOversizeFrame(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(NewMsg(1, 2, "x")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the first frame header to claim an enormous payload.
	b := buf.Bytes()
	b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0xff
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadMsg(); err == nil || err == io.EOF {
		t.Fatalf("oversize frame not rejected: %v", err)
	}
}

// TestReaderRejectsOldVersions: a stream stamped with any earlier
// version (1–5) is refused at the preamble, even when the frames that
// follow are well formed.
func TestReaderRejectsOldVersions(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(NewMsg(1, 2, datalink.Packet{Kind: datalink.KindData, Session: 9, Payload: "x"})); err != nil {
		t.Fatal(err)
	}
	for v := byte(1); v < Version; v++ {
		stream := append([]byte(nil), buf.Bytes()...)
		stream[len(magic)] = v
		if _, err := NewReader(bytes.NewReader(stream)); err == nil || !strings.Contains(err.Error(), "version") {
			t.Errorf("version-%d preamble accepted: %v", v, err)
		}
	}
}

// TestRefusedAppendLeavesStreamIntact: a message the codec refuses
// writes nothing, so the stream stays byte-identical to one that never
// saw it, and the messages around it still decode.
func TestRefusedAppendLeavesStreamIntact(t *testing.T) {
	before := NewMsg(1, 2, datalink.Packet{Kind: datalink.KindData, Session: 1, Payload: core.Envelope{App: "before"}})
	after := NewMsg(1, 2, datalink.Packet{Kind: datalink.KindAck, Session: 1, Seq: 1})
	write := func(refused ...Msg) []byte {
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(before); err != nil {
			t.Fatal(err)
		}
		for _, m := range refused {
			if err := w.Append(m); !errors.Is(err, ErrUnsupportedPayload) {
				t.Fatalf("Append(%#v) = %v, want ErrUnsupportedPayload", m.Payload, err)
			}
		}
		if err := w.WriteMsg(after); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	clean := write()
	got := write(
		NewMsg(1, 2, outsideType{X: 1}),
		NewMsg(1, 2, datalink.Packet{Kind: datalink.KindData, Batch: []any{"ok", outsideType{X: 2}}}),
		NewMsg(1, 2, datalink.Packet{Kind: 0, Session: 3}),
	)
	if !bytes.Equal(got, clean) {
		t.Fatalf("refused messages changed the stream:\n got %x\nwant %x", got, clean)
	}
	r, err := NewReader(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []Msg{before, after} {
		m, err := r.ReadMsg()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m, want) {
			t.Fatalf("decoded %#v, want %#v", m, want)
		}
	}
}
