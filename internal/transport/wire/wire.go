// Package wire is the codec of the TCP transport backend: the message
// schema for everything the reconfiguration stack sends between
// processes — recSA/recMA state broadcasts, joining requests/responses,
// label/counter gossip and RPCs, vs replica exchanges, and the datalink
// control packets that carry them — framed as length-prefixed binary
// messages over a persistent per-connection stream.
//
// Stream layout:
//
//	preamble: 6-byte magic "recfg\x00", 1-byte version, 1-byte reserved
//	frames:   4-byte big-endian header, then payload bytes
//
// Every message is one self-contained binary encoding (binary.go), so
// no decoder state survives from one message to the next. The header's
// low 31 bits are the payload length; a plain frame (bit 31 clear)
// carries exactly one message of at most MaxFrame bytes.
//
// A message larger than MaxFrame is chunked: each chunk frame (bit 31
// set) carries a fixed header — the declared total size of the whole
// transfer, the chunk's index, the chunk count, and a CRC-32 of the
// chunk data — followed by a slice of the message's encoding. The
// reader validates the declared total against MaxMessage and the
// sequencing *before* buffering any chunk data, verifies each chunk's
// CRC, and grows the assembly only with verified bytes.
//
// A reader rejects mismatched magic, any version other than Version,
// empty or over-long frames before buffering them, chunked transfers
// whose declared total exceeds MaxMessage before buffering any chunk,
// and absurd batch counts, so a corrupted or hostile peer cannot keep
// the reader buffering without bound.
package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/ids"
)

// Version is the wire-format version of the preamble. It is the only
// version a Reader accepts: every change to the encoding bumps it.
const Version = 6

// MaxFrame bounds a single frame's payload size. Messages whose
// encoding exceeds it travel as a chunked transfer.
const MaxFrame = 4 << 20

// MaxMessage bounds the total bytes of one message's encoding: generous
// for multi-frame state snapshots, but a reader refuses any chunked
// transfer declaring more, so a hostile stream cannot have a single
// message buffered without bound.
const MaxMessage = 64 << 20

// MaxWireBatch bounds the per-packet batch length a Reader accepts —
// far above any sane datalink.Options.MaxBatch, it only stops a
// corrupted or hostile peer from making batch fan-out allocate wildly.
const MaxWireBatch = 4096

var magic = [6]byte{'r', 'e', 'c', 'f', 'g', 0}

const preambleLen = len(magic) + 2 // + version + reserved

// chunkFlag marks a frame header as a chunk frame.
const chunkFlag = 1 << 31

// chunkHeaderLen is the fixed chunk-frame header: 8-byte declared total
// transfer size, 4-byte chunk index, 4-byte chunk count, 4-byte IEEE
// CRC-32 of the chunk data.
const chunkHeaderLen = 8 + 4 + 4 + 4

// Msg is one transport send: From/To routing plus the payload — a
// datalink.Packet for all of the stack's own traffic, any other value
// of the closed type set (binary.go) otherwise.
type Msg struct {
	From, To ids.ID
	Payload  any
}

// NewMsg wraps a transport payload for the writer.
func NewMsg(from, to ids.ID, payload any) Msg {
	return Msg{From: from, To: to, Payload: payload}
}

// ErrMessageTooLarge reports a message whose encoding exceeds
// MaxMessage: every reader would refuse it, so the writer refuses it
// symmetrically before any frame reaches the stream (callers should
// drop the message — an omission — rather than retry it).
var ErrMessageTooLarge = errors.New("wire: message encoding exceeds MaxMessage")

// ErrUnsupportedPayload reports a payload outside the codec's closed
// type set. Like ErrMessageTooLarge it refuses one message and leaves
// the stream untouched.
var ErrUnsupportedPayload = errors.New("wire: payload type outside the codec's closed set")

// Writer frames messages onto w. Not safe for concurrent use.
type Writer struct {
	w      *bufio.Writer
	buf    []byte // encoding scratch, reused across messages
	frames uint64
}

// NewWriter writes the preamble and returns a frame writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	var pre [preambleLen]byte
	copy(pre[:], magic[:])
	pre[len(magic)] = Version
	if _, err := bw.Write(pre[:]); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

// WriteMsg appends one message to the stream and flushes it.
func (w *Writer) WriteMsg(m Msg) error {
	if err := w.Append(m); err != nil {
		return err
	}
	return w.Flush()
}

// Append encodes one message into the stream without flushing, so
// callers can coalesce several messages into one underlying write (the
// tcp backend's hot path). An encoding larger than MaxFrame becomes a
// chunked transfer. A message the codec refuses — ErrUnsupportedPayload
// or ErrMessageTooLarge — writes zero bytes, so the stream stays usable
// and the caller drops only that message; any other error comes from
// the underlying writer.
func (w *Writer) Append(m Msg) error {
	b, err := appendMsg(w.buf[:0], m)
	if cap(b) <= MaxFrame {
		w.buf = b // keep the scratch, but never an oversize one
	}
	if err != nil {
		return err
	}
	if len(b) > MaxMessage {
		return fmt.Errorf("%w (%d bytes)", ErrMessageTooLarge, len(b))
	}
	if len(b) > MaxFrame {
		return w.appendChunked(b)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(b)))
	if _, err := w.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.frames++
	return nil
}

// appendChunked emits one oversize message encoding as a chunked
// transfer: consecutive chunk frames, each flagged in the frame header
// and self-describing (declared total, index, count, data CRC).
func (w *Writer) appendChunked(b []byte) error {
	const maxData = MaxFrame - chunkHeaderLen
	total := uint64(len(b))
	count := (len(b) + maxData - 1) / maxData
	for i := 0; i < count; i++ {
		piece := b[i*maxData:]
		if len(piece) > maxData {
			piece = piece[:maxData]
		}
		var hdr [4 + chunkHeaderLen]byte
		binary.BigEndian.PutUint32(hdr[0:4], chunkFlag|uint32(chunkHeaderLen+len(piece)))
		binary.BigEndian.PutUint64(hdr[4:12], total)
		binary.BigEndian.PutUint32(hdr[12:16], uint32(i))
		binary.BigEndian.PutUint32(hdr[16:20], uint32(count))
		binary.BigEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(piece))
		if _, err := w.w.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := w.w.Write(piece); err != nil {
			return err
		}
		w.frames++
	}
	return nil
}

// Frames returns the cumulative count of wire frames emitted — one per
// message plus one per chunk beyond the first of a chunked transfer.
func (w *Writer) Frames() uint64 { return w.frames }

// Flush pushes every appended frame to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader validates the preamble and decodes framed messages.
type Reader struct {
	r   *bufio.Reader
	buf []byte // frame scratch, reused across messages
}

// NewReader consumes and validates the preamble from r.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var pre [preambleLen]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return nil, fmt.Errorf("wire: preamble: %w", err)
	}
	if !bytes.Equal(pre[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("wire: bad magic %q", pre[:len(magic)])
	}
	if v := pre[len(magic)]; v != Version {
		return nil, fmt.Errorf("wire: version %d, want %d", v, Version)
	}
	return &Reader{r: br}, nil
}

// ReadMsg decodes the next message, blocking until its frames arrive.
func (r *Reader) ReadMsg() (Msg, error) {
	n, err := r.header()
	if err != nil {
		return Msg{}, err
	}
	var b []byte
	if n&chunkFlag != 0 {
		b, err = r.readChunked(n &^ chunkFlag)
	} else if n == 0 || n > MaxFrame {
		err = fmt.Errorf("wire: frame of %d bytes outside (0, MaxFrame]", n)
	} else {
		b, err = r.fill(int(n))
	}
	if err != nil {
		return Msg{}, err
	}
	return decodeMsg(b)
}

// header reads one frame header.
func (r *Reader) header() (uint32, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(hdr[:]), nil
}

// fill reads the next n bytes into the reused scratch buffer. Decoding
// copies everything it keeps, so the buffer never escapes.
func (r *Reader) fill(n int) ([]byte, error) {
	if cap(r.buf) < n {
		r.buf = make([]byte, n)
	}
	b := r.buf[:n]
	if _, err := io.ReadFull(r.r, b); err != nil {
		return nil, err
	}
	return b, nil
}

// readChunked assembles one chunked transfer whose first frame header
// declared n payload bytes. Validation order matters: each chunk's
// declared total is checked against MaxMessage, and its sequencing
// against the transfer so far, from the fixed header alone — before
// the chunk data is read into memory — and the data joins the assembly
// only once its CRC verifies. An oversize or inconsistent transfer is
// rejected at the cost of chunkHeaderLen bytes, never a buffer.
func (r *Reader) readChunked(n uint32) ([]byte, error) {
	var (
		asm          []byte
		total        uint64
		count, index uint32
	)
	for {
		if n < chunkHeaderLen || n > MaxFrame {
			return nil, fmt.Errorf("wire: chunk frame of %d bytes outside [%d, MaxFrame]", n, chunkHeaderLen)
		}
		var hdr [chunkHeaderLen]byte
		if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
			return nil, err
		}
		t := binary.BigEndian.Uint64(hdr[0:8])
		i := binary.BigEndian.Uint32(hdr[8:12])
		c := binary.BigEndian.Uint32(hdr[12:16])
		crc := binary.BigEndian.Uint32(hdr[16:20])
		if t == 0 || t > MaxMessage {
			return nil, fmt.Errorf("wire: chunked transfer declares %d bytes, exceeds MaxMessage %d", t, MaxMessage)
		}
		if c == 0 || uint64(c) > t {
			return nil, fmt.Errorf("wire: chunked transfer declares %d chunks for %d bytes", c, t)
		}
		if i >= c {
			return nil, fmt.Errorf("wire: chunk index %d out of range (count %d)", i, c)
		}
		if index == 0 {
			if i != 0 {
				return nil, fmt.Errorf("wire: chunked transfer starts at index %d", i)
			}
			total, count = t, c
		}
		if i != index || t != total || c != count {
			return nil, fmt.Errorf("wire: chunk %d (total %d, count %d) does not continue transfer at %d (total %d, count %d)",
				i, t, c, index, total, count)
		}
		dataLen := int(n) - chunkHeaderLen
		if dataLen == 0 || uint64(len(asm)+dataLen) > total {
			return nil, fmt.Errorf("wire: chunk %d of %d bytes overflows declared total %d", i, dataLen, total)
		}
		data, err := r.fill(dataLen)
		if err != nil {
			return nil, err
		}
		if crc32.ChecksumIEEE(data) != crc {
			return nil, fmt.Errorf("wire: chunk %d CRC mismatch", i)
		}
		asm = append(asm, data...)
		if index++; index == count {
			if uint64(len(asm)) != total {
				return nil, fmt.Errorf("wire: chunked transfer ended with %d of %d declared bytes", len(asm), total)
			}
			return asm, nil
		}
		h, err := r.header()
		if err != nil {
			return nil, err
		}
		if h&chunkFlag == 0 {
			return nil, fmt.Errorf("wire: plain frame interrupts chunked transfer at chunk %d/%d", index, count)
		}
		n = h &^ chunkFlag
	}
}
