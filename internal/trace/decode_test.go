package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"repro/internal/callchain"
)

// The decoder boundary tests. Reader decodes events from the bufio
// buffer's bytes in place and hands the last events before each refill,
// and anything unusual, to Next's refill path, so the refill boundary at
// 65536 bytes is where the two could part. These tests feed streams that
// cross it through readers that deliver the bytes in different pieces,
// corrupt them at every offset around it, and hold Next and NextBlock to
// a test-local byte-at-a-time reference decoder: same events, same
// terminal error text, same trailer metadata.

// refillBoundary is the Reader's bufio buffer size: the stream offset at
// which a reader that fills the buffer whole first refills it.
const refillBoundary = 1 << 16

// chunkReader hands out at most n bytes per Read.
type chunkReader struct {
	r io.Reader
	n int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if len(p) > c.n {
		p = p[:c.n]
	}
	return c.r.Read(p)
}

// wrappers are the byte deliveries every decoding test runs under.
var wrappers = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
	{"chunk4093", func(r io.Reader) io.Reader { return chunkReader{r, 4093} }},
}

// drained is everything a consumer observes of one stream: the events,
// kept as a count and an order-sensitive digest, the terminal error's
// text and the trailer metadata.
type drained struct {
	n    int
	sum  uint64
	err  string
	meta Meta
}

func (d *drained) add(ev Event) {
	for _, v := range [...]uint64{uint64(ev.Kind), uint64(ev.Obj), uint64(ev.Size), uint64(ev.Chain), uint64(ev.Refs)} {
		d.sum = (d.sum ^ v) * 1099511628211
	}
	d.n++
}

func (d drained) equal(o drained) error {
	switch {
	case d.err != o.err:
		return fmt.Errorf("terminal error %q, want %q", d.err, o.err)
	case d.n != o.n:
		return fmt.Errorf("%d events, want %d", d.n, o.n)
	case d.sum != o.sum:
		return fmt.Errorf("the %d events differ", d.n)
	case d.meta != o.meta:
		return fmt.Errorf("meta %+v, want %+v", d.meta, o.meta)
	}
	return nil
}

// drainNext reads a stream through Next.
func drainNext(data []byte, wrap func(io.Reader) io.Reader) drained {
	rd, err := NewReader(wrap(bytes.NewReader(data)))
	if err != nil {
		return drained{err: err.Error()}
	}
	var d drained
	for {
		ev, err := rd.Next()
		if err != nil {
			d.err, d.meta = err.Error(), rd.Meta()
			return d
		}
		d.add(ev)
	}
}

// drainBlocks reads a stream through NextBlock with blocks of n events.
func drainBlocks(data []byte, wrap func(io.Reader) io.Reader, n int) drained {
	rd, err := NewReader(wrap(bytes.NewReader(data)))
	if err != nil {
		return drained{err: err.Error()}
	}
	var d drained
	blk := NewEventBlock(n)
	for {
		if err := rd.NextBlock(blk); err != nil {
			d.err, d.meta = err.Error(), rd.Meta()
			return d
		}
		for k := 0; k < blk.N; k++ {
			d.add(blk.Event(k))
		}
	}
}

// drainReference decodes a stream's events one byte at a time with
// bufio.Reader.ReadByte and binary.ReadUvarint, checking each field as it
// is read: the kind byte, the object, then the kind, then size, chain
// (range-checked) and refs. It shares only the header parsing with
// Reader.
func drainReference(data []byte, wrap func(io.Reader) io.Reader) drained {
	rd, err := NewReader(wrap(bytes.NewReader(data)))
	if err != nil {
		return drained{err: err.Error()}
	}
	br := rd.br
	var d drained
	fail := func(err error) drained {
		d.err, d.meta = noEOF(err).Error(), rd.meta
		return d
	}
	for i := uint64(0); ; i++ {
		if !rd.v2 && i >= rd.n {
			d.err, d.meta = io.EOF.Error(), rd.meta
			return d
		}
		kb, err := br.ReadByte()
		if err != nil {
			return fail(err)
		}
		if rd.v2 && kb == 0 {
			fc, err := binary.ReadUvarint(br)
			if err != nil {
				return fail(err)
			}
			nhr, err := binary.ReadUvarint(br)
			if err != nil {
				return fail(err)
			}
			rd.meta.FunctionCalls, rd.meta.NonHeapRefs = int64(fc), int64(nhr)
			d.err, d.meta = io.EOF.Error(), rd.meta
			return d
		}
		ev := Event{Kind: Kind(kb)}
		obj, err := binary.ReadUvarint(br)
		if err != nil {
			return fail(err)
		}
		ev.Obj = ObjectID(obj)
		switch ev.Kind {
		case KindAlloc:
			sz, err := binary.ReadUvarint(br)
			if err != nil {
				return fail(err)
			}
			ch, err := binary.ReadUvarint(br)
			if err != nil {
				return fail(err)
			}
			if ch >= uint64(rd.tb.NumChains()) {
				return fail(fmt.Errorf("trace: event %d references unknown chain %d", i, ch))
			}
			refs, err := binary.ReadUvarint(br)
			if err != nil {
				return fail(err)
			}
			ev.Size, ev.Chain, ev.Refs = int64(sz), callchain.ChainID(ch), int64(refs)
		case KindFree:
		default:
			return fail(fmt.Errorf("trace: event %d: bad kind %d", i, kb))
		}
		d.add(ev)
	}
}

// checkAgree holds Next and NextBlock (at the default block length and at
// 64, which puts block edges everywhere) to the reference decoder under
// every byte delivery.
func checkAgree(t *testing.T, name string, data []byte) {
	t.Helper()
	for _, w := range wrappers {
		want := drainReference(data, w.wrap)
		if err := drainNext(data, w.wrap).equal(want); err != nil {
			t.Fatalf("%s, %s reader: Next: %v", name, w.name, err)
		}
		for _, n := range []int{DefaultBlockLen, 64} {
			if err := drainBlocks(data, w.wrap, n).equal(want); err != nil {
				t.Fatalf("%s, %s reader: NextBlock(%d): %v", name, w.name, n, err)
			}
		}
	}
}

// bigTrace is a trace whose LPTRACE2 stream runs past the refill
// boundary more than twice, with object ids of one to three varint bytes.
func bigTrace() *Trace { return randomTrace(29, 30000) }

// encodeV2 writes tr as an LPTRACE2 stream and returns it with the
// offset at which each event starts.
func encodeV2(t *testing.T, tr *Trace) ([]byte, []int) {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Program: tr.Program, Input: tr.Input}, tr.Table)
	if err != nil {
		t.Fatal(err)
	}
	starts := make([]int, len(tr.Events))
	for i, ev := range tr.Events {
		if err := w.bw.Flush(); err != nil {
			t.Fatal(err)
		}
		starts[i] = buf.Len()
		if err := w.Write(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(tr.FunctionCalls, tr.NonHeapRefs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), starts
}

func TestDecoderAgreesAcrossByteDeliveries(t *testing.T) {
	tr := bigTrace()
	tr.FunctionCalls, tr.NonHeapRefs = 123456789, 42
	v2, _ := encodeV2(t, tr)
	if len(v2) <= refillBoundary {
		t.Fatalf("LPTRACE2 stream is %d bytes, want past %d", len(v2), refillBoundary)
	}
	var v1 bytes.Buffer
	if err := WriteBinary(&v1, tr); err != nil {
		t.Fatal(err)
	}
	checkAgree(t, "LPTRACE2", v2)
	checkAgree(t, "LPTRACE1", v1.Bytes())

	// The reference decodes the whole trace, trailer included.
	want := drainReference(v2, wrappers[0].wrap)
	var whole drained
	for _, ev := range tr.Events {
		whole.add(ev)
	}
	whole.err, whole.meta = io.EOF.Error(), Meta{Program: tr.Program, Input: tr.Input, FunctionCalls: tr.FunctionCalls, NonHeapRefs: tr.NonHeapRefs}
	if err := want.equal(whole); err != nil {
		t.Fatalf("reference decoder: %v", err)
	}
}

// TestDecoderCorruptionsAtRefillBoundary corrupts the stream around the
// refill boundary: it is cut at every offset within maxEventLen of it,
// and each event starting in that window gets, in turn, a bad kind byte
// (with and without its object), chain = NumChains (with and without its
// refs), and an 11-byte overlong object varint (whole, and cut after ten
// bytes).
func TestDecoderCorruptionsAtRefillBoundary(t *testing.T) {
	tr := randomTrace(31, 14000) // just past the boundary, to keep the sweep quick
	data, starts := encodeV2(t, tr)
	lo, hi := refillBoundary-maxEventLen, refillBoundary+maxEventLen
	if len(data) < hi+maxEventLen {
		t.Fatalf("stream is %d bytes, want past %d", len(data), hi+maxEventLen)
	}
	for cut := lo; cut <= hi; cut++ {
		checkAgree(t, fmt.Sprintf("cut at %d", cut), data[:cut])
	}
	overlong := append(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64), 0x00)
	tested := 0
	for i, at := range starts {
		if at < lo-maxEventLen || at > hi {
			continue
		}
		tested++
		bad := append([]byte(nil), data...)
		bad[at] = 7
		checkAgree(t, fmt.Sprintf("bad kind at %d", at), bad)
		// The object is read before the kind is checked.
		checkAgree(t, fmt.Sprintf("bad kind at %d, then the end", at), bad[:at+1])

		// The object varint runs from at+1 to the next event's start
		// (free) or to the size varint (alloc): replace it whole.
		objEnd := at + 1
		for data[objEnd] >= 0x80 {
			objEnd++
		}
		long := append(append(append([]byte(nil), data[:at+1]...), overlong...), data[objEnd+1:]...)
		checkAgree(t, fmt.Sprintf("overlong varint at %d", at), long)
		// Ten continuation bytes already overflow, with no eleventh.
		checkAgree(t, fmt.Sprintf("overlong varint at %d, then the end", at), long[:at+1+binary.MaxVarintLen64])

		if tr.Events[i].Kind == KindAlloc {
			mod := *tr
			mod.Events = append([]Event(nil), tr.Events...)
			mod.Events[i].Chain = callchain.ChainID(uint64(tr.Table.NumChains()))
			unknown, ustarts := encodeV2(t, &mod)
			checkAgree(t, fmt.Sprintf("unknown chain at %d", at), unknown)
			// The chain is checked before refs is read.
			checkAgree(t, fmt.Sprintf("unknown chain at %d, refs cut", at), unknown[:ustarts[i+1]-1])
		}
	}
	if tested < 5 {
		t.Fatalf("only %d events start near the refill boundary", tested)
	}
}
