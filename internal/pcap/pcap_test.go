package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"

	"ghosts/internal/ipv4"
	"ghosts/internal/wire"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	ts := time.Date(2014, 6, 30, 12, 0, 0, 123456000, time.UTC)
	pkts := [][]byte{}
	for i := 0; i < 5; i++ {
		b, err := wire.EchoRequest(1, ipv4.Addr(uint32(i+10)), 7, uint16(i)).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		pkts = append(pkts, b)
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Second), b); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r.linkType != 101 {
		t.Fatalf("link type %d, want 101 (raw IP)", r.linkType)
	}
	for i := 0; ; i++ {
		p, err := r.Next()
		if err == io.EOF {
			if i != 5 {
				t.Fatalf("read %d packets, want 5", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p.Data, pkts[i]) {
			t.Fatalf("packet %d differs", i)
		}
		want := ts.Add(time.Duration(i) * time.Second)
		if !p.Time.Equal(want) {
			t.Fatalf("packet %d timestamp %v, want %v", i, p.Time, want)
		}
		// The payload must decode as a wire packet (raw IP linktype).
		if _, err := wire.Unmarshal(p.Data); err != nil {
			t.Fatalf("packet %d does not decode: %v", i, err)
		}
	}
}

func TestEmptyCaptureStillHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 24 {
		t.Fatalf("empty capture is %d bytes, want 24", buf.Len())
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	h := buf.Bytes()
	if binary.LittleEndian.Uint32(h[0:]) != 0xa1b2c3d4 {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint16(h[4:]) != 2 || binary.LittleEndian.Uint16(h[6:]) != 4 {
		t.Fatal("bad version")
	}
	if binary.LittleEndian.Uint32(h[20:]) != 101 {
		t.Fatal("bad linktype")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a pcap file at all....."))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
	// Valid header, truncated record.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WritePacket(time.Now(), []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Fatalf("truncated record: want error, got %v", err)
	}
}

func TestOversizePacketRejected(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.WritePacket(time.Now(), make([]byte, maxSnapLen+1)); err == nil {
		t.Fatal("oversize packet accepted")
	}
}
