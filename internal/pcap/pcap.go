package pcap

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

const (
	magic       = 0xa1b2c3d4
	versionMaj  = 2
	versionMin  = 4
	linktypeRaw = 101 // raw IP
	maxSnapLen  = 262144
)

// Writer emits a pcap stream.
type Writer struct {
	w       *bufio.Writer
	started bool
}

// NewWriter wraps w; the file header is written lazily on the first packet
// (or by Flush).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

func (pw *Writer) writeHeader() error {
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint16(hdr[4:], versionMaj)
	binary.LittleEndian.PutUint16(hdr[6:], versionMin)
	// thiszone, sigfigs: zero.
	binary.LittleEndian.PutUint32(hdr[16:], maxSnapLen)
	binary.LittleEndian.PutUint32(hdr[20:], linktypeRaw)
	pw.started = true
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket appends one raw-IP packet with the given capture timestamp.
func (pw *Writer) WritePacket(ts time.Time, data []byte) error {
	if len(data) > maxSnapLen {
		return fmt.Errorf("pcap: packet of %d bytes exceeds snaplen", len(data))
	}
	if !pw.started {
		if err := pw.writeHeader(); err != nil {
			return err
		}
	}
	var rec [16]byte
	binary.LittleEndian.PutUint32(rec[0:], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(rec[4:], uint32(ts.Nanosecond()/1000))
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(rec[12:], uint32(len(data)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	_, err := pw.w.Write(data)
	return err
}

// Flush writes any buffered data (and the header, for an empty capture).
func (pw *Writer) Flush() error {
	if !pw.started {
		if err := pw.writeHeader(); err != nil {
			return err
		}
	}
	return pw.w.Flush()
}

// Packet is one captured record.
type Packet struct {
	Time time.Time
	Data []byte
}

// Reader parses a pcap stream written by this package (or any
// little-endian raw-IP pcap).
type Reader struct {
	r        *bufio.Reader
	linkType uint32
}

// NewReader validates the file header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: short header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != magic {
		return nil, fmt.Errorf("pcap: bad magic %#x (big-endian and nanosecond captures unsupported)", got)
	}
	if maj := binary.LittleEndian.Uint16(hdr[4:]); maj != versionMaj {
		return nil, fmt.Errorf("pcap: unsupported version %d", maj)
	}
	return &Reader{r: br, linkType: binary.LittleEndian.Uint32(hdr[20:])}, nil
}

// Next returns the next packet, or io.EOF at the end of the capture.
func (pr *Reader) Next() (Packet, error) {
	var rec [16]byte
	if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: short record header: %w", err)
	}
	sec := binary.LittleEndian.Uint32(rec[0:])
	usec := binary.LittleEndian.Uint32(rec[4:])
	capLen := binary.LittleEndian.Uint32(rec[8:])
	if capLen > maxSnapLen {
		return Packet{}, fmt.Errorf("pcap: record of %d bytes exceeds snaplen", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: truncated packet: %w", err)
	}
	return Packet{
		Time: time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data: data,
	}, nil
}
