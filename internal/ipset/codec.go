package ipset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"ghosts/internal/ipv4"
)

// Binary serialisation for observation sets, so collected datasets can be
// persisted and exchanged between pipeline stages. The format is
// page-oriented and delta-compressed:
//
//	magic "GSET" | version u8 | pageCount uvarint
//	then per occupied /24 page, in ascending order:
//	  delta-encoded page index uvarint | 4 × u64 little-endian bitmap
//
// A set with n occupied pages costs ≈ 34·n bytes regardless of how many
// addresses each page holds — for the dense pages the pipeline produces
// this beats address-list encodings by an order of magnitude.

var codecMagic = [4]byte{'G', 'S', 'E', 'T'}

const codecVersion = 1

// WriteTo serialises the set. It implements io.WriterTo.
func (s *Set) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var n int64
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.Write(codecMagic[:])); err != nil {
		return n, err
	}
	if err := count(bw.Write([]byte{codecVersion})); err != nil {
		return n, err
	}
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		k := binary.PutUvarint(scratch[:], v)
		return count(bw.Write(scratch[:k]))
	}
	if err := putUvarint(uint64(len(s.pages))); err != nil {
		return n, err
	}
	prev := uint64(0)
	first := true
	var werr error
	s.RangeSlash24(func(base ipv4.Addr, _ int) bool {
		idx := uint64(base.Slash24Index())
		delta := idx - prev
		if first {
			delta = idx
			first = false
		}
		prev = idx
		if werr = putUvarint(delta); werr != nil {
			return false
		}
		p := s.pages[uint32(idx)]
		var word [8]byte
		for w := 0; w < 4; w++ {
			binary.LittleEndian.PutUint64(word[:], p[w])
			if werr = count(bw.Write(word[:])); werr != nil {
				return false
			}
		}
		return true
	})
	if werr != nil {
		return n, werr
	}
	return n, bw.Flush()
}

// ReadFrom deserialises into s, replacing its contents. It implements
// io.ReaderFrom.
func (s *Set) ReadFrom(r io.Reader) (int64, error) {
	br := bufio.NewReader(r)
	cr := &countingReader{r: br}
	var hdr [5]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return cr.n, fmt.Errorf("ipset: short header: %w", err)
	}
	if [4]byte{hdr[0], hdr[1], hdr[2], hdr[3]} != codecMagic {
		return cr.n, errors.New("ipset: bad magic")
	}
	if hdr[4] != codecVersion {
		return cr.n, fmt.Errorf("ipset: unsupported version %d", hdr[4])
	}
	pageCount, err := binary.ReadUvarint(cr)
	if err != nil {
		return cr.n, fmt.Errorf("ipset: page count: %w", err)
	}
	if pageCount > 1<<24 {
		return cr.n, fmt.Errorf("ipset: impossible page count %d", pageCount)
	}
	s.pages = make(map[uint32]*page, pageCount)
	s.size = 0
	s.last = nil
	idx := uint64(0)
	for i := uint64(0); i < pageCount; i++ {
		delta, err := binary.ReadUvarint(cr)
		if err != nil {
			return cr.n, fmt.Errorf("ipset: page %d index: %w", i, err)
		}
		if i == 0 {
			idx = delta
		} else {
			idx += delta
		}
		if idx >= 1<<24 {
			return cr.n, fmt.Errorf("ipset: page index %d out of range", idx)
		}
		var p page
		var word [8]byte
		for w := 0; w < 4; w++ {
			if _, err := io.ReadFull(cr, word[:]); err != nil {
				return cr.n, fmt.Errorf("ipset: page %d bitmap: %w", i, err)
			}
			p[w] = binary.LittleEndian.Uint64(word[:])
		}
		if p.empty() {
			return cr.n, fmt.Errorf("ipset: empty page %d encoded", i)
		}
		cp := p
		s.pages[uint32(idx)] = &cp
		s.size += cp.count()
	}
	return cr.n, nil
}

// countingReader tracks consumed bytes and satisfies io.ByteReader for
// ReadUvarint.
type countingReader struct {
	r *bufio.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	k, err := c.r.Read(p)
	c.n += int64(k)
	return k, err
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}
