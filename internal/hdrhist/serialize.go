package hdrhist

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Serialization: a fixed little-endian layout, so the encoded bytes
// are identical on any architecture regardless of native endianness.
// Only non-empty buckets are written, as ascending (index, count)
// pairs — a run-length-style sparse encoding that keeps labd cache
// entries and cross-process transfers proportional to the number of
// occupied buckets, not the configured range.
//
//	magic   "hdr1"                     4 bytes
//	bits    uint32  SubBucketBits
//	min     uint64  Float64bits(cfg.Min)
//	max     uint64  Float64bits(cfg.Max)
//	count   uint64
//	sum     uint64  Float64bits
//	vmin    uint64  Float64bits (observed; 0-bits when empty)
//	vmax    uint64  Float64bits (observed; 0-bits when empty)
//	pairs   uint32  number of (index, count) pairs
//	        pairs × { index uint32, count uint64 }
const (
	magic      = "hdr1"
	headerSize = 4 + 4 + 8*6 + 4
	pairSize   = 4 + 8
)

// MarshalBinary encodes the histogram in the stable wire layout.
func (h *Hist) MarshalBinary() ([]byte, error) {
	pairs := 0
	h.ForEachBucket(func(Bucket) { pairs++ })
	buf := make([]byte, headerSize+pairs*pairSize)
	copy(buf, magic)
	le := binary.LittleEndian
	le.PutUint32(buf[4:], uint32(h.cfg.SubBucketBits))
	le.PutUint64(buf[8:], math.Float64bits(h.cfg.Min))
	le.PutUint64(buf[16:], math.Float64bits(h.cfg.Max))
	le.PutUint64(buf[24:], h.count)
	le.PutUint64(buf[32:], math.Float64bits(h.sum))
	le.PutUint64(buf[40:], math.Float64bits(h.min))
	le.PutUint64(buf[48:], math.Float64bits(h.max))
	le.PutUint32(buf[56:], uint32(pairs))
	off := headerSize
	h.ForEachBucket(func(b Bucket) {
		le.PutUint32(buf[off:], uint32(b.Index))
		le.PutUint64(buf[off+4:], b.Count)
		off += pairSize
	})
	return buf, nil
}

// Decode builds a histogram from bytes previously encoded with
// MarshalBinary — the convenience constructor for cross-process
// transfers (a fleet aggregator decoding peer nodes' histograms).
func Decode(data []byte) (*Hist, error) {
	h := new(Hist)
	if err := h.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return h, nil
}

// UnmarshalBinary decodes a histogram previously encoded with
// MarshalBinary, replacing h's configuration and contents.
func (h *Hist) UnmarshalBinary(data []byte) error {
	if len(data) < headerSize || string(data[:4]) != magic {
		return fmt.Errorf("hdrhist: bad header (%d bytes)", len(data))
	}
	le := binary.LittleEndian
	cfg := Config{
		SubBucketBits: uint(le.Uint32(data[4:])),
		Min:           math.Float64frombits(le.Uint64(data[8:])),
		Max:           math.Float64frombits(le.Uint64(data[16:])),
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	nh := New(cfg)
	nh.count = le.Uint64(data[24:])
	nh.sum = math.Float64frombits(le.Uint64(data[32:]))
	nh.min = math.Float64frombits(le.Uint64(data[40:]))
	nh.max = math.Float64frombits(le.Uint64(data[48:]))
	pairs := int(le.Uint32(data[56:]))
	if len(data) != headerSize+pairs*pairSize {
		return fmt.Errorf("hdrhist: body length %d does not match %d pairs", len(data)-headerSize, pairs)
	}
	prev := -1
	var total uint64
	for p := 0; p < pairs; p++ {
		off := headerSize + p*pairSize
		idx := int(le.Uint32(data[off:]))
		c := le.Uint64(data[off+4:])
		if idx <= prev || idx >= nh.numBuckets || c == 0 || total+c < total {
			return fmt.Errorf("hdrhist: corrupt pair %d (index %d, count %d)", p, idx, c)
		}
		nh.incr(idx, c)
		total += c
		prev = idx
	}
	if total != nh.count {
		return fmt.Errorf("hdrhist: bucket total %d does not match count %d", total, nh.count)
	}
	*h = *nh
	return nil
}
