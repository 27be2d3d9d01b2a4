package dict

import (
	"encoding/binary"
	"fmt"

	"morphstore/internal/qerr"
)

// This file implements the dictionary journal wire codec under the engine's
// corruption taxonomy: every record is length-prefixed and FNV-1a
// checksummed, the decoder never panics, never allocates proportionally to
// an unvalidated length, and classifies every structural defect as
// qerr.ErrCorruptData (FuzzDictJournal drives this).
//
// Record layout (little-endian):
//
//	u8  kind        recAdd
//	u32 payloadLen  bytes of payload
//	[]  payload
//	u64 checksum    FNV-1a over kind, payloadLen, payload
//
// Add payload: u32 count, then count strings as u16 length + bytes. IDs are
// implicit: the i-th string of the journal (across records) has ID i, the
// same first-occurrence order Add assigns. A sorted rebuild rewrites the
// whole journal to one record in the new ID order, mirroring the delta
// journal rewrite at remorph swap.
const (
	recAdd = 1

	recHeaderLen   = 5 // kind + payload length
	recChecksumLen = 8
	maxStrLen      = 1<<16 - 1
)

// corrupt wraps a journal decoding defect with the corruption sentinel.
func corrupt(format string, args ...any) error {
	return qerr.Tag(fmt.Errorf("dict: journal: "+format, args...), qerr.ErrCorruptData)
}

// fnv1a is the 64-bit FNV-1a hash the record checksums use (identical to the
// delta journal's).
func fnv1a(seed uint64, b []byte) uint64 {
	h := seed
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// appendRecord frames one record: header, payload, checksum.
func appendRecord(dst []byte, kind byte, payload []byte) []byte {
	var hdr [recHeaderLen]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	sum := fnv1a(fnv1a(fnvOffset, hdr[:]), payload)
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint64(dst, sum)
}

// encodeAdd appends an add record for the fresh strings, in ID order.
func encodeAdd(dst []byte, strs []string) []byte {
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(strs)))
	for _, s := range strs {
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(s)))
		payload = append(payload, s...)
	}
	return appendRecord(dst, recAdd, payload)
}

// readRecord decodes the first record of b into strs (in ID order) and
// returns the remaining bytes. Every defect — truncation, a bad checksum, an
// unknown kind, an oversized string, trailing bytes — is an error matching
// qerr.ErrCorruptData.
func readRecord(b []byte) ([]string, []byte, error) {
	if len(b) < recHeaderLen+recChecksumLen {
		return nil, nil, corrupt("truncated record header (%d bytes)", len(b))
	}
	kind := b[0]
	plen := int(binary.LittleEndian.Uint32(b[1:recHeaderLen]))
	if plen > len(b)-recHeaderLen-recChecksumLen {
		return nil, nil, corrupt("truncated record payload (%d of %d bytes)", len(b)-recHeaderLen-recChecksumLen, plen)
	}
	payload := b[recHeaderLen : recHeaderLen+plen]
	sum := binary.LittleEndian.Uint64(b[recHeaderLen+plen:])
	if want := fnv1a(fnv1a(fnvOffset, b[:recHeaderLen]), payload); sum != want {
		return nil, nil, corrupt("checksum mismatch")
	}
	rest := b[recHeaderLen+plen+recChecksumLen:]
	if kind != recAdd {
		return nil, nil, corrupt("unknown record kind %d", kind)
	}
	strs, err := decodeAdd(payload)
	return strs, rest, err
}

// decodeAdd parses an add payload.
func decodeAdd(p []byte) ([]string, error) {
	if len(p) < 4 {
		return nil, corrupt("add record: truncated count")
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if count == 0 {
		return nil, corrupt("add record: zero strings")
	}
	// The count is unvalidated input: cap the allocation hint, the loop is
	// bounded by the payload length checks.
	strs := make([]string, 0, min(count, 64))
	for i := 0; i < count; i++ {
		if len(p) < 2 {
			return nil, corrupt("add record: truncated string length")
		}
		slen := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if len(p) < slen {
			return nil, corrupt("add record: truncated string (%d of %d bytes)", len(p), slen)
		}
		strs = append(strs, string(p[:slen]))
		p = p[slen:]
	}
	if len(p) != 0 {
		return nil, corrupt("add record: %d trailing payload bytes", len(p))
	}
	return strs, nil
}

// Replay rebuilds a dictionary from a journal previously returned by
// Dict.Journal: the result holds the same string→ID mapping. A journal that
// is truncated, bit-flipped, or contains duplicate strings returns an error
// matching qerr.ErrCorruptData; Replay never panics on hostile input.
func Replay(journal []byte) (*Dict, error) {
	d := New()
	for len(journal) > 0 {
		strs, rest, err := readRecord(journal)
		if err != nil {
			return nil, err
		}
		journal = rest
		s := d.cur.Load()
		seen := make(map[string]struct{}, len(strs))
		for _, str := range strs {
			if _, ok := s.ids[str]; ok {
				return nil, corrupt("duplicate string %q", str)
			}
			if _, ok := seen[str]; ok {
				return nil, corrupt("duplicate string %q", str)
			}
			seen[str] = struct{}{}
		}
		d.journal = encodeAdd(d.journal, strs)
		d.publish(s, strs)
	}
	return d, nil
}
