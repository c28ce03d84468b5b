package wal

import "encoding/binary"

// The Append/Cut helpers below are the field primitives of the
// segment record payloads, shared with other length-prefixed binary
// encoders in the repo (kvstore's checkpoint records) so every on-disk
// format speaks the uvarint dialect of the protocol's wire frames.

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendLenString appends a uvarint-length-prefixed string.
func AppendLenString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendLenBytes appends a uvarint-length-prefixed byte field.
func AppendLenBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// CutUvarint decodes a uvarint from the front of buf, returning the
// value and the remaining bytes. ok is false on a truncated field.
func CutUvarint(buf []byte) (v uint64, rest []byte, ok bool) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, buf, false
	}
	return v, buf[n:], true
}

// CutLenBytes decodes a uvarint-length-prefixed field from the front
// of buf, returning the field (aliasing buf) and the remaining bytes.
func CutLenBytes(buf []byte) (field, rest []byte, ok bool) {
	n, rest, ok := CutUvarint(buf)
	if !ok || n > uint64(len(rest)) {
		return nil, buf, false
	}
	return rest[:n], rest[n:], true
}
