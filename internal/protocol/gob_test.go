package protocol

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// The gob encoding of a Packet is not a wire format: BinaryCodec is.
// It survives here as the independent oracle the binary codec is
// checked against — gob derives its encoding from the struct by
// reflection, so a field BinaryCodec forgets shows up as a divergence.

// Encode serializes the packet as a self-contained gob stream.
func (p Packet) Encode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		return nil, fmt.Errorf("protocol: encode packet: %w", err)
	}
	return buf.Bytes(), nil
}

// Decode deserializes a packet produced by Encode.
func Decode(data []byte) (Packet, error) {
	var p Packet
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return Packet{}, fmt.Errorf("protocol: decode packet: %w", err)
	}
	return p, nil
}
