package api

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
)

// MaxBody bounds every v1 JSON body, requests and responses alike.
const MaxBody = 1 << 20

// ErrBodyTooLarge is DecodeBody's error for a body over MaxBody.
var ErrBodyTooLarge = errors.New("body exceeds 1 MiB")

// bodyPool recycles the buffers bodies are read and encoded in. A
// buffer that grew past maxPooledBody is dropped rather than kept
// alive for small bodies.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBody = 64 << 10

// DecodeBody reads all of r, at most MaxBody bytes, into a pooled
// buffer and unmarshals it into v as one JSON value, through
// Unmarshal's fast paths for the v1 bodies. Data after the value is an
// error, and so is a body over MaxBody (ErrBodyTooLarge). An empty or
// blank body returns io.EOF, as json.Decoder does, and leaves v as it
// was. Both decoders copy everything they keep, so v holds no
// reference to the buffer, which goes back to the pool.
func DecodeBody(r io.Reader, v any) error {
	bp := bodyPool.Get().(*[]byte)
	b, err := readBody(r, (*bp)[:0])
	if err == nil {
		if len(bytes.TrimSpace(b)) == 0 {
			err = io.EOF
		} else {
			err = Unmarshal(b, v)
		}
	}
	putBody(bp, b)
	return err
}

// putBody returns a buffer to the pool unless it grew too large.
func putBody(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBody {
		*bp = b
		bodyPool.Put(bp)
	}
}

// readBody appends r's bytes to b until EOF, failing once they pass
// MaxBody.
func readBody(r io.Reader, b []byte) ([]byte, error) {
	if cap(b) == 0 {
		b = make([]byte, 0, 512)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)] // grow
		}
		n, err := r.Read(b[len(b):min(cap(b), MaxBody+1)])
		b = b[:len(b)+n]
		if len(b) > MaxBody {
			return b, ErrBodyTooLarge
		}
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, fmt.Errorf("read body: %w", err)
		}
	}
}
