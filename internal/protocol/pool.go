package protocol

import "sync"

// FrameBufPool pools frame assembly buffers for transports: Get a
// buffer, AppendFrame into it, write it, return it via PutFrameBuf.
// Buffers keep their grown capacity across uses, so steady-state
// framing does not allocate.
var FrameBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 4096); return &b },
}

// MaxPooledFrameBuf is the largest buffer capacity FrameBufPool will
// retain. One jumbo frame would otherwise grow a pooled buffer and pin
// that memory for as long as the pool keeps recycling it.
const MaxPooledFrameBuf = 1 << 20

// PutFrameBuf returns a frame buffer to FrameBufPool, dropping buffers
// that grew beyond MaxPooledFrameBuf so outliers are garbage collected
// instead of retained.
func PutFrameBuf(buf *[]byte) {
	if cap(*buf) > MaxPooledFrameBuf {
		return
	}
	*buf = (*buf)[:0]
	FrameBufPool.Put(buf)
}

// msgSlicePool recycles []Message backing arrays between decode (which
// produces them) and the consumer that has finished dispatching a
// packet. Ownership is explicit: whoever calls PutMsgSlice asserts no
// live reference into the slice remains.
var msgSlicePool = sync.Pool{
	New: func() any { s := make([]Message, 0, 8); return &s },
}

// maxPooledMsgs bounds the capacity the message pool retains, mirroring
// MaxPooledFrameBuf: packets are a handful of messages at steady state.
const maxPooledMsgs = 256

// GetMsgSlice returns a zero-length message slice with capacity for at
// least n messages, drawn from the shared pool when possible.
func GetMsgSlice(n int) []Message {
	sp := msgSlicePool.Get().(*[]Message)
	s := *sp
	if cap(s) < n {
		// Hand the too-small backing straight back and allocate right-
		// sized; grow-in-place would churn the pool with dead arrays.
		msgSlicePool.Put(sp)
		return make([]Message, 0, n)
	}
	// Keep the pointer box out of the hot path: rewrap on Put.
	return s
}

// PutMsgSlice recycles a message slice obtained from GetMsgSlice (or
// any slice the caller owns outright). Elements are cleared first so
// pooled arrays don't pin Heuristics or Payload allocations.
func PutMsgSlice(s []Message) {
	if cap(s) == 0 || cap(s) > maxPooledMsgs {
		return
	}
	s = s[:cap(s)]
	clear(s)
	s = s[:0]
	msgSlicePool.Put(&s)
}
