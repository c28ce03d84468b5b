//go:build !unix

package server

// closedByPeer reports whether a pooled connection can no longer carry
// a request. Without a portable non-blocking peek, only bytes already
// buffered show it; a connection the peer closed fails its next call.
func (c *stageConn) closedByPeer() bool { return c.br.Buffered() > 0 }
