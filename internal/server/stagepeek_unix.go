//go:build unix

package server

import "syscall"

// closedByPeer reports whether a pooled connection can no longer carry
// a request: the peer closed it, or sent bytes no request asked for.
// One recv with MSG_PEEK on the socket, which Go keeps non-blocking,
// answers without waiting and leaves any byte where it is. Only EAGAIN
// means the connection is open and quiet. A connection with no raw
// form is trusted.
func (c *stageConn) closedByPeer() bool {
	if c.br.Buffered() > 0 {
		return true
	}
	if c.raw == nil {
		return false
	}
	var (
		buf [1]byte
		err error
	)
	if rerr := c.raw.Read(func(fd uintptr) bool {
		_, _, err = syscall.Recvfrom(int(fd), buf[:], syscall.MSG_PEEK)
		return true
	}); rerr != nil {
		return true
	}
	return err != syscall.EAGAIN && err != syscall.EWOULDBLOCK
}
