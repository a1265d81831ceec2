package obs

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

// goroutineIDs caches stackGoroutineID by the address of the calling
// goroutine's runtime descriptor (getg), so that opening a span costs one
// map load instead of a walk of the whole stack — the walk grows with the
// stack depth and dominated the span overhead of short solves.
var goroutineIDs sync.Map // descriptor address → int64

// goroutineID returns the id a span records for the calling goroutine. Only
// called on the enabled path; the runtime has no public accessor.
//
// Where getg is available, the id is the one stackGoroutineID read for the
// first goroutine seen on the caller's runtime descriptor. The runtime reuses
// the descriptors of exited goroutines, so a later goroutine may report an
// earlier one's id; two goroutines that run at the same time never share an
// id, which is what span nesting and trace lanes rely on. Without getg every
// call walks the stack.
func goroutineID() int64 {
	g := getg()
	if g == 0 {
		return stackGoroutineID()
	}
	if id, ok := goroutineIDs.Load(g); ok {
		return id.(int64)
	}
	id := stackGoroutineID()
	goroutineIDs.Store(g, id)
	return id
}

// stackGoroutineID parses the current goroutine's id from its stack header
// ("goroutine N [...]"). Ids wider than the fast 40-byte buffer (the header
// would be truncated mid-digits, which must not parse as a wrong id) fall
// back to a larger buffer; a still-unparseable header yields -1.
func stackGoroutineID() int64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	if id, ok := parseGoroutineID(buf[:n]); ok {
		return id
	}
	big := make([]byte, 128)
	n = runtime.Stack(big, false)
	if id, ok := parseGoroutineID(big[:n]); ok {
		return id
	}
	return -1
}

// parseGoroutineID extracts N from a "goroutine N [...]" stack header. It
// requires the separator after the id to be present — a header truncated
// inside the digits (possible when the capture buffer is smaller than the
// header) is rejected rather than parsed as a shorter, wrong id.
func parseGoroutineID(s []byte) (int64, bool) {
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	i := bytes.IndexByte(s, ' ')
	if i <= 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(string(s[:i]), 10, 64)
	if err != nil || id < 0 {
		return 0, false
	}
	return id, true
}
