package obs

// getg returns the address of the calling goroutine's runtime descriptor,
// read from thread-local storage (goid_linux_amd64.s).
func getg() uintptr
