//go:build !linux || !amd64

package obs

// getg reports 0 (no descriptor address) where there is no assembly stub;
// goroutineID then reads every id from the stack header.
func getg() uintptr { return 0 }
