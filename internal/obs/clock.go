package obs

import "time"

// clock is the package's injected time source: every wall-clock read
// in obs — trace starts, span timings, and the default for the
// windowed series' per-struct now seam — goes through it, so a test
// that swaps it (or a window's own now field) drives rotation, expiry
// and span durations virtually instead of sleeping. Production never
// touches it; referencing time.Now as a value here is the one
// sanctioned naked use (internal/lint's nakedclock flags calls, not the
// seam's default).
var clock = time.Now

// sinceClock is time.Since against the injected clock.
func sinceClock(t time.Time) time.Duration { return clock().Sub(t) }
