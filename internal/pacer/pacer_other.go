//go:build !linux

package pacer

import "time"

// platformWaiter on non-Linux platforms has no high-resolution
// primitive; SleepUntil runs entirely on the time.Sleep fallback.
type platformWaiter struct{}

func (platformWaiter) init()                    {}
func (platformWaiter) sleep(time.Duration) bool { return false }
func (platformWaiter) highRes() bool            { return false }

// Close is a no-op on the fallback implementation.
func (platformWaiter) Close() error { return nil }
