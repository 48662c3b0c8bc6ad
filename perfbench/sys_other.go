//go:build !linux

package main

import "time"

// fsType is only resolved on Linux.
func fsType(string) string { return "unknown" }

// processCPU is only measured on Linux.
func processCPU() time.Duration { return 0 }
