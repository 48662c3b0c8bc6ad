//go:build linux

package main

import (
	"fmt"
	"syscall"
	"time"
)

// fsMagic names the statfs magic numbers of common Linux filesystems.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x01021994: "tmpfs",
	0x794c7630: "overlayfs",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x6969:     "nfs",
	0x65735546: "fuse",
	0x01021997: "9p",
	0x2FC12FC1: "zfs",
}

// fsType names the filesystem holding dir (the file store's parent).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// processCPU is the process's user plus system CPU time so far. Time the
// hypervisor steals from the host's CPUs is not charged to it, so per-op
// CPU stays steady when wall times swing with a busy host.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
