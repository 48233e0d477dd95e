package affinity

import (
	"syscall"
	"unsafe"
)

// get reads the calling thread's processor set; false if the host refuses or
// has more processors than a mask holds.
func (m *mask) get() bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}

// set restricts the calling thread to m, moving it if it is elsewhere.
func (m *mask) set() bool {
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	return errno == 0
}
