//go:build !linux

package affinity

// Threads cannot choose their processor here: every claim binds nothing.

func (m *mask) get() bool { return false }

func (m *mask) set() bool { return false }
