//go:build race

package httpapi

// raceDetector: the binary was built with -race, under which sync.Pool drops
// a quarter of what it is given, at random — so a byte budget that counts on
// the hand-over pools does not hold.
const raceDetector = true
