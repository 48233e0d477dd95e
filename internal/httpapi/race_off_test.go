//go:build !race

package httpapi

const raceDetector = false
