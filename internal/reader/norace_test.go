//go:build !race

package reader

const raceEnabled = false
