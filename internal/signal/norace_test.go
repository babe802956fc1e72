//go:build !race

package signal

const raceEnabled = false
