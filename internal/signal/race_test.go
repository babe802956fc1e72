//go:build race

package signal

// raceEnabled reports a build with the race detector, under which a
// sync.Pool drops a random quarter of what it is given back, so a path
// that recycles bufpool buffers allocates where it otherwise would not.
const raceEnabled = true
