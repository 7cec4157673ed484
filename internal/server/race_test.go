//go:build race

package server

// raceEnabled reports whether the race detector is on. It drops a random
// quarter of sync.Pool puts, so pooled paths allocate more under it.
const raceEnabled = true
