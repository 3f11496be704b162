//go:build race

package store

// raceEnabled reports a -race build, under which sync.Pool drops items at
// random, so allocation counts that go through a pool are not repeatable.
const raceEnabled = true
