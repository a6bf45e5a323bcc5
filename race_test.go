//go:build race

package rprism

// raceEnabled reports a -race build, under which allocation guards skip.
const raceEnabled = true
