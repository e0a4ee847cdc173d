package main

import "testing"

// TestRuns runs the example end to end. Whatever goes wrong in it — a
// log.Fatal, or a run that panics on a location it rejects — fails the
// test.
func TestRuns(t *testing.T) { main() }
