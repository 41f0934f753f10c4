package main

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"qgov/internal/experiments"
)

// -seeds selects a prefix of the default seed list; a count outside
// [1, len(DefaultSeeds)] is an error that names the range, never a
// silently different seed set.
func TestSeedsFor(t *testing.T) {
	all := experiments.DefaultSeeds
	for n := 1; n <= len(all); n++ {
		got, err := seedsFor(n)
		if err != nil || !slices.Equal(got, all[:n]) {
			t.Errorf("seedsFor(%d) = %v, %v; want %v", n, got, err, all[:n])
		}
	}
	for _, n := range []int{-1, 0, len(all) + 1, 100} {
		got, err := seedsFor(n)
		if err == nil {
			t.Errorf("seedsFor(%d) = %v, want an error", n, got)
			continue
		}
		if want := fmt.Sprintf("want 1 to %d", len(all)); !strings.Contains(err.Error(), want) {
			t.Errorf("seedsFor(%d) error %q does not name the range %q", n, err, want)
		}
	}
}
