package app

import (
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/video"
)

// TestSortByScoreMatchesSortSlice runs the detect stage over the 32 frames
// of the showcase benchmark's ring and sorts each frame's SSD rows, in row
// order, both by sortByScore and by the sort.Slice call it replaced: the
// two must leave every row, tied scores included, in the same place.
func TestSortByScoreMatchesSortSlice(t *testing.T) {
	sc, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	src, err := video.NewSource(160, 120, 2, 2, 42)
	if err != nil {
		t.Fatal(err)
	}
	rows, ties := 0, 0
	for _, f := range src.Frames(32) {
		sc.detGM.SetInput(sc.detName, sc.prepareDetInput(f.Image))
		if err := sc.detGM.Run(); err != nil {
			t.Fatal(err)
		}
		dets, err := ssdRows(nil, sc.detGM.MustOutput(0), sc.detGM.MustOutput(1),
			f.Image.Shape[2], f.Image.Shape[1], sc.cfg.ScoreThreshold)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(dets)
		sort.Slice(want, func(i, j int) bool { return want[i].Score > want[j].Score })
		sortByScore(dets)
		if !reflect.DeepEqual(dets, want) {
			t.Fatalf("frame %d: sortByScore %v, sort.Slice %v", f.Index, dets, want)
		}
		rows += len(dets)
		for i := 1; i < len(dets); i++ {
			if dets[i].Score == dets[i-1].Score {
				ties++
			}
		}
	}
	t.Logf("%d rows, %d tied with their predecessor", rows, ties)
	if ties == 0 {
		t.Fatal("no tied scores on the ring: the test cannot see how ties are ordered")
	}
}
