package dataset

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/sample"
)

func TestMapBatchesCoversEverySampleOnce(t *testing.T) {
	for _, np := range []int{1, 4} {
		d := FromTexts(make([]string, 537))
		var visits atomic.Int64
		err := d.MapBatches(np, func(batch []*sample.Sample) error {
			if len(batch) == 0 {
				t.Error("empty batch")
			}
			for _, s := range batch {
				s.SetStat("seen", 1)
				visits.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if visits.Load() != 537 {
			t.Fatalf("np=%d: visited %d samples, want 537", np, visits.Load())
		}
		for i, s := range d.Samples {
			if _, ok := s.Stat("seen"); !ok {
				t.Fatalf("np=%d: sample %d not visited", np, i)
			}
		}
	}
}

func TestMapBatchesPropagatesError(t *testing.T) {
	d := FromTexts(make([]string, 100))
	wantErr := fmt.Errorf("boom")
	err := d.MapBatches(2, func(batch []*sample.Sample) error { return wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
}

func TestFilterBatchesMatchesFilter(t *testing.T) {
	texts := make([]string, 200)
	for i := range texts {
		texts[i] = fmt.Sprint(i)
	}
	for _, np := range []int{1, 3} {
		for _, collect := range []bool{true, false} {
			d := FromTexts(texts)
			keep := func(s *sample.Sample) bool { return len(s.Text) > 2 }
			kept, dropped := d.FilterBatches(np, collect, func(batch []*sample.Sample, verdict []bool) {
				for i, s := range batch {
					verdict[i] = keep(s)
				}
			})
			refKept, refDropped := d.Filter(np, keep)
			if kept.Len() != refKept.Len() {
				t.Fatalf("np=%d: kept %d, want %d", np, kept.Len(), refKept.Len())
			}
			for i := range kept.Samples {
				if kept.Samples[i] != refKept.Samples[i] {
					t.Fatalf("np=%d: kept order diverges at %d", np, i)
				}
			}
			if collect {
				if len(dropped) != len(refDropped) {
					t.Fatalf("np=%d: dropped %d, want %d", np, len(dropped), len(refDropped))
				}
			} else if dropped != nil {
				t.Fatalf("np=%d: dropped must be nil when not collected", np)
			}
		}
	}
}
