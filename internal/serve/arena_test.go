package serve

import (
	"context"
	"testing"
)

// TestServeArenaRecycleBitIdentical pins scratch recycling across queued
// jobs: a job that re-runs a design on package-pool scratch warmed by jobs
// of other sizes must produce bit-identical metrics to the first run. A
// 1-entry result cache plus an interleaved C5 job forces the second C4
// submission to actually re-execute instead of hitting the cache.
func TestServeArenaRecycleBitIdentical(t *testing.T) {
	_, client := newTestServer(t, Config{MaxRunning: 1, CacheEntries: 1})
	ctx := context.Background()

	req := &Request{Design: "C4", IncludeSinkDelays: true}
	cold, err := client.Synthesize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Synthesize(ctx, &Request{Design: "C5"}); err != nil {
		t.Fatal(err) // evicts C4 from the 1-entry cache
	}
	warm, err := client.Synthesize(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHit {
		t.Fatal("second C4 run was a cache hit; the recycle path never ran")
	}

	cm, wm := cold.Result.Metrics, warm.Result.Metrics
	if cm.Latency != wm.Latency || cm.Skew != wm.Skew || cm.WL != wm.WL ||
		cm.Buffers != wm.Buffers || cm.NTSVs != wm.NTSVs {
		t.Fatalf("recycled-scratch run differs from cold run:\ncold %+v\nwarm %+v", cm, wm)
	}
	for idx, d := range cm.SinkDelays {
		if wm.SinkDelays[idx] != d {
			t.Fatalf("sink %d delay %v != %v on recycled scratch", idx, wm.SinkDelays[idx], d)
		}
	}
}
