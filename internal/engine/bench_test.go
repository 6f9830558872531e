package engine

import (
	"testing"

	"consumelocal/internal/sim"
	"consumelocal/internal/trace"
)

// feedTrace builds a start-ordered trace whose sessions never overlap
// within a swarm: settlement degenerates to single-member intervals, so
// the benchmark isolates the feed→shard→tracker hand-off — validation,
// keying, batching, channel traffic and event scheduling — rather than
// the matching arithmetic.
func feedTrace(n int) *trace.Trace {
	sessions := make([]trace.Session, n)
	for i := range sessions {
		sessions[i] = trace.Session{
			UserID:      uint32(i % 1000),
			ContentID:   uint32(i % 100000),
			ISP:         uint8(i % 5),
			Exchange:    uint16(i % 32),
			StartSec:    int64(i / 100),
			DurationSec: 30,
			Bitrate:     trace.BitrateSD,
		}
	}
	return &trace.Trace{
		Name:       "feed",
		HorizonSec: int64(n/100) + 3600,
		NumUsers:   1000,
		NumContent: 100000,
		NumISPs:    5,
		Sessions:   sessions,
	}
}

// BenchmarkShardBatchFeed measures the batched feed→worker hand-off:
// sessions/s through the sharded pipeline when per-interval settlement
// work is negligible.
func BenchmarkShardBatchFeed(b *testing.B) {
	tr := feedTrace(200000)
	simCfg := sim.DefaultConfig(1.0)
	simCfg.TrackUsers = false
	cfg := Config{Sim: simCfg, Workers: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := Stream(TraceSource(tr), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.Result(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Sessions)), "sessions/op")
}

// BenchmarkStreamShortWindows replays a replay-vod-shaped trace (scale
// 0.01, 2 days) at 600 s windows with 2 workers: 288 window marks, so
// any cost paid per mark — such as workers idling at a barrier while
// the feed collects their replies — shows in sessions/s.
// BenchmarkReplayStreaming's 24 h windows hide it.
func BenchmarkStreamShortWindows(b *testing.B) {
	gcfg := trace.DefaultGeneratorConfig(0.01)
	gcfg.Days = 2
	tr, err := trace.Generate(gcfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{Sim: sim.DefaultConfig(1.0), WindowSec: 600, Workers: 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run, err := Stream(TraceSource(tr), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := run.Result(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.Sessions))*float64(b.N)/b.Elapsed().Seconds(), "sessions/s")
}
