package churnsim

import (
	goruntime "runtime"
	"testing"

	"camcast/internal/runtime"
)

// TestRunLiveMem: a scheduler-driven live run on the mem transport under
// the virtual clock converges, delivers probes, and reports percentiles.
func TestRunLiveMem(t *testing.T) {
	members := 600
	if testing.Short() {
		members = 200
	}
	base := goruntime.NumGoroutine()
	res, err := RunLive(LiveConfig{
		Mode:        runtime.ModeCAMChord,
		Members:     members,
		Transport:   "mem",
		Shards:      1,
		Seed:        42,
		ChurnEvents: 60,
		Probes:      6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Members != members || res.Joins < members-1 {
		t.Fatalf("joins = %d for %d members", res.Joins, res.Members)
	}
	if res.RingCorrect < 0.95 {
		t.Fatalf("ring correctness %.3f after repair, want >= 0.95", res.RingCorrect)
	}
	if res.MeanDelivery < 0.95 {
		t.Fatalf("mean delivery %.3f, want >= 0.95", res.MeanDelivery)
	}
	if res.Probes == 0 || res.McastP99Ms <= 0 || res.JoinP99Ms <= 0 {
		t.Fatalf("percentiles missing: %+v", res)
	}
	if res.JoinP50Ms > res.JoinP99Ms {
		t.Fatalf("p50 %.3f > p99 %.3f", res.JoinP50Ms, res.JoinP99Ms)
	}
	// Virtual-time mem mode hosts the whole membership with no standing
	// goroutines beyond the test's baseline.
	if res.Goroutines > base+2 {
		t.Fatalf("hosting %d members used %d goroutines (base %d)", members, res.Goroutines, base)
	}
	if res.Leaves > 0 && res.LeaveP99Ms <= 0 {
		t.Fatalf("leave percentiles missing with %d leaves", res.Leaves)
	}
	// The default ramp is bulk construction: its phase timings and the
	// arena-occupancy stats must come back populated and sane.
	if res.BulkRampSeconds <= 0 || res.VerifySeconds <= 0 {
		t.Fatalf("bulk phase timings missing: ramp %.3fs verify %.3fs",
			res.BulkRampSeconds, res.VerifySeconds)
	}
	if res.ArenaSlots < members || res.ArenaLive <= 0 || res.ArenaLive > res.ArenaSlots {
		t.Fatalf("arena stats implausible: %d slots, %d live", res.ArenaSlots, res.ArenaLive)
	}
	if res.ArenaOccupancy <= 0 || res.ArenaOccupancy > 1 {
		t.Fatalf("arena occupancy %.3f outside (0, 1]", res.ArenaOccupancy)
	}
}

// TestRunLiveMemJoinRamp keeps the incremental ramp covered end to end: the
// pre-bulk join path must still converge and deliver, and must not report
// bulk phase timings.
func TestRunLiveMemJoinRamp(t *testing.T) {
	res, err := RunLive(LiveConfig{
		Mode:        runtime.ModeCAMChord,
		Members:     150,
		Transport:   "mem",
		Shards:      1,
		Seed:        7,
		Ramp:        "join",
		ChurnEvents: 30,
		Probes:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Joins < 149 {
		t.Fatalf("joins = %d for 150 members", res.Joins)
	}
	if res.RingCorrect < 0.95 {
		t.Fatalf("ring correctness %.3f", res.RingCorrect)
	}
	// Crashes mid-probe cost a few deliveries; 0.9 matches the TCP bound.
	if res.MeanDelivery < 0.9 {
		t.Fatalf("mean delivery %.3f", res.MeanDelivery)
	}
	if res.BulkRampSeconds != 0 || res.VerifySeconds != 0 {
		t.Fatalf("join ramp reported bulk timings: ramp %.3fs verify %.3fs",
			res.BulkRampSeconds, res.VerifySeconds)
	}
}

// TestRunLiveTCP: the same flow over real loopback sockets with wall-clock
// shard loops. Small membership — every member owns a listener.
func TestRunLiveTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("tcp live run is wall-clock paced")
	}
	res, err := RunLive(LiveConfig{
		Mode:        runtime.ModeCAMChord,
		Members:     40,
		Transport:   "tcp",
		Shards:      2,
		Seed:        7,
		ChurnEvents: 20,
		Probes:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ring correctness %.3f, mean delivery %.3f", res.RingCorrect, res.MeanDelivery)
	if res.RingCorrect < 0.9 {
		t.Fatalf("ring correctness %.3f", res.RingCorrect)
	}
	if res.MeanDelivery < 0.9 {
		t.Fatalf("mean delivery %.3f", res.MeanDelivery)
	}
}

func TestRunLiveValidates(t *testing.T) {
	if _, err := RunLive(LiveConfig{Mode: runtime.ModeCAMChord, Members: 1}); err == nil {
		t.Fatal("1-member run should be rejected")
	}
	if _, err := RunLive(LiveConfig{Mode: runtime.ModeCAMChord, Members: 10, Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown transport should be rejected")
	}
}
