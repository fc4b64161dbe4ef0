package main

import (
	"math/rand"
	"sort"

	"speedlight/internal/sim"
	"speedlight/internal/topology"
)

// trafficKind selects how the per-host packet schedules are drawn.
type trafficKind int

const (
	// uniform is open-loop all-to-all traffic: Poisson arrivals per
	// host, each packet to a uniformly drawn other host, frame sizes
	// mixed between 64 and 1500 bytes.
	uniform trafficKind = iota
	// shuffle is bursty shuffle traffic: each host walks its own
	// permutation of the other hosts, sending one burst of
	// back-to-back frames to each, separated by exponential idle gaps.
	shuffle
)

// workload is one named benchmark configuration. Every workload uses
// the same leaf-spine fabric; they differ in engine, traffic and which
// analysis-plane pieces are attached. BENCHMARK.json at the repository
// root says why each one is there.
type workload struct {
	name         string
	channelState bool
	// analysis attaches the journal, snapstore and invariants, runs a
	// snapstore reader beside the campaign, and runs Audit and
	// EpochTraces after it. Without it the campaign's snapshots are
	// re-ingested into a fresh store after the campaign and queried
	// back to back (see queryBurst).
	analysis bool
	traffic  trafficKind
	// rate is the mean packets per virtual second each host injects.
	rate float64
	// horizon is the virtual length of the traffic schedule; the
	// campaign issues snapshots until the schedule runs out.
	horizon sim.Duration
	// gap is the virtual time run between facade Snapshot calls.
	gap sim.Duration
	// warmup is the virtual time set-up ends at: 1 ms of traffic, one
	// snapshot, then on to this time. A fixed end keeps set-up's work
	// the same however many 1 ms steps the facade needed to see the
	// warm-up snapshot complete.
	warmup sim.Duration
	// queryRate is the reader's fixed wall-clock rate beside the
	// campaign, queries per second. It is kept low enough for the
	// reader to sleep between queries instead of spinning on the second
	// CPU.
	queryRate float64
	// journalRing is the per-switch flight-recorder capacity, sized so
	// one episode never overwrites (Audit then covers every round).
	journalRing int
}

// The shared fabric: 8 leaves, 4 spines, 4 hosts per leaf (the shape
// of the repository's ShardScaling fabric; the facade fixes 1 µs links
// and emunet's default 25 Gb/s link rate).
const (
	fabricLeaves       = 8
	fabricSpines       = 4
	fabricHostsPerLeaf = 4
)

// Traffic rates, packets per virtual second per host.
const (
	// fabricRate is the source rate of the repository's
	// BenchmarkShardScaling: one packet per microsecond per host. With
	// the mixed frames (782 B on average) that loads each host link to
	// about 25% of 25 Gb/s and each leaf uplink to about 23%, enough for
	// egress queues to build (a high-water mark of 9 packets) without
	// drops.
	fabricRate = 1_000_000
	// stormRate keeps packet work to about an eighth of the storm's
	// wall time: some 100 packets per snapshot round of 12 virtual ms,
	// which at fabric-forward's cost per packet is under 0.4 ms of
	// a round's 3 ms of wall time. Every host still sends a burst every
	// 80 virtual ms on average, so the counters and channel state the
	// snapshots record keep changing.
	stormRate = 250
)

var workloads = []workload{
	{
		name:    "fabric-forward",
		traffic: uniform,
		rate:    fabricRate,
		horizon: 40 * sim.Millisecond,
		gap:     sim.Millisecond,
		warmup:  7 * sim.Millisecond,
	},
	{
		name:         "snapshot-storm",
		channelState: true,
		analysis:     true,
		traffic:      shuffle,
		rate:         stormRate,
		horizon:      840 * sim.Millisecond,
		warmup:       16 * sim.Millisecond,
		queryRate:    200,
		journalRing:  1 << 15,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// schedule is one host's generated packet train, in injection order.
type schedule struct {
	host  topology.HostID
	at    []sim.Time
	dst   []uint32
	size  []uint32
	sport []uint16
}

// generate draws every host's schedule from seed. The same seed, hosts
// and workload give the same schedules.
func generate(w workload, hosts []topology.HostID, seed int64) []*schedule {
	hosts = append([]topology.HostID(nil), hosts...)
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	r := rand.New(rand.NewSource(seed))
	out := make([]*schedule, len(hosts))
	for i, h := range hosts {
		s := &schedule{host: h}
		switch w.traffic {
		case uniform:
			drawUniform(s, r, hosts, w.rate, w.horizon)
		case shuffle:
			drawShuffle(s, r, hosts, w.rate, w.horizon)
		}
		out[i] = s
	}
	return out
}

// frameSize draws the mixed frame-size distribution: 40% minimum-size
// frames, 40% full-size frames, the rest uniform in between.
func frameSize(r *rand.Rand) uint32 {
	switch p := r.Float64(); {
	case p < 0.4:
		return 64
	case p < 0.8:
		return 1500
	default:
		return uint32(65 + r.Intn(1435))
	}
}

func (s *schedule) add(at sim.Time, dst topology.HostID, size uint32, sport uint16) {
	s.at = append(s.at, at)
	s.dst = append(s.dst, uint32(dst))
	s.size = append(s.size, size)
	s.sport = append(s.sport, sport)
}

func drawUniform(s *schedule, r *rand.Rand, hosts []topology.HostID, rate float64, horizon sim.Duration) {
	self := sort.Search(len(hosts), func(i int) bool { return hosts[i] >= s.host })
	mean := float64(sim.Second) / rate
	t := sim.Time(0)
	for {
		t = t.Add(1 + sim.Duration(r.ExpFloat64()*mean))
		if t >= sim.Time(horizon) {
			return
		}
		d := r.Intn(len(hosts) - 1)
		if d >= self {
			d++
		}
		s.add(t, hosts[d], frameSize(r), uint16(1024+r.Intn(64000)))
	}
}

// Shuffle bursts are 8 to 32 frames, one per microsecond.
const (
	burstMin     = 8
	burstMax     = 32
	burstSpacing = sim.Microsecond
)

func drawShuffle(s *schedule, r *rand.Rand, hosts []topology.HostID, rate float64, horizon sim.Duration) {
	var peers []topology.HostID
	for _, h := range hosts {
		if h != s.host {
			peers = append(peers, h)
		}
	}
	r.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
	meanBurst := float64(burstMin+burstMax) / 2
	meanGap := meanBurst / rate * float64(sim.Second)
	t := sim.Time(r.Int63n(int64(meanGap)))
	for k := 0; ; k++ {
		dst := peers[k%len(peers)]
		sport := uint16(1024 + r.Intn(64000))
		n := burstMin + r.Intn(burstMax-burstMin+1)
		for i := 0; i < n; i++ {
			at := t.Add(sim.Duration(i) * burstSpacing)
			if at >= sim.Time(horizon) {
				return
			}
			s.add(at, dst, frameSize(r), sport)
		}
		t = t.Add(sim.Duration(n)*burstSpacing + sim.Duration(r.ExpFloat64()*meanGap))
	}
}
