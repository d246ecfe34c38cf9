// Package vtime provides the virtual-time machinery that substitutes
// for the paper's physical cluster when reporting running times.
//
// Correctness in this repository is real — data genuinely moves through
// block stores and between per-PE address spaces — but wall-clock time
// on 200 nodes with 780 disks cannot be measured on one host. Instead
// every PE owns a Clock, and its disk array and NIC are Devices with
// busy-until semantics: an asynchronous operation occupies the device
// for a duration derived from *measured* byte counts and the CostModel
// (calibrated to the paper's testbed), and the PE's clock only advances
// to the completion time when the PE actually waits. Overlapping I/O
// with computation and communication — the paper's §IV-E "Overlapping"
// — therefore falls out naturally: work done while a transfer is in
// flight hides the transfer, exactly as on real hardware.
//
// Per-phase accounting (wall, I/O busy time, network time, CPU time,
// byte counters) feeds the reproduction of Figures 2-6.
package vtime

import "math"

// CostModel holds the calibrated machine parameters. The defaults are
// taken from Section VI of the paper (200-node Xeon cluster).
type CostModel struct {
	// DiskBandwidth is the sustained bandwidth of one disk in bytes
	// per second. The paper measured 60-71 MiB/s, 67 MiB/s average.
	DiskBandwidth float64
	// DiskSeek is the per-block-access overhead in seconds (seek +
	// rotational delay + request handling).
	DiskSeek float64
	// DisksPerNode is D/P: the number of disks each PE stripes its
	// blocks over (4 in the paper, RAID-0).
	DisksPerNode int
	// DiskJitter is the relative half-width of the per-node uniform
	// bandwidth spread ("natural spreading of disk performance"); the
	// paper's 60-71 MiB/s range around 67 is about ±8%.
	DiskJitter float64

	// NetLatency is the per-message latency in seconds (InfiniBand
	// 4xDDR with MVAPICH: a few microseconds).
	NetLatency float64
	// NetBandwidth is the point-to-point peak bandwidth in bytes per
	// second ("more than 1300 MB/s").
	NetBandwidth float64
	// CongestionFloor is the fraction of peak bandwidth left when the
	// whole fabric is loaded (the paper measured as low as 400 MB/s,
	// i.e. ~0.31 of peak).
	CongestionFloor float64
	// CongestionNodes is the machine size at which the floor is
	// reached (200 in the paper).
	CongestionNodes int

	// Cores is the number of cores per PE sharing internal work (8).
	Cores int
	// SortRate is the per-core comparison throughput for internal
	// sorting, in element·log2(n) units per second.
	SortRate float64
	// MergeRate is the per-core throughput of multiway merging, in
	// element·log2(k) units per second.
	MergeRate float64
	// ScanRate is the per-core throughput of scanning/copying/codec
	// work in elements per second.
	ScanRate float64
}

// Default returns the cost model calibrated to the paper's testbed.
// Calibration notes: with 100 GiB per PE and 4×67 MiB/s disks, one
// read+write pass takes ~760 s, matching the I/O bars of Figure 3;
// SortRate is chosen so run formation is mildly compute-bound on 8
// cores (the grey gap in Figure 3) while the final merge stays
// I/O-bound.
func Default() CostModel {
	return CostModel{
		DiskBandwidth:   67 * 1024 * 1024,
		DiskSeek:        0.008,
		DisksPerNode:    4,
		DiskJitter:      0.08,
		NetLatency:      4e-6,
		NetBandwidth:    1300e6,
		CongestionFloor: 0.31,
		CongestionNodes: 200,
		Cores:           8,
		SortRate:        36e6,
		MergeRate:       48e6,
		ScanRate:        400e6,
	}
}

// EffNetBandwidth returns the effective per-link bandwidth with p
// active nodes: full at p <= 2, decaying logarithmically to
// CongestionFloor·NetBandwidth at CongestionNodes ("this value
// decreases when most nodes are used because the fabric gets
// overloaded").
func (m CostModel) EffNetBandwidth(p int) float64 {
	if p <= 2 {
		return m.NetBandwidth
	}
	n := m.CongestionNodes
	if n < 4 {
		n = 4
	}
	drop := (1 - m.CongestionFloor) * math.Log2(float64(p)/2) / math.Log2(float64(n)/2)
	f := 1 - drop
	if f < m.CongestionFloor {
		f = m.CongestionFloor
	}
	return m.NetBandwidth * f
}

// NodeDiskBandwidth returns the aggregate striped bandwidth of one
// PE's disk array including that node's deterministic jitter factor
// (rank-seeded), reproducing the per-node spread visible in Figure 3.
func (m CostModel) NodeDiskBandwidth(rank int) float64 {
	j := m.DiskJitter
	if j > 0 {
		// Cheap deterministic hash of the rank into [-1, 1).
		h := uint64(rank)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
		h ^= h >> 33
		u := float64(h>>11) / float64(1<<53) // [0,1)
		return m.DiskBandwidth * float64(m.DisksPerNode) * (1 + j*(2*u-1))
	}
	return m.DiskBandwidth * float64(m.DisksPerNode)
}

// DiskDur returns the device time to transfer one block of the given
// size on node rank's array.
func (m CostModel) DiskDur(rank int, bytes int) float64 {
	return m.DiskSeek + float64(bytes)/m.NodeDiskBandwidth(rank)
}

// SortCPU returns the CPU seconds to sort n elements internally on one
// PE (n·log2(n) compare units over Cores cores).
func (m CostModel) SortCPU(n int64) float64 {
	if n <= 1 {
		return 0
	}
	return float64(n) * math.Log2(float64(n)) / (m.SortRate * float64(m.Cores))
}

// MergeCPU returns the CPU seconds for a k-way merge of n elements.
func (m CostModel) MergeCPU(n int64, k int) float64 {
	if n <= 0 || k <= 1 {
		return m.ScanCPU(n)
	}
	return float64(n) * math.Log2(float64(k)) / (m.MergeRate * float64(m.Cores))
}

// ScanCPU returns the CPU seconds to scan/copy n elements.
func (m CostModel) ScanCPU(n int64) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / (m.ScanRate * float64(m.Cores))
}

// Device models a resource with busy-until semantics (a PE's striped
// disk array, or one side of its NIC). It is owned by a single PE
// goroutine and must not be shared.
type Device struct {
	busyUntil float64
}

// Acquire schedules an operation of duration dur that cannot start
// before at, and returns its completion time.
func (d *Device) Acquire(at, dur float64) float64 {
	start := d.busyUntil
	if at > start {
		start = at
	}
	d.busyUntil = start + dur
	return d.busyUntil
}

// BusyUntil returns the time the device becomes idle.
func (d *Device) BusyUntil() float64 { return d.busyUntil }

// PhaseStats accumulates per-phase resource usage of one PE.
type PhaseStats struct {
	Wall    float64 // virtual seconds spent in the phase
	IOTime  float64 // disk busy seconds attributed to the phase
	NetTime float64 // network transfer seconds
	CPUTime float64 // internal computation seconds
	// BlockedTime is the share of Wall the PE spent stalled on another
	// resource — waiting in a collective or Recv for data that had not
	// arrived, or for a socket write to drain — as opposed to computing.
	// 1 - BlockedTime/Wall is the phase's overlap ratio: the fraction of
	// the phase during which communication and I/O hid behind compute.
	BlockedTime float64

	BytesRead     int64
	BytesWritten  int64
	BlocksRead    int64
	BlocksWritten int64
	BytesSent     int64
	BytesRecv     int64
	Messages      int64
}

// Add accumulates o into s.
func (s *PhaseStats) Add(o *PhaseStats) {
	s.Wall += o.Wall
	s.IOTime += o.IOTime
	s.NetTime += o.NetTime
	s.CPUTime += o.CPUTime
	s.BlockedTime += o.BlockedTime
	s.BytesRead += o.BytesRead
	s.BytesWritten += o.BytesWritten
	s.BlocksRead += o.BlocksRead
	s.BlocksWritten += o.BlocksWritten
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.Messages += o.Messages
}

// Clock is one PE's virtual clock with per-phase accounting. It is
// owned by that PE's goroutine; collectives read entry times and
// advance it through AdvanceTo under the cluster's rendezvous, never
// concurrently with the owner.
type Clock struct {
	now        float64
	phase      string
	phaseStart float64
	order      []string
	stats      map[string]*PhaseStats
}

// NewClock returns a clock at time zero in phase "init".
func NewClock() *Clock {
	c := &Clock{stats: map[string]*PhaseStats{}}
	c.phase = "init"
	c.stats["init"] = &PhaseStats{}
	c.order = append(c.order, "init")
	return c
}

// Now returns the current virtual time.
func (c *Clock) Now() float64 { return c.now }

// SetPhase closes the running phase (accumulating its wall time) and
// switches accounting to name. Re-entering a phase accumulates.
func (c *Clock) SetPhase(name string) {
	cur := c.stats[c.phase]
	cur.Wall += c.now - c.phaseStart
	c.phaseStart = c.now
	if _, ok := c.stats[name]; !ok {
		c.stats[name] = &PhaseStats{}
		c.order = append(c.order, name)
	}
	c.phase = name
}

// Phase returns the current phase name.
func (c *Clock) Phase() string { return c.phase }

// Cur returns the stats of the current phase for direct counting.
func (c *Clock) Cur() *PhaseStats { return c.stats[c.phase] }

// AdvanceTo moves the clock forward to t (never backward).
func (c *Clock) AdvanceTo(t float64) {
	if t > c.now {
		c.now = t
	}
}

// AddCPU advances the clock by CPU work of the given duration.
func (c *Clock) AddCPU(sec float64) {
	c.now += sec
	c.Cur().CPUTime += sec
}

// Stats returns the closed per-phase statistics in first-use order.
// It finalises the wall time of the running phase.
func (c *Clock) Stats() (names []string, stats map[string]*PhaseStats) {
	cur := c.stats[c.phase]
	cur.Wall += c.now - c.phaseStart
	c.phaseStart = c.now
	return c.order, c.stats
}
