package tcp

import (
	"time"

	"demsort/internal/vtime"
)

// ---------------------------------------------------------------------
// Wall-clock stats.
// ---------------------------------------------------------------------

// wallStats implements cluster.Stats over real time: phase wall
// seconds come from time.Now, byte/message counters ride on the
// underlying clock's PhaseStats (which the Volume and the transport
// already charge), and modelled CPU charges are dropped — the real
// computation is already on the wall.
type wallStats struct {
	clock *vtime.Clock
	start time.Time
	wall  map[string]float64
}

func newWallStats(c *vtime.Clock) *wallStats {
	return &wallStats{clock: c, start: time.Now(), wall: map[string]float64{}}
}

// SetPhase implements cluster.Stats.
func (s *wallStats) SetPhase(name string) {
	now := time.Now()
	s.wall[s.clock.Phase()] += now.Sub(s.start).Seconds()
	s.start = now
	s.clock.SetPhase(name)
}

// Phase implements cluster.Stats.
func (s *wallStats) Phase() string { return s.clock.Phase() }

// AddCPU implements cluster.Stats: modelled charges are meaningless on
// a wall-clock backend.
func (s *wallStats) AddCPU(sec float64) {}

// Stats implements cluster.Stats: the virtual clock's per-phase
// counters with Wall replaced by measured wall-clock seconds.
func (s *wallStats) Stats() (names []string, stats map[string]*vtime.PhaseStats) {
	now := time.Now()
	s.wall[s.clock.Phase()] += now.Sub(s.start).Seconds()
	s.start = now
	names, stats = s.clock.Stats()
	for ph, st := range stats {
		st.Wall = s.wall[ph]
	}
	return names, stats
}
