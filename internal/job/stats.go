package job

import "demsort/internal/vtime"

// Stats is what every sorter reports about a completed run: the shape
// of the job and the per-PE per-phase resource usage that every figure
// is computed from. The three Result types embed it.
type Stats struct {
	// P is the machine size, N the total element count.
	P int
	N int64
	// ElemSize is the element size in bytes; BlockElems the block
	// size B in elements; Runs the number of global runs R.
	ElemSize   int
	BlockElems int
	Runs       int
	// PhaseNames lists the accounted phases in order.
	PhaseNames []string
	// PerPE[rank][phase] is the measured per-phase resource usage
	// (locally hosted ranks only).
	PerPE []map[string]*vtime.PhaseStats
	// OutputLens[rank] is the element count rank ends up with: its
	// canonical partition, its block-range share of the striped output
	// delivered to its Sink, or without one the elements of the striped
	// output blocks it stores.
	OutputLens []int64
	// PeakMemElems[rank] is the memory budget's high-water mark.
	PeakMemElems []int64
}

// NewStats returns the Stats of a run about to start, per-rank slots
// allocated.
func (j *Job[T]) NewStats(phaseNames []string) Stats {
	p := j.cfg.P
	return Stats{
		P:            p,
		ElemSize:     j.c.Size(),
		BlockElems:   j.BElem,
		PhaseNames:   phaseNames,
		PerPE:        make([]map[string]*vtime.PhaseStats, p),
		OutputLens:   make([]int64, p),
		PeakMemElems: make([]int64, p),
	}
}

// Harvest fills the per-rank measurements of the locally hosted PEs
// after a successful Run.
func (j *Job[T]) Harvest(st *Stats) {
	for _, node := range j.M.Nodes() {
		_, st.PerPE[node.Rank] = node.PhaseStats()
		st.PeakMemElems[node.Rank] = node.Mem.Peak()
	}
}

// each folds f over the PEs that recorded the phase.
func (r *Stats) each(phase string, f func(*vtime.PhaseStats)) {
	for _, st := range r.PerPE {
		if s, ok := st[phase]; ok {
			f(s)
		}
	}
}

// MaxWall returns the slowest PE's wall time for one phase — the
// quantity plotted in Figures 2, 4 and 6 (a phase ends at a barrier,
// so the machine moves at the pace of its slowest PE).
func (r *Stats) MaxWall(phase string) float64 {
	var w float64
	r.each(phase, func(s *vtime.PhaseStats) { w = max(w, s.Wall) })
	return w
}

// TotalWall returns the sum of the per-phase maxima — the modelled
// running time of the sort.
func (r *Stats) TotalWall() float64 {
	var t float64
	for _, ph := range r.PhaseNames {
		t += r.MaxWall(ph)
	}
	return t
}

// PhaseBytes returns machine-wide (read, written) disk bytes in a
// phase; the all-to-all's bytes over N·ElemSize is Figure 5's y-axis.
func (r *Stats) PhaseBytes(phase string) (read, written int64) {
	r.each(phase, func(s *vtime.PhaseStats) {
		read += s.BytesRead
		written += s.BytesWritten
	})
	return read, written
}

// NetBytes returns machine-wide bytes sent over the network in a
// phase (self-messages excluded): the communication-volume metric of
// the paper's "communicate the data only once" claim.
func (r *Stats) NetBytes(phase string) int64 {
	var b int64
	r.each(phase, func(s *vtime.PhaseStats) { b += s.BytesSent })
	return b
}
