package main

// Per-layer metrics of one traced repetition, and its Chrome trace.

import (
	"encoding/json"
	"math"
	"os"
	"sort"
)

// Phase names as the sorters announce them (core.Phase*, stripesort's
// "merge", and the unexported "load"/"collect").
const (
	phLoad      = "load"
	phRunForm   = "run formation"
	phSelection = "multiway selection"
	phExchange  = "all-to-all"
	phMergeCore = "final merge"
	phMergeStr  = "merge"
	phCollect   = "collect"
)

// rankTotals is one rank's spans folded by kind and by phase.
type rankTotals struct {
	wall      float64 // the kindRank span
	phaseWall map[string]float64
	phaseSelf map[string]float64 // wall minus the time its leaf calls cover
	kindS     [numKinds]float64
	kindN     [numKinds]int64
	kindBytes [numKinds]int64
}

func foldRank(spans []span) rankTotals {
	t := rankTotals{phaseWall: map[string]float64{}, phaseSelf: map[string]float64{}}
	leaves := map[string][]span{}
	var phases []span
	for _, s := range spans {
		sec := float64(s.Dur) / 1e9
		switch s.Kind {
		case kindRank:
			t.wall = sec
		case kindPhase:
			t.phaseWall[s.Phase] += sec
			phases = append(phases, s)
		case kindBringup, kindPublish:
			t.kindS[s.Kind] += sec
		default:
			leaves[s.Phase] = append(leaves[s.Phase], s)
			t.kindS[s.Kind] += sec
			t.kindN[s.Kind]++
			t.kindBytes[s.Kind] += s.Bytes
		}
	}
	for _, ph := range phases {
		covered := coveredNanos(leaves[ph.Phase], ph.Start, ph.end())
		t.phaseSelf[ph.Phase] += float64(ph.Dur-covered) / 1e9
	}
	return t
}

// coveredNanos is the length of the union of the spans' intervals
// clipped to [lo, hi): Source reads run on a stage goroutine and
// overlap the program goroutine's Store writes, so durations cannot
// simply be summed.
func coveredNanos(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var covered int64
	cur := lo
	for _, s := range spans {
		a, b := max(s.Start, cur), min(s.end(), hi)
		if b > a {
			covered += b - a
			cur = b
		}
	}
	return covered
}

// layerMetrics computes the traced-run metrics of metrics.go from the
// ranks of one repetition: seconds are the maximum over ranks (phases
// end at barriers, the fleet moves at its slowest rank), counts are
// summed over ranks.
func layerMetrics(w workload, ranks []rankTrace) map[string]float64 {
	totals := make([]rankTotals, len(ranks))
	for i := range ranks {
		totals[i] = foldRank(ranks[i].Spans)
	}
	maxOf := func(f func(rankTotals) float64) float64 {
		var m float64
		for _, t := range totals {
			m = max(m, f(t))
		}
		return m
	}
	sumN := func(kinds ...kind) (n int64) {
		for _, t := range totals {
			for _, k := range kinds {
				n += t.kindN[k]
			}
		}
		return n
	}
	sumBytes := func(k kind) (n int64) {
		for _, t := range totals {
			n += t.kindBytes[k]
		}
		return n
	}
	kindS := func(kinds ...kind) float64 {
		return maxOf(func(t rankTotals) float64 {
			var s float64
			for _, k := range kinds {
				s += t.kindS[k]
			}
			return s
		})
	}
	phase := func(name string) float64 { return maxOf(func(t rankTotals) float64 { return t.phaseWall[name] }) }
	self := func(name string) float64 { return maxOf(func(t rankTotals) float64 { return t.phaseSelf[name] }) }
	named := []string{phLoad, phRunForm, phSelection, phExchange, phMergeCore, phMergeStr, phCollect}
	unattributed := maxOf(func(t rankTotals) float64 {
		rest := t.wall
		for _, ph := range named {
			rest -= t.phaseWall[ph]
		}
		return rest
	})
	// The program accounts its phases itself (Result.PerPE walls, what
	// the CLI prints); the spans here were taken by the bench's clock
	// at the SetPhase seam. The residue is how far the two disagree on
	// any rank, as a share of its wall.
	var residue float64
	for i, t := range totals {
		var diff float64
		for _, ph := range named {
			diff += ranks[i].PhaseWall[ph] - t.phaseWall[ph]
		}
		residue = max(residue, math.Abs(diff)/t.wall)
	}
	xn := func(b int64) float64 { return float64(b) / float64(w.inputBytes()) }

	collectives := []kind{kindBarrier, kindAllGather, kindBcast, kindAllReduce, kindExchangeAny}
	m := map[string]float64{
		"trace.rank_wall_s": maxOf(func(t rankTotals) float64 { return t.wall }),
		"trace.residue_pct": 100 * residue,

		"blockio.read_s":       kindS(kindStoreRead),
		"blockio.write_s":      kindS(kindStoreWrite),
		"blockio.read_ops":     float64(sumN(kindStoreRead)),
		"blockio.write_ops":    float64(sumN(kindStoreWrite)),
		"blockio.read_xn":      xn(sumBytes(kindStoreRead)),
		"blockio.write_xn":     xn(sumBytes(kindStoreWrite)),
		"tcp.bringup_s":        kindS(kindBringup),
		"tcp.a2a_s":            kindS(kindA2A),
		"tcp.a2a_calls":        float64(sumN(kindA2A)),
		"tcp.stream_s":         kindS(kindStreamPost, kindStreamCollect),
		"tcp.collective_s":     kindS(collectives...),
		"tcp.collective_calls": float64(sumN(collectives...)),
		"tcp.p2p_s":            kindS(kindSend, kindRecv),
		"tcp.p2p_msgs":         float64(sumN(kindSend)),
		"io.source_read_s":     kindS(kindSourceRead),
		"io.sink_write_s":      kindS(kindSinkWrite),
		"io.publish_s":         kindS(kindPublish),
	}
	var peakDisk, sent, msgs, peakMem, mailbox int64
	for _, r := range ranks {
		peakDisk += r.PeakDisk
		sent += r.BytesSent
		msgs += r.Messages
		peakMem = max(peakMem, r.PeakMem)
		mailbox = max(mailbox, r.MailboxPeak)
	}
	m["blockio.peak_disk_xn"] = xn(peakDisk * int64(w.Block))
	m["tcp.sent_xn"] = xn(sent)
	m["tcp.msgs"] = float64(msgs)
	m["tcp.mailbox_peak_mb"] = float64(mailbox) / 1e6
	m["membudget.peak_xm"] = float64(peakMem) / float64(w.Mem)

	// The two sorters share phase names but not code; each reports
	// under its own layer and the other layer's metrics read zero.
	layer, other, merge := "core.", "stripesort.", phMergeCore
	if w.Striped {
		layer, other, merge = other, layer, phMergeStr
	}
	for _, name := range []string{"load_s", "runform_s", "merge_s", "collect_s", "runform_self_s", "merge_self_s"} {
		m[other+name] = 0
	}
	m[layer+"load_s"] = phase(phLoad)
	m[layer+"runform_s"] = phase(phRunForm)
	m[layer+"merge_s"] = phase(merge)
	m[layer+"collect_s"] = phase(phCollect)
	m[layer+"runform_self_s"] = self(phRunForm)
	m[layer+"merge_self_s"] = self(merge)
	m["core.selection_s"] = phase(phSelection)
	m["core.exchange_s"] = phase(phExchange)
	m["core.unattributed_s"] = unattributed
	m["core.runs"], m["core.subops"] = 0, 0
	if !w.Striped {
		m["core.runs"] = float64(ranks[0].Runs)
		m["core.subops"] = float64(ranks[0].SubOps)
	}
	return m
}

// ---------------------------------------------------------------------
// Chrome trace-event output
// ---------------------------------------------------------------------

// maxLeafEvents caps the leaf events written per rank: the smallblock
// workload makes ~100 k Store calls per rank, and a viewer gains
// nothing from the shortest of them. The longest are kept; the metrics
// above always use every span.
const maxLeafEvents = 20000

type traceEvent struct {
	Name string    `json:"name"`
	Cat  string    `json:"cat"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`  // microseconds
	Dur  float64   `json:"dur"` // microseconds
	Pid  int       `json:"pid"` // rank
	Tid  int       `json:"tid"` // lane: 0 phases, 1 transport, 2 store, 3 source/sink
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int   `json:"id"`
	Parent int   `json:"parent"`
	RunID  int   `json:"run_id"`
	Rank   int   `json:"rank"`
	Bytes  int64 `json:"bytes"`
}

func lane(k kind) (tid int, cat string) {
	switch k {
	case kindRank, kindPhase, kindBringup, kindPublish:
		return 0, "phase"
	case kindStoreRead, kindStoreWrite:
		return 2, "blockio"
	case kindSourceRead, kindSinkWrite:
		return 3, "io"
	}
	return 1, "tcp"
}

// writeChromeTrace merges the ranks' spans into one trace-event file.
// Every event carries {id, parent, run_id, rank}: the rank span is the
// root, phases (and bring-up, publish) are its children, leaf calls are
// children of the phase they ran in.
func writeChromeTrace(path string, runID int, ranks []rankTrace) error {
	var events []traceEvent
	var origin int64
	for _, r := range ranks {
		for _, s := range r.Spans {
			if origin == 0 || s.Start < origin {
				origin = s.Start
			}
		}
	}
	nextID := 1
	elided := 0
	for _, r := range ranks {
		rankID := nextID
		nextID++
		emit := func(s span, name string, id, parent int) {
			tid, cat := lane(s.Kind)
			events = append(events, traceEvent{
				Name: name, Cat: cat, Ph: "X",
				Ts: float64(s.Start-origin) / 1e3, Dur: float64(s.Dur) / 1e3,
				Pid: r.Rank, Tid: tid,
				Args: traceArgs{ID: id, Parent: parent, RunID: runID, Rank: r.Rank, Bytes: s.Bytes},
			})
		}
		var phases []span // kindPhase only, with their ids, to parent the leaves
		var phaseIDs []int
		var leaves []span
		for _, s := range r.Spans {
			switch s.Kind {
			case kindRank:
				emit(s, "rank", rankID, 0)
			case kindPhase:
				phases = append(phases, s)
				phaseIDs = append(phaseIDs, nextID)
				emit(s, s.Phase, nextID, rankID)
				nextID++
			case kindBringup, kindPublish:
				emit(s, kindNames[s.Kind], nextID, rankID)
				nextID++
			default:
				leaves = append(leaves, s)
			}
		}
		if len(leaves) > maxLeafEvents {
			sort.Slice(leaves, func(i, j int) bool { return leaves[i].Dur > leaves[j].Dur })
			elided += len(leaves) - maxLeafEvents
			leaves = leaves[:maxLeafEvents]
		}
		for _, s := range leaves {
			parent := rankID
			for i, ph := range phases {
				if ph.Phase == s.Phase && s.Start >= ph.Start && s.Start < ph.end() {
					parent = phaseIDs[i]
					break
				}
			}
			emit(s, kindNames[s.Kind], nextID, parent)
			nextID++
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
		"otherData":       map[string]any{"run_id": runID, "leaf_events_elided": elided},
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
