package dselect

// referenceCuts is the body of Cuts as it stood before the round engine
// was generalised to sets of local sequences (PR 14), kept verbatim as
// the reference TestSelectMatchesReferenceCuts compares the engine
// against. It can be dropped once that PR has merged.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"demsort/internal/cluster"
	"demsort/internal/elem"
	"demsort/internal/mselect"
)

// refGatherThreshold is the residual interval mass (elements, summed over
// PEs) below which a rank's remaining candidates are gathered to the
// owner and finished exactly.
const refGatherThreshold = 512

// command kinds published by rank owners.
const (
	refCmdNone   = 0 // rank not handled this round (already done)
	refCmdPivot  = 1 // payload: pivot (elem, q, pos)
	refCmdGather = 2 // send residual interval to the owner
	refCmdLeft   = 3 // pivot was left of the cut: lo = split (and owner adj)
	refCmdRight  = 4 // pivot was right: hi = split
	refCmdDone   = 5 // payload: this PE's final cut
)

type refInterval struct{ lo, hi int64 }

// referenceCuts computes this PE's exact cut positions for the global ranks:
// out[j] is the number of local elements ordered before global rank
// ranks[j] under the exact total-order partition of the P distributed
// sorted sequences. Summed over the PEs, out[j] equals ranks[j].
//
// Every PE must call Cuts collectively with identical ranks.
func referenceCuts[T any](c elem.Codec[T], n *cluster.Node, local []T, ranks []int64) []int64 {
	p := n.P
	nRanks := len(ranks)
	out := make([]int64, nRanks)
	if nRanks == 0 {
		return out
	}
	if p == 1 {
		for j, r := range ranks {
			if r < 0 || r > int64(len(local)) {
				panic(fmt.Sprintf("dselect: rank %d outside [0,%d]", r, len(local)))
			}
			out[j] = r
		}
		return out
	}
	sz := c.Size()
	myLen := int64(len(local))
	total := int64(0)
	for _, r := range ranks {
		if r > total {
			total = r
		}
	}
	// Adapt the gather threshold to the instance: on the big run-
	// formation selections the full threshold saves rounds, on the
	// small per-batch selections of the striped merge it would move a
	// large fraction of the data as metadata.
	thr := int64(refGatherThreshold)
	if t := total / (8 * int64(p)); t < thr {
		thr = t
	}
	if thr < 16 {
		thr = 16
	}

	iv := make([]refInterval, nRanks)
	done := make([]bool, nRanks)
	for j := range iv {
		iv[j] = refInterval{0, myLen}
	}
	owner := func(j int) int { return j % p }

	// Wire sizes.
	propSz := 1 + sz + 8 + 8 + 8 // present, elem, pos, width, lo
	cmdHdr := 1                  // kind
	pivotSz := cmdHdr + sz + 4 + 8

	type pivot struct {
		v   T
		q   int
		pos int64
	}
	pivots := make([]pivot, nRanks) // active pivot per rank (owner-published)
	gathering := make([]bool, nRanks)

	allDone := func() bool {
		for _, d := range done {
			if !d {
				return false
			}
		}
		return true
	}

	for round := 0; !allDone(); round++ {
		// --- A: proposals to owners ---
		send := make([][]byte, p)
		for j := range ranks {
			if done[j] {
				continue
			}
			o := owner(j)
			buf := make([]byte, propSz+4)
			binary.LittleEndian.PutUint32(buf[:4], uint32(j))
			rec := buf[4:]
			if iv[j].hi > iv[j].lo {
				rec[0] = 1
				mid := (iv[j].lo + iv[j].hi) / 2
				c.Encode(rec[1:1+sz], local[mid])
				binary.LittleEndian.PutUint64(rec[1+sz:], uint64(mid))
				binary.LittleEndian.PutUint64(rec[1+sz+8:], uint64(iv[j].hi-iv[j].lo))
			}
			binary.LittleEndian.PutUint64(rec[1+sz+16:], uint64(iv[j].lo))
			send[o] = append(send[o], buf...)
		}
		props := n.AllToAllv(send)

		// --- B: owners decide and publish commands ---
		type prop struct {
			present bool
			v       T
			q       int
			pos     int64
			width   int64
			lo      int64
		}
		owned := map[int][]prop{}
		for q := 0; q < p; q++ {
			buf := props[q]
			for len(buf) > 0 {
				j := int(binary.LittleEndian.Uint32(buf[:4]))
				rec := buf[4 : 4+propSz]
				buf = buf[4+propSz:]
				pr := prop{q: q}
				pr.present = rec[0] == 1
				if pr.present {
					pr.v = c.Decode(rec[1 : 1+sz])
					pr.pos = int64(binary.LittleEndian.Uint64(rec[1+sz:]))
					pr.width = int64(binary.LittleEndian.Uint64(rec[1+sz+8:]))
				}
				pr.lo = int64(binary.LittleEndian.Uint64(rec[1+sz+16:]))
				owned[j] = append(owned[j], pr)
			}
		}
		cluster.RecycleRecv(props)
		var pub []byte
		for j := 0; j < nRanks; j++ {
			if owner(j) != n.Rank {
				continue
			}
			ps, ok := owned[j]
			if !ok {
				continue
			}
			var mass, loSum int64
			var cands []prop
			for _, pr := range ps {
				mass += pr.width
				loSum += pr.lo
				if pr.present {
					cands = append(cands, pr)
				}
			}
			var rec []byte
			switch {
			case mass == 0:
				if loSum != ranks[j] {
					panic(fmt.Sprintf("dselect: rank %d converged to %d, want %d", j, loSum, ranks[j]))
				}
				rec = make([]byte, 4+cmdHdr)
				binary.LittleEndian.PutUint32(rec[:4], uint32(j))
				rec[4] = refCmdDone
			case mass <= thr:
				rec = make([]byte, 4+cmdHdr)
				binary.LittleEndian.PutUint32(rec[:4], uint32(j))
				rec[4] = refCmdGather
			default:
				// Weighted median of the proposals, keyed like
				// countBefore: normalized keys first, comparator only
				// on equal inexact keys.
				kc := elem.Keyed(c)
				key, exact := kc.Key, kc.KeyExact()
				sort.Slice(cands, func(a, b int) bool {
					pa, pb := cands[a], cands[b]
					if ka, kb := key(pa.v), key(pb.v); ka != kb {
						return ka < kb
					}
					if !exact {
						if c.Less(pa.v, pb.v) {
							return true
						}
						if c.Less(pb.v, pa.v) {
							return false
						}
					}
					if pa.q != pb.q {
						return pa.q < pb.q
					}
					return pa.pos < pb.pos
				})
				var wAcc int64
				choice := cands[len(cands)-1]
				for _, pr := range cands {
					wAcc += pr.width
					if 2*wAcc >= mass {
						choice = pr
						break
					}
				}
				rec = make([]byte, 4+pivotSz)
				binary.LittleEndian.PutUint32(rec[:4], uint32(j))
				rec[4] = refCmdPivot
				c.Encode(rec[5:5+sz], choice.v)
				binary.LittleEndian.PutUint32(rec[5+sz:], uint32(choice.q))
				binary.LittleEndian.PutUint64(rec[5+sz+4:], uint64(choice.pos))
			}
			pub = append(pub, rec...)
		}
		cmds := n.AllGather(pub)

		// Apply the published commands: note pivots, mark gathers/done.
		var splitRanks []int
		var gatherRanks []int
		for q := 0; q < p; q++ {
			buf := cmds[q]
			for len(buf) > 0 {
				j := int(binary.LittleEndian.Uint32(buf[:4]))
				kind := buf[4]
				switch kind {
				case refCmdDone:
					done[j] = true
					out[j] = iv[j].lo
					buf = buf[5:]
				case refCmdGather:
					gathering[j] = true
					gatherRanks = append(gatherRanks, j)
					buf = buf[5:]
				case refCmdPivot:
					pivots[j] = pivot{
						v:   c.Decode(buf[5 : 5+sz]),
						q:   int(binary.LittleEndian.Uint32(buf[5+sz:])),
						pos: int64(binary.LittleEndian.Uint64(buf[5+sz+4:])),
					}
					splitRanks = append(splitRanks, j)
					buf = buf[5+sz+4+8:]
				default:
					panic("dselect: bad command")
				}
			}
		}
		sort.Ints(splitRanks)
		sort.Ints(gatherRanks)

		if len(splitRanks) == 0 && len(gatherRanks) == 0 {
			continue
		}

		// --- C: splits and gathered residuals to owners ---
		sendC := make([][]byte, p)
		mySplit := make(map[int]int64, len(splitRanks))
		for _, j := range splitRanks {
			pv := pivots[j]
			split := refCountBefore(c, local, n.Rank, pv.v, pv.q, pv.pos)
			mySplit[j] = split
			rec := make([]byte, 4+8)
			binary.LittleEndian.PutUint32(rec[:4], uint32(j))
			binary.LittleEndian.PutUint64(rec[4:], uint64(split))
			sendC[owner(j)] = append(sendC[owner(j)], rec...)
		}
		for _, j := range gatherRanks {
			// Residual elements plus my lo offset.
			cnt := iv[j].hi - iv[j].lo
			rec := make([]byte, 4+8+8+int(cnt)*sz)
			binary.LittleEndian.PutUint32(rec[:4], uint32(j))
			binary.LittleEndian.PutUint64(rec[4:12], uint64(iv[j].lo))
			binary.LittleEndian.PutUint64(rec[12:20], uint64(cnt))
			for i := int64(0); i < cnt; i++ {
				c.Encode(rec[20+int(i)*sz:], local[iv[j].lo+i])
			}
			sendC[owner(j)] = append(sendC[owner(j)], rec...)
		}
		replies := n.AllToAllv(sendC)

		// --- D: owners aggregate and answer ---
		type residual struct {
			q    int
			lo   int64
			vals []T
		}
		splitSum := map[int]int64{}
		resids := map[int][]residual{}
		for q := 0; q < p; q++ {
			buf := replies[q]
			for len(buf) > 0 {
				j := int(binary.LittleEndian.Uint32(buf[:4]))
				if gathering[j] {
					lo := int64(binary.LittleEndian.Uint64(buf[4:12]))
					cnt := int(binary.LittleEndian.Uint64(buf[12:20]))
					vals := elem.DecodeSlice(c, buf[20:], cnt)
					buf = buf[20+cnt*sz:]
					resids[j] = append(resids[j], residual{q: q, lo: lo, vals: vals})
				} else {
					splitSum[j] += int64(binary.LittleEndian.Uint64(buf[4:12]))
					buf = buf[12:]
				}
			}
		}
		cluster.RecycleRecv(replies)
		sendD := make([][]byte, p)
		for _, j := range splitRanks {
			if owner(j) != n.Rank {
				continue
			}
			kind := byte(refCmdRight)
			if splitSum[j] < ranks[j] {
				kind = refCmdLeft
			}
			for q := 0; q < p; q++ {
				rec := make([]byte, 4+1)
				binary.LittleEndian.PutUint32(rec[:4], uint32(j))
				rec[4] = kind
				sendD[q] = append(sendD[q], rec...)
			}
		}
		for _, j := range gatherRanks {
			if owner(j) != n.Rank {
				continue
			}
			rs := resids[j]
			sort.Slice(rs, func(a, b int) bool { return rs[a].q < rs[b].q })
			seqs := make([][]T, p)
			var fixed int64
			for _, r := range rs {
				seqs[r.q] = r.vals
				fixed += r.lo
			}
			resRank := ranks[j] - fixed
			var resTotal int64
			for _, s := range seqs {
				resTotal += int64(len(s))
			}
			if resRank < 0 || resRank > resTotal {
				panic(fmt.Sprintf("dselect: rank %d residual target %d outside [0,%d]", j, resRank, resTotal))
			}
			cut := mselect.Select[T](c, mselect.SliceAccessor[T](seqs), resRank)
			for q := 0; q < p; q++ {
				rec := make([]byte, 4+1+8)
				binary.LittleEndian.PutUint32(rec[:4], uint32(j))
				rec[4] = refCmdDone
				var fin int64
				for _, r := range rs {
					if r.q == q {
						fin = r.lo + cut[q]
					}
				}
				binary.LittleEndian.PutUint64(rec[5:], uint64(fin))
				sendD[q] = append(sendD[q], rec...)
			}
		}
		answers := n.AllToAllv(sendD)
		for q := 0; q < p; q++ {
			buf := answers[q]
			for len(buf) > 0 {
				j := int(binary.LittleEndian.Uint32(buf[:4]))
				kind := buf[4]
				switch kind {
				case refCmdLeft:
					split := mySplit[j]
					if split > iv[j].lo {
						iv[j].lo = split
					}
					pv := pivots[j]
					if pv.q == n.Rank && pv.pos+1 > iv[j].lo {
						iv[j].lo = pv.pos + 1
					}
					if iv[j].hi < iv[j].lo {
						iv[j].hi = iv[j].lo
					}
					buf = buf[5:]
				case refCmdRight:
					split := mySplit[j]
					if split < iv[j].hi {
						iv[j].hi = split
					}
					if iv[j].lo > iv[j].hi {
						iv[j].lo = iv[j].hi
					}
					buf = buf[5:]
				case refCmdDone:
					done[j] = true
					out[j] = int64(binary.LittleEndian.Uint64(buf[5:]))
					iv[j] = refInterval{out[j], out[j]}
					buf = buf[13:]
				default:
					panic("dselect: bad answer")
				}
			}
		}
		cluster.RecycleRecv(answers)
	}
	return out
}

// refCountBefore returns how many elements of local (owned by PE me)
// order before the pivot (pv, pq, ppos) under (value, PE, position).
// The binary search probes the codec's normalized uint64 keys first
// (the pivot's key is computed once per search); the comparator runs
// only on equal inexact keys — never for exact-keyed codecs.
func refCountBefore[T any](c elem.Codec[T], local []T, me int, pv T, pq int, ppos int64) int64 {
	kc := elem.Keyed(c)
	key, exact := kc.Key, kc.KeyExact()
	pk := key(pv)
	return int64(sort.Search(len(local), func(j int) bool {
		v := local[j]
		if vk := key(v); vk != pk {
			return vk > pk
		}
		if !exact {
			if c.Less(v, pv) {
				return false
			}
			if c.Less(pv, v) {
				return true
			}
		}
		if me != pq {
			return me > pq
		}
		return int64(j) >= ppos
	}))
}
