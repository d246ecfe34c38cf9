// Fixture for bufpoolcheck: the PR-4 stranding patterns (leaked,
// discarded and API-escaping arena buffers; stranded receive vectors)
// and the clean ownership idioms the real tree uses.
package fixture

import (
	"demsort/internal/bufpool"
	"demsort/internal/cluster"
)

// leak: acquired, never released, never handed off.
func leak(n int) int {
	buf := bufpool.Get(n) // want `neither released`
	total := 0
	for _, b := range buf {
		total += int(b)
	}
	return total
}

// drop: the result can never be released.
func drop(n int) {
	bufpool.Get(n) // want `discarded`
}

// Gather is the PR-4 stranding bug minimized: an exported helper
// returning a slice that aliases the arena.
func Gather(n int) []byte {
	buf := bufpool.Get(n)
	fill(buf)
	return buf // want `exported API boundary`
}

// GatherDirect returns the arena buffer without even a binding.
func GatherDirect(n int) []byte {
	return bufpool.Get(n) // want `exported API boundary`
}

// gather is the same shape unexported: an intra-package ownership
// hand-off, which is legal.
func gather(n int) []byte {
	buf := bufpool.Get(n)
	fill(buf)
	return buf
}

func fill(b []byte) {}

// useAfter: the arena may already have re-issued the backing array.
func useAfter(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	bufpool.Put(buf) // want `after bufpool.Put`
}

func readAfter(n int) byte {
	buf := bufpool.Get(n)
	v := buf[0]
	bufpool.Put(buf)
	fill(buf) // want `after bufpool.Put`
	return v
}

// strand: a receive vector decoded and dropped (the dselect class).
func strand(n *cluster.Node, send [][]byte) int {
	recv := n.AllToAllv(send) // want `neither released`
	total := 0
	for _, b := range recv {
		total += len(b)
	}
	return total
}

// --- clean idioms ---

func okDefer(n int) {
	buf := bufpool.Get(n)
	defer bufpool.Put(buf)
	fill(buf)
}

func okStraight(n int) {
	buf := bufpool.Get(n)
	fill(buf)
	bufpool.Put(buf)
}

// okGrow: Put-then-rebind inside a branch, the core/file.go idiom.
func okGrow(buf []byte, need int) []byte {
	if need > cap(buf) {
		bufpool.Put(buf)
		buf = bufpool.Get(need)
	}
	fill(buf)
	return buf
}

type sink struct{ b []byte }

// okStore: ownership handed to a longer-lived struct.
func okStore(s *sink, n int) {
	s.b = bufpool.Get(n)
}

// okRecv: receive vector recycled after decoding.
func okRecv(n *cluster.Node, send [][]byte) int {
	recv := n.AllToAllv(send)
	total := 0
	for _, b := range recv {
		total += len(b)
	}
	cluster.RecycleRecv(recv)
	return total
}

// okStream: Collect results recycled, the A2AStream discipline.
func okStream(n *cluster.Node, send [][]byte) {
	st := n.OpenA2AStream(2)
	st.Post(send)
	recv := st.Collect()
	cluster.RecycleRecv(recv)
	st.Close()
}

// allowed: a deliberate, argued exception.
func allowed(n int) int {
	//lint:allow bufpoolcheck fixture: ownership documented out of band
	buf := bufpool.Get(n)
	return len(buf)
}
