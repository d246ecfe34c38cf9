package tcp

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"demsort/internal/cluster"
)

// TestStaleIncarnationFenced pins the restart plane's wire guarantee:
// a straggler process from a dead epoch (or a different job) that
// dials a new fleet's listener is dropped at the handshake — its data
// frames never enter the new incarnation — while the real peers still
// form the fleet and exchange correct data.
func TestStaleIncarnationFenced(t *testing.T) {
	const p = 2
	peers := freePorts(t, p)
	cfgFor := func(rank, epoch int) Config {
		return Config{
			Rank: rank, Peers: peers, BlockBytes: 1024,
			ConnectTimeout: 20 * time.Second,
			JobID:          "sortjob", Epoch: epoch,
		}
	}

	// Rank 0 of the NEW incarnation (epoch 3) comes up and listens.
	type newRes struct {
		m   *Machine
		err error
	}
	m0Ch := make(chan newRes, 1)
	go func() {
		m, err := New(cfgFor(0, 3))
		m0Ch <- newRes{m, err}
	}()

	// A straggler from the dead incarnation dials in first: right
	// magic, right job, stale epoch — and a payload that must never be
	// delivered as a frame. Retry until rank 0's listener is bound.
	dial := func() net.Conn {
		deadline := time.Now().Add(10 * time.Second)
		for {
			c, err := net.Dial("tcp", peers[0])
			if err == nil {
				return c
			}
			if time.Now().After(deadline) {
				t.Fatalf("dialing rank 0: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	stale := dial()
	defer stale.Close()
	var hs [hsLen]byte
	binary.LittleEndian.PutUint32(hs[:4], magic)
	binary.LittleEndian.PutUint32(hs[4:8], 1) // claims to be rank 1
	binary.LittleEndian.PutUint32(hs[8:12], 2)
	binary.LittleEndian.PutUint64(hs[12:20], jobHash("sortjob"))
	if _, err := stale.Write(hs[:]); err != nil {
		t.Fatal(err)
	}
	stale.Write([]byte("stale frame from the dead incarnation"))

	// And a worker from a different job at the right epoch.
	foreign := dial()
	defer foreign.Close()
	binary.LittleEndian.PutUint32(hs[8:12], 3)
	binary.LittleEndian.PutUint64(hs[12:20], jobHash("otherjob"))
	if _, err := foreign.Write(hs[:]); err != nil {
		t.Fatal(err)
	}

	// Both impostors are queued on the listener before the real rank 1
	// dials; the serial accept loop must fence them and keep waiting.
	time.Sleep(200 * time.Millisecond)

	fn := func(n *cluster.Node) error {
		n.Barrier()
		send := make([][]byte, p)
		for j := range send {
			send[j] = []byte(fmt.Sprintf("live %d->%d", n.Rank, j))
		}
		recv := n.AllToAllv(send)
		for j := 0; j < p; j++ {
			if want := fmt.Sprintf("live %d->%d", j, n.Rank); string(recv[j]) != want {
				return fmt.Errorf("stale data leaked into the live fleet: %q", recv[j])
			}
		}
		return nil
	}

	errs := make([]error, p)
	var fenced int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r := <-m0Ch
		if r.err != nil {
			errs[0] = r.err
			return
		}
		defer r.m.Close()
		errs[0] = r.m.Run(fn)
		fenced = r.m.FencedConns()
	}()
	go func() {
		defer wg.Done()
		m, err := New(cfgFor(1, 3))
		if err != nil {
			errs[1] = err
			return
		}
		defer m.Close()
		errs[1] = m.Run(fn)
	}()
	wg.Wait()
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	if fenced != 2 {
		t.Fatalf("rank 0 fenced %d connections, want 2 (stale epoch + foreign job)", fenced)
	}
}
