package xen

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func ioRingCPU(t *testing.T) (*hw.CPU, *hw.CostModel) {
	t.Helper()
	m := hw.NewMachine(hw.Config{MemBytes: 8 << 20, NumCPUs: 1})
	return m.BootCPU(), m.Costs
}

// TestIORingPropertySeededInterleavings drives seeded random
// producer/consumer interleavings through one ring in both directions
// and checks the datapath invariants on every step:
//
//   - no request ID is lost or duplicated end to end,
//   - the producer index never passes the consumer by more than the
//     capacity, and the consumer never passes the producer,
//   - a consumer that observes FINAL CHECK false may "sleep" and is
//     always woken by a later doorbell or finds the ring empty —
//     notify suppression never strands work forever.
func TestIORingPropertySeededInterleavings(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		for _, threshold := range []int{1, 4, 16} {
			c, costs := ioRingCPU(t)
			rng := rand.New(rand.NewSource(seed))
			r := NewIORing[BlkRequest, BlkResponse](64, costs)
			cap32 := uint32(r.Capacity())

			const total = 4000
			nextID := uint64(0)
			outstanding := 0 // pushed requests minus pushed responses
			seen := make(map[uint64]int)
			completed := make(map[uint64]int)
			reqBuf := make([]BlkRequest, r.Capacity())
			respBuf := make([]BlkResponse, r.Capacity())
			var toAnswer []uint64 // taken by consumer, response not yet pushed
			backendAsleep := true // consumer parked after FINAL CHECK false
			doorbells := 0

			checkIndices := func() {
				t.Helper()
				if d := r.reqProd - r.reqCons; d > cap32 {
					t.Fatalf("seed %d: producer %d slots past consumer (cap %d)",
						seed, d, cap32)
				}
				if d := r.respProd - r.respCons; d > cap32 {
					t.Fatalf("seed %d: resp producer %d past consumer (cap %d)",
						seed, d, cap32)
				}
			}
			drainBackend := func() {
				for {
					n := r.TakeRequests(c, reqBuf)
					if n == 0 {
						if !r.FinishRequestConsume(c, threshold) {
							backendAsleep = true
							return
						}
						continue
					}
					for _, q := range reqBuf[:n] {
						seen[q.ID]++
						toAnswer = append(toAnswer, q.ID)
					}
				}
			}

			for int(nextID) < total || outstanding > 0 || len(toAnswer) > 0 {
				checkIndices()
				switch rng.Intn(4) {
				case 0: // frontend pushes a burst
					if int(nextID) >= total {
						continue
					}
					room := r.Capacity() - outstanding
					if room == 0 {
						continue
					}
					burst := 1 + rng.Intn(room)
					if int(nextID)+burst > total {
						burst = total - int(nextID)
					}
					batch := make([]BlkRequest, burst)
					for i := range batch {
						batch[i] = BlkRequest{ID: nextID}
						nextID++
					}
					n, notify := r.PushRequests(c, batch)
					if n != burst {
						t.Fatalf("seed %d: pushed %d of %d with %d outstanding",
							seed, n, burst, outstanding)
					}
					outstanding += n
					if notify {
						doorbells++
						drainBackend() // the doorbell wakes the consumer
					}
				case 1: // backend polls on its own (scheduler slice)
					if backendAsleep && rng.Intn(8) != 0 {
						continue // asleep: only the rare slice polls
					}
					drainBackend()
				case 2: // backend answers some taken requests
					if len(toAnswer) == 0 {
						continue
					}
					n := 1 + rng.Intn(len(toAnswer))
					resps := make([]BlkResponse, n)
					for i := 0; i < n; i++ {
						resps[i] = BlkResponse{ID: toAnswer[i]}
					}
					toAnswer = toAnswer[n:]
					r.PushResponses(c, resps)
				case 3: // frontend polls completions
					for {
						n := r.TakeResponses(c, respBuf)
						if n == 0 {
							if !r.FinishResponseConsume(c, threshold) {
								break
							}
							continue
						}
						for _, resp := range respBuf[:n] {
							completed[resp.ID]++
							outstanding--
						}
					}
				}
			}
			// Liveness epilogue: anything still queued must be reachable
			// by one forced kick + drain (the KickStalled fallback).
			drainBackend()
			for _, id := range toAnswer {
				r.PushResponses(c, []BlkResponse{{ID: id}})
			}
			for {
				n := r.TakeResponses(c, respBuf)
				if n == 0 {
					break
				}
				for _, resp := range respBuf[:n] {
					completed[resp.ID]++
					outstanding--
				}
			}

			if len(seen) != total || len(completed) != total {
				t.Fatalf("seed %d thr %d: saw %d, completed %d of %d",
					seed, threshold, len(seen), len(completed), total)
			}
			for id := uint64(0); id < uint64(total); id++ {
				if seen[id] != 1 {
					t.Fatalf("seed %d: request %d consumed %d times", seed, id, seen[id])
				}
				if completed[id] != 1 {
					t.Fatalf("seed %d: request %d completed %d times", seed, id, completed[id])
				}
			}
			st := &r.Stats
			if st.ReqSlots.Load() != total || st.RespSlots.Load() != total {
				t.Fatalf("seed %d: slot counts %d/%d", seed,
					st.ReqSlots.Load(), st.RespSlots.Load())
			}
			if threshold > 1 && doorbells >= total {
				t.Fatalf("seed %d thr %d: no coalescing (%d doorbells for %d requests)",
					seed, threshold, doorbells, total)
			}
		}
	}
}

// TestIORingNotifyProtocol pins the event-index decisions: first push
// rings (marks start at 1), pushes below a re-armed threshold stay
// silent, and the push crossing the mark rings exactly once.
func TestIORingNotifyProtocol(t *testing.T) {
	c, costs := ioRingCPU(t)
	r := NewIORing[BlkRequest, BlkResponse](64, costs)

	if _, notify := r.PushRequests(c, []BlkRequest{{ID: 1}}); !notify {
		t.Fatal("first push must notify")
	}
	buf := make([]BlkRequest, 64)
	if r.TakeRequests(c, buf) != 1 {
		t.Fatal("take")
	}
	if r.FinishRequestConsume(c, 16) {
		t.Fatal("final check true on empty ring")
	}
	// 15 singleton pushes stay below the 16-slot mark.
	for i := 0; i < 15; i++ {
		if _, notify := r.PushRequests(c, []BlkRequest{{ID: uint64(i)}}); notify {
			t.Fatalf("push %d rang below threshold", i)
		}
	}
	if _, notify := r.PushRequests(c, []BlkRequest{{ID: 99}}); !notify {
		t.Fatal("16th push must cross the mark")
	}
	if r.Stats.ReqKicks.Load() != 2 || r.Stats.ReqSuppressed.Load() != 15 {
		t.Fatalf("kicks=%d suppressed=%d",
			r.Stats.ReqKicks.Load(), r.Stats.ReqSuppressed.Load())
	}
}

// TestIORingFinalCheckClosesRace exercises the lost-wakeup window: a
// push that lands after the consumer drained but before it re-armed is
// caught by the FINAL CHECK return, so the consumer never sleeps on a
// non-empty ring.
func TestIORingFinalCheckClosesRace(t *testing.T) {
	c, costs := ioRingCPU(t)
	r := NewIORing[BlkRequest, BlkResponse](8, costs)

	r.PushRequests(c, []BlkRequest{{ID: 1}})
	buf := make([]BlkRequest, 8)
	r.TakeRequests(c, buf)
	// Producer sneaks one in against the stale mark (already consumed
	// index 1, mark re-arm not yet done): suppressed.
	if _, notify := r.PushRequests(c, []BlkRequest{{ID: 2}}); notify {
		t.Fatal("push against stale mark should be suppressed")
	}
	if !r.FinishRequestConsume(c, 4) {
		t.Fatal("FINAL CHECK must catch the raced push")
	}
	if r.TakeRequests(c, buf) != 1 {
		t.Fatal("raced request lost")
	}
}

// TestIORingResponseOverflowPanics pins the response-direction
// contract: pushing more completions than the ring has free response
// slots is a bug (the frontend bounds outstanding by capacity), and
// the ring fails loudly instead of dropping a completion.
func TestIORingResponseOverflowPanics(t *testing.T) {
	c, costs := ioRingCPU(t)
	r := NewIORing[BlkRequest, BlkResponse](2, costs)
	defer func() {
		if recover() == nil {
			t.Fatal("response overflow did not panic")
		}
	}()
	r.PushResponses(c, []BlkResponse{{ID: 1}, {ID: 2}, {ID: 3}})
}

// TestIORingDropNotifyRecoveredByPoll pins the chaos fault class: a
// swallowed doorbell leaves the work queued, and a later poll-side
// drain both serves it and accounts the recovery.
func TestIORingDropNotifyRecoveredByPoll(t *testing.T) {
	c, costs := ioRingCPU(t)
	r := NewIORing[BlkRequest, BlkResponse](8, costs)
	r.InjectDropNotify(1)
	if _, notify := r.PushRequests(c, []BlkRequest{{ID: 1}}); notify {
		t.Fatal("dropped doorbell still reported notify")
	}
	if r.Stats.NotifiesDropped.Load() != 1 {
		t.Fatal("drop not accounted")
	}
	buf := make([]BlkRequest, 8)
	if r.TakeRequests(c, buf) != 1 {
		t.Fatal("queued request unreachable")
	}
	if r.Stats.RecoveredByPoll.Load() != 1 {
		t.Fatal("poll recovery not accounted")
	}
}

// TestRingFIFO: requests leave in push order, and a full ring accepts
// only as many as it has free slots.
func TestRingFIFO(t *testing.T) {
	c, costs := ioRingCPU(t)
	r := NewIORing[int, int](8, costs)
	in := []int{0, 1, 2, 3, 4, 5, 6, 7, 99}
	if n, _ := r.PushRequests(c, in); n != 8 {
		t.Fatalf("pushed %d into an 8-slot ring", n)
	}
	if n, _ := r.PushRequests(c, []int{100}); n != 0 {
		t.Fatal("overfilled ring")
	}
	out := make([]int, 16)
	if n := r.TakeRequests(c, out); n != 8 {
		t.Fatalf("took %d of 8", n)
	}
	for i := 0; i < 8; i++ {
		if out[i] != i {
			t.Fatalf("slot %d = %d", i, out[i])
		}
	}
	if r.TakeRequests(c, out) != 0 {
		t.Fatal("take from empty ring")
	}
}

// TestRingResponsesIndependent: the two directions have their own
// indices.
func TestRingResponsesIndependent(t *testing.T) {
	c, costs := ioRingCPU(t)
	r := NewIORing[int, string](8, costs)
	r.PushRequests(c, []int{1})
	r.PushResponses(c, []string{"a"})
	if n := r.RequestsPending(); n != 1 {
		t.Fatalf("requests pending = %d", n)
	}
	if n := r.ResponsesPending(); n != 1 {
		t.Fatalf("responses pending = %d", n)
	}
	out := make([]string, 4)
	if r.TakeResponses(c, out) != 1 || out[0] != "a" {
		t.Fatal("response lost")
	}
	if r.RequestsPending() != 1 {
		t.Fatal("taking a response consumed a request")
	}
}

// TestRingWrapAround: the free-running indices wrap the slot array many
// times without losing order.
func TestRingWrapAround(t *testing.T) {
	c, costs := ioRingCPU(t)
	r := NewIORing[int, int](4, costs)
	out := make([]int, 4)
	for round := 0; round < 10; round++ {
		in := []int{round * 10, round*10 + 1, round*10 + 2}
		if n, _ := r.PushRequests(c, in); n != 3 {
			t.Fatal("push fell short")
		}
		if r.TakeRequests(c, out) != 3 {
			t.Fatal("take fell short")
		}
		for i := range in {
			if out[i] != in[i] {
				t.Fatalf("round %d: slot %d = %d", round, i, out[i])
			}
		}
	}
}

// TestRingConcurrentIntegrity: a producer and a consumer on two CPUs
// and two goroutines neither lose, duplicate nor reorder requests.
// Meant to run under -race.
func TestRingConcurrentIntegrity(t *testing.T) {
	f := func(n uint8) bool {
		count := int(n)%200 + 1
		m := hw.NewMachine(hw.Config{MemBytes: 4 << 20, NumCPUs: 2})
		r := NewIORing[int, int](32, m.Costs)
		prod, cons := m.CPUs[0], m.CPUs[1]
		got := make([]int, 0, count)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			burst := make([]int, 0, 7)
			for i := 0; i < count; {
				burst = burst[:0]
				for j := i; j < count && len(burst) < cap(burst); j++ {
					burst = append(burst, j)
				}
				k, _ := r.PushRequests(prod, burst)
				i += k
				runtime.Gosched()
			}
		}()
		go func() {
			defer wg.Done()
			buf := make([]int, 5)
			for len(got) < count {
				k := r.TakeRequests(cons, buf)
				got = append(got, buf[:k]...)
				runtime.Gosched()
			}
		}()
		wg.Wait()
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return len(got) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestRingCapacityValidation: any requested capacity becomes a power of
// two of at least 2, so index masking stays valid.
func TestRingCapacityValidation(t *testing.T) {
	for _, tc := range []struct{ ask, want int }{{0, 2}, {1, 2}, {5, 8}, {64, 64}, {DefaultRingSize + 1, 2 * DefaultRingSize}} {
		if got := NewIORing[int, int](tc.ask, hw.DefaultCosts()).Capacity(); got != tc.want {
			t.Errorf("NewIORing(%d).Capacity() = %d, want %d", tc.ask, got, tc.want)
		}
	}
}
