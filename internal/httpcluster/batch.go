package httpcluster

import (
	"sync"
	"time"
)

// Batched dispatch: when a batch window is configured, a master
// coalesces dynamic requests bound for the same slave that arrive
// within the window into one exec frame, amortizing the per-frame
// syscalls and round trip across the batch. One batcher goroutine per
// target owns the coalescing; callers park on a pooled call slot and
// read their own status back. Opt-in (default off): in calibrated mode
// the window would add artificial latency to a data plane that is
// deliberately not throughput-bound.

// DefaultBatchMax bounds how many requests one frame may carry when
// batching is enabled and no explicit BatchMax is configured.
const DefaultBatchMax = 64

// execCall carries one request to its target's batcher and its status
// back; pooled so a batched dispatch allocates nothing.
type execCall struct {
	reqs [1]frameExec
	done chan error
}

var execCallPool = sync.Pool{New: func() any { return &execCall{done: make(chan error, 1)} }}

// execBatcher is the rendezvous between request handlers and one
// target's batching goroutine.
type execBatcher struct {
	ch chan *execCall
}

// batcherFor returns target's batcher, starting it on first use.
func (f *frameDialer) batcherFor(target int) *execBatcher {
	st := &f.states[target]
	if b := st.bat.Load(); b != nil {
		return b
	}
	b := &execBatcher{ch: make(chan *execCall, 4*f.m.batchMax)}
	if !st.bat.CompareAndSwap(nil, b) {
		return st.bat.Load()
	}
	f.m.wg.Add(1)
	go f.runBatcher(target, b)
	return b
}

// batchExec hands one request to target's batcher and waits for its
// status. During shutdown calls fail with errMasterStopped instead of
// blocking on a batcher that may already have drained and exited.
func (f *frameDialer) batchExec(target int, req frameExec) error {
	b := f.batcherFor(target)
	c := execCallPool.Get().(*execCall)
	c.reqs[0] = req
	select {
	case b.ch <- c:
	case <-f.m.stop:
		execCallPool.Put(c)
		return errMasterStopped
	}
	select {
	case err := <-c.done:
		execCallPool.Put(c)
		return err
	case <-f.m.stop:
		// The batcher may still complete this call; the slot cannot be
		// pooled again.
		return errMasterStopped
	}
}

// runBatcher coalesces calls for one target: the first arrival opens a
// window; everything that lands before the window closes (or the batch
// fills) ships as one frame.
func (f *frameDialer) runBatcher(target int, b *execBatcher) {
	defer f.m.wg.Done()
	m := f.m
	calls := make([]*execCall, 0, m.batchMax)
	reqs := make([]frameExec, 0, m.batchMax)
	sts := make([]int, 0, m.batchMax)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-m.stop:
			for {
				select {
				case c := <-b.ch:
					c.done <- errMasterStopped
				default:
					return
				}
			}
		case c := <-b.ch:
			calls = append(calls[:0], c)
			timer.Reset(m.batchWindow)
		collect:
			for len(calls) < m.batchMax {
				select {
				case c2 := <-b.ch:
					calls = append(calls, c2)
				case <-timer.C:
					break collect
				}
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			reqs, sts = f.shipBatch(target, calls, reqs, sts)
		}
	}
}

// shipBatch sends one coalesced frame and distributes per-entry
// statuses back to the waiting calls. The scratch slices are returned
// for reuse.
func (f *frameDialer) shipBatch(target int, calls []*execCall, reqs []frameExec, sts []int) ([]frameExec, []int) {
	reqs = reqs[:0]
	var dlNs int64
	for _, c := range calls {
		reqs = append(reqs, c.reqs[0])
		if c.reqs[0].deadlineNs > dlNs {
			dlNs = c.reqs[0].deadlineNs
		}
	}
	// The exchange runs under the latest deadline in the batch; each
	// entry still carries its own, which the slave enforces per entry.
	deadline := time.Now().Add(5 * time.Second)
	if dlNs > 0 {
		deadline = time.Unix(0, dlNs)
	}
	sts, err := f.exchange(target, reqs, sts[:0], deadline)
	f.m.batchesSent.Add(1)
	f.m.batchedReqs.Add(int64(len(calls)))
	for i, c := range calls {
		if err != nil {
			c.done <- err
		} else {
			c.done <- statusToErr(sts[i])
		}
	}
	return reqs, sts
}
