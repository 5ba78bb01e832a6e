package experiments

import (
	"sync"
	"sync/atomic"

	"blbp/internal/sim"
)

// MemoStats counts the runner's result memo traffic.
type MemoStats struct {
	// Hits counts predictor results served from the memo instead of
	// simulated.
	Hits int64
	// Stored counts predictor results recorded in the memo.
	Stored int64
}

// resultMemo is the runner's per-predictor result memo (see PassMemo). Each
// key has one cell; the task that claims a cell computes it and everyone
// else waits on done, so a key is simulated at most once at a time, and
// once in all while it succeeds. A failed cell is dropped from the map so a
// later request retries instead of inheriting the error.
type resultMemo struct {
	mu     sync.Mutex
	cells  map[string]*memoCell
	hits   atomic.Int64
	stored atomic.Int64
}

type memoCell struct {
	done chan struct{}
	res  []sim.Result
	err  error
}

func (m *resultMemo) stats() MemoStats {
	return MemoStats{Hits: m.hits.Load(), Stored: m.stored.Load()}
}

// claim returns the cell of every key, and which of them the caller now
// owns: those no task had computed or was computing.
func (m *resultMemo) claim(keys []string) ([]*memoCell, []bool) {
	cells := make([]*memoCell, len(keys))
	own := make([]bool, len(keys))
	m.mu.Lock()
	for i, k := range keys {
		c := m.cells[k]
		if c == nil {
			c = &memoCell{done: make(chan struct{})}
			m.cells[k] = c
			own[i] = true
		}
		cells[i] = c
	}
	m.mu.Unlock()
	return cells, own
}

// publish completes the owned cells, in key order, with groups (one per
// owned key), or fails them all with err.
func (m *resultMemo) publish(keys []string, cells []*memoCell, own []bool, groups [][]sim.Result, err error) {
	g := 0
	for i, c := range cells {
		if !own[i] {
			continue
		}
		if err != nil {
			c.err = err
			m.mu.Lock()
			delete(m.cells, keys[i])
			m.mu.Unlock()
		} else {
			c.res = groups[g]
			g++
			m.stored.Add(int64(len(c.res)))
		}
		close(c.done)
	}
}

// fill records results a task computed without claiming them (a FillOnly
// pass), for keys no other task holds.
func (m *resultMemo) fill(keys []string, groups [][]sim.Result) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, k := range keys {
		if m.cells[k] != nil {
			continue
		}
		c := &memoCell{done: make(chan struct{}), res: groups[i]}
		close(c.done)
		m.cells[k] = c
		m.stored.Add(int64(len(c.res)))
	}
}

// collect waits for every cell and concatenates their results in key
// order, renamed positionally to names. Results from cells the caller did
// not own count as hits.
func (m *resultMemo) collect(cells []*memoCell, own []bool, names []string) ([]sim.Result, error) {
	out := make([]sim.Result, 0, len(names))
	for i, c := range cells {
		<-c.done
		if c.err != nil {
			return nil, c.err
		}
		if !own[i] {
			m.hits.Add(int64(len(c.res)))
		}
		for _, res := range c.res {
			res.Predictor = names[len(out)]
			out = append(out, res)
		}
	}
	return out, nil
}
