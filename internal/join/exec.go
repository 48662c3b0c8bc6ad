package join

import (
	"sort"
	"sync"

	"pmjoin/internal/buffer"
	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/kernel"
)

// Exec is the execution scope of one join run: the run's private I/O
// session, the buffer pool over it, and the report being built. Engine.Run
// constructs one and passes it to the executor body; external executors
// (ego, bfrj, pbsm) receive it the same way.
//
// The determinism contract, which the parallel path must uphold:
//
//   - All I/O goes through Pool/IO on the coordinating goroutine, in
//     exactly the order the serial executor would issue it. Workers never
//     touch the disk; they only compute over payloads the coordinator has
//     already fetched (payloads stay valid after eviction — the simulated
//     disk keeps pages resident).
//   - Comparison work is enqueued as tasks in schedule order via
//     JoinPayloads (per page pair) or JoinCluster (per cell range of a
//     batched cluster). Workers fill in each task's outputs.
//   - Flush waits for the in-flight tasks and merges their results into Rep
//     in submission order — and, for block tasks, per cell within the task —
//     so float64 accumulation order, result counts, and pair emission order
//     are identical to the serial per-pair run.
type Exec struct {
	// IO is the run's disk session: its charges are independent of any
	// concurrent run and also folded into the global disk counters.
	IO *disk.Session
	// Pool is the run's buffer pool, reading through IO.
	Pool *buffer.Pool
	// Rep is the report under construction.
	Rep *Report

	eng   *Engine
	tasks []execTask
	// sent is the index into tasks of the first task not yet submitted to
	// the pool: pair tasks are shipped in batches (see execBatchTasks)
	// because one page pair is microseconds of work — far too fine to pay a
	// pool round trip for. Block tasks ship immediately.
	sent int
	// free and freeBlocks recycle task allocations across Flush boundaries.
	free       []*pairTask
	freeBlocks []*blockTask
	wg         sync.WaitGroup

	// Batched-cluster scratch, reused across clusters within the run. The
	// blocks and slices are referenced by in-flight block tasks, which Flush
	// retires before the next cluster rebuilds them.
	blockR, blockS       kernel.ClusterBlock
	idsR, idsS           [][]int
	payloadsR, payloadsS []any
	cells                []kernel.Cell
}

// execTask is one unit of comparison work: a worker (or the coordinator,
// when serial) calls run; Flush calls merge on the coordinator in submission
// order.
type execTask interface {
	run()
	merge(x *Exec)
}

// execBatchTasks is the number of page-pair tasks shipped to a worker per
// submission. One pair is ~1-10us of comparison work; batching amortizes
// the queue round trip and WaitGroup traffic without costing parallelism
// (clusters hold hundreds of pairs).
const execBatchTasks = 64

// blockTaskCells is the cell-range granularity of batched cluster dispatch:
// large clusters split into contiguous runs of this many marked cells, so
// the worker pool stays balanced without paying a task per page pair.
const blockTaskCells = 64

// pairTask is one page-pair comparison unit. The coordinator allocates it
// with the input payloads; a worker (or the coordinator itself, when
// serial) fills in the outputs; Flush merges them in submission order.
type pairTask struct {
	a, b    any
	joiner  ObjectJoiner
	capture bool

	comps   int64
	cpu     float64
	results int64
	pairs   [][2]int
}

func (t *pairTask) run() {
	emit := func(i, j int) {
		t.results++
		if t.capture {
			t.pairs = append(t.pairs, [2]int{i, j})
		}
	}
	t.comps, t.cpu = t.joiner.JoinPages(t.a, t.b, emit)
}

func (t *pairTask) merge(x *Exec) {
	x.Rep.Comparisons += t.comps
	x.Rep.CPUJoinSeconds += t.cpu
	x.Rep.Results += t.results
	if x.eng.OnPair != nil {
		for _, p := range t.pairs {
			x.eng.OnPair(p[0], p[1])
		}
	}
	t.a, t.b, t.joiner = nil, nil, nil // drop payload refs while pooled
	x.free = append(x.free, t)
}

// blockTask evaluates one contiguous range of a batched cluster's marked
// cells against the cluster's two flat blocks. Workers only read the shared
// blocks and id slices; each task owns its hit and pair buffers.
type blockTask struct {
	th      kernel.Threshold
	br, bs  *kernel.ClusterBlock
	cells   []kernel.Cell
	idsR    [][]int // per R-block page, the payload's object IDs
	idsS    [][]int
	capture bool

	results int64
	hits    []kernel.BlockHit
	pairs   [][2]int
}

func (t *blockTask) run() {
	t.hits = kernel.BlockPairsWithin(&t.th, t.br, t.bs, t.cells, t.hits[:0])
	t.results = int64(len(t.hits))
	if t.capture {
		for _, h := range t.hits {
			c := t.cells[h.Cell]
			t.pairs = append(t.pairs, [2]int{t.idsR[c.R][h.I], t.idsS[c.S][h.J]})
		}
	}
}

func (t *blockTask) merge(x *Exec) {
	// Fold counters per cell in submission order: the same expressions a
	// pairTask per cell would produce (VectorJoiner/SeriesJoiner non-self
	// path: comps = nR*nS, cpu = comps*perPair), added to the report in the
	// same sequence, so the float accumulation is bit-identical to the
	// per-pair path. Empty pages contribute exactly +0.0 either way.
	perPair := compareBaseCost + comparePerDimCost*float64(t.br.Dim())
	for _, c := range t.cells {
		comps := int64(t.br.PageRows(c.R)) * int64(t.bs.PageRows(c.S))
		x.Rep.Comparisons += comps
		x.Rep.CPUJoinSeconds += float64(comps) * perPair
	}
	x.Rep.Results += t.results
	if x.eng.OnPair != nil {
		for _, p := range t.pairs {
			x.eng.OnPair(p[0], p[1])
		}
	}
	t.br, t.bs, t.cells, t.idsR, t.idsS = nil, nil, nil, nil, nil
	t.results = 0
	t.pairs = t.pairs[:0]
	x.freeBlocks = append(x.freeBlocks, t)
}

// Err returns the engine context's error, if any. Executors call it at
// cluster/block boundaries so cancellation is honored between units of
// work without perturbing the I/O accounting of completed units.
func (x *Exec) Err() error {
	if x.eng.Ctx == nil {
		return nil
	}
	return x.eng.Ctx.Err()
}

// Emit records one result pair inline (serial executors that interleave
// emission with their own bookkeeping use this instead of task dispatch).
func (x *Exec) Emit(a, b int) {
	x.Rep.Results++
	if x.eng.OnPair != nil {
		x.eng.OnPair(a, b)
	}
}

// JoinPayloads schedules the comparison of two already-fetched page
// payloads (a from the first dataset, b from the second). With a worker
// pool the task runs concurrently (batched; see execBatchTasks); without
// one it runs immediately. Either way its counters merge into Rep only at
// the next Flush, in submission order.
func (x *Exec) JoinPayloads(j ObjectJoiner, a, b any) {
	var t *pairTask
	if n := len(x.free); n > 0 {
		t = x.free[n-1]
		x.free = x.free[:n-1]
		*t = pairTask{pairs: t.pairs[:0]}
	} else {
		t = &pairTask{}
	}
	t.a, t.b, t.joiner, t.capture = a, b, j, x.eng.OnPair != nil
	x.tasks = append(x.tasks, t)
	if x.eng.Workers == nil {
		t.run()
		return
	}
	if len(x.tasks)-x.sent >= execBatchTasks {
		x.submit()
	}
}

// submit ships the pending task range to the pool as one batch. The batch
// captures a snapshot slice of execTask — stable under later appends to
// x.tasks, since only the backing array is ever reallocated.
func (x *Exec) submit() {
	batch := x.tasks[x.sent:len(x.tasks):len(x.tasks)]
	if len(batch) == 0 {
		return
	}
	x.sent = len(x.tasks)
	x.wg.Add(1)
	x.eng.Workers.Run(func() {
		defer x.wg.Done()
		for _, t := range batch {
			t.run()
		}
	})
}

// JoinPair fetches the page pair (pr of r, ps of s) through the pool — in
// that order, charging hits/misses exactly as the serial executor would —
// and schedules its comparison.
func (x *Exec) JoinPair(r, s *Dataset, pr, ps int, j ObjectJoiner) error {
	pa, err := x.Pool.Get(disk.PageAddr{File: r.File, Page: pr})
	if err != nil {
		return err
	}
	pb, err := x.Pool.Get(disk.PageAddr{File: s.File, Page: ps})
	if err != nil {
		return err
	}
	x.JoinPayloads(j, pa.Payload, pb.Payload)
	return nil
}

// JoinCluster evaluates every marked entry of one pinned cluster as batched
// block tasks — the clustered executor's only sanctioned batch dispatch
// site. The per-entry fetch sequence of a JoinPair loop is replayed exactly
// (R then S per entry, charging pool hits/misses and touching LRU recency
// identically), then one flat block per side is built from the distinct
// pinned pages and the cluster's cells ship as contiguous ranges of
// blockTaskCells. Flush's per-cell fold keeps Report, pair order, and every
// counter bit-identical to the per-pair path at any parallelism.
func (x *Exec) JoinCluster(r, s *Dataset, c *cluster.Cluster, j BatchJoiner, th kernel.Threshold) error {
	rows, cols := c.Rows(), c.Cols()
	if cap(x.payloadsR) < len(rows) {
		x.payloadsR = make([]any, len(rows))
	}
	if cap(x.payloadsS) < len(cols) {
		x.payloadsS = make([]any, len(cols))
	}
	// Every row/col of a cluster appears in at least one entry (they are
	// derived from the entry set), so each payload slot below is written.
	x.payloadsR = x.payloadsR[:len(rows)]
	x.payloadsS = x.payloadsS[:len(cols)]
	x.cells = x.cells[:0]
	for _, en := range c.Entries {
		pa, err := x.Pool.Get(disk.PageAddr{File: r.File, Page: en.R})
		if err != nil {
			return err
		}
		pb, err := x.Pool.Get(disk.PageAddr{File: s.File, Page: en.C})
		if err != nil {
			return err
		}
		ri := sort.SearchInts(rows, en.R)
		ci := sort.SearchInts(cols, en.C)
		x.payloadsR[ri] = pa.Payload
		x.payloadsS[ci] = pb.Payload
		x.cells = append(x.cells, kernel.Cell{R: ri, S: ci})
	}
	// Concatenate each side's flat pages into one block, timed through the
	// metrics hook (a nil collector just runs the closure; internal/join
	// itself takes no wall clocks).
	x.eng.Metrics.ClusterBatchBuild(func() (int, int) {
		x.blockR.Reset()
		x.idsR = x.idsR[:0]
		for _, p := range x.payloadsR {
			f, ids := j.BatchPage(p)
			x.blockR.AddPage(f)
			x.idsR = append(x.idsR, ids)
		}
		x.blockS.Reset()
		x.idsS = x.idsS[:0]
		for _, p := range x.payloadsS {
			f, ids := j.BatchPage(p)
			x.blockS.AddPage(f)
			x.idsS = append(x.idsS, ids)
		}
		return len(x.cells), x.blockR.Rows() + x.blockS.Rows()
	})
	for lo := 0; lo < len(x.cells); lo += blockTaskCells {
		hi := lo + blockTaskCells
		if hi > len(x.cells) {
			hi = len(x.cells)
		}
		var t *blockTask
		if n := len(x.freeBlocks); n > 0 {
			t = x.freeBlocks[n-1]
			x.freeBlocks = x.freeBlocks[:n-1]
		} else {
			t = &blockTask{}
		}
		t.th, t.br, t.bs = th, &x.blockR, &x.blockS
		t.cells = x.cells[lo:hi:hi]
		t.idsR, t.idsS = x.idsR, x.idsS
		t.capture = x.eng.OnPair != nil
		x.tasks = append(x.tasks, t)
		if x.eng.Workers == nil {
			t.run()
		} else {
			// A block task is a coarse unit (up to blockTaskCells page
			// pairs): ship it — and any pending pair tasks — immediately.
			x.submit()
		}
	}
	return nil
}

// Kick ships any pending comparison tasks to the workers without waiting.
// The engine calls it before coordinator-side work it wants overlapped with
// the comparisons (the prefetch step): tasks below the batching threshold
// would otherwise sit unsubmitted until Flush, serializing the two phases
// the pipeline exists to overlap. A no-op without workers, and harmless for
// determinism — Flush merges in submission order regardless of when the
// batch shipped.
func (x *Exec) Kick() {
	if x.eng.Workers != nil {
		x.submit()
	}
}

// Flush waits for every scheduled task and merges their outputs into Rep in
// submission order. Executors call it at the same boundaries where the
// buffer's pinned set turns over (cluster end, outer block end), bounding
// the number of outstanding tasks.
func (x *Exec) Flush() {
	if x.eng.Workers != nil {
		x.submit()
	}
	x.wg.Wait()
	for _, t := range x.tasks {
		t.merge(x)
	}
	x.tasks = x.tasks[:0]
	x.sent = 0
}
