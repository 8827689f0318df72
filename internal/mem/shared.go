// Package mem implements the memory system of the extended PRAM-NUMA
// machine: a word-addressable shared memory partitioned into P modules with
// PRAM step semantics (reads observe the state at step start, writes are
// buffered and resolved deterministically at step end), plus per-group local
// memory blocks with immediate semantics for NUMA-mode execution.
package mem

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// ErrBadSize reports a nonpositive memory size or module count. The
// constructors return it (wrapped, with the offending value) instead of
// panicking: machine shapes arrive from untrusted requests on the serve
// path, so a bad size must fail the one request, not the process.
var ErrBadSize = errors.New("mem: nonpositive size")

// Policy selects the concurrent-write resolution rule of the CRCW PRAM.
type Policy int

const (
	// Arbitrary resolves concurrent writes to one deterministic winner:
	// the write with the lowest (flow, thread, seq) key. The model allows
	// any winner; fixing the lowest key keeps simulation reproducible.
	Arbitrary Policy = iota
	// Priority lets the lowest-keyed write win and is the classic
	// PRIORITY CRCW rule (lower flow/thread index = higher priority).
	Priority
	// Common requires all concurrent writes to a word within a step to
	// carry the same value; differing values are reported as conflicts.
	Common
)

func (p Policy) String() string {
	switch p {
	case Arbitrary:
		return "arbitrary"
	case Priority:
		return "priority"
	case Common:
		return "common"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// Key orders writes within a step. Lower keys win under Priority (and are
// the deterministic choice under Arbitrary).
type Key struct {
	Flow   int // flow id
	Thread int // thread index within the flow
	Seq    int // issue sequence within the thread (NUMA bunches issue many)
}

// Less compares keys lexicographically.
func (k Key) Less(o Key) bool {
	if k.Flow != o.Flow {
		return k.Flow < o.Flow
	}
	if k.Thread != o.Thread {
		return k.Thread < o.Thread
	}
	return k.Seq < o.Seq
}

// Write is one buffered shared-memory store.
type Write struct {
	Addr int64
	Val  int64
	Key  Key
}

// compareWrites orders a step's writes for resolution: by address, then by
// key (lowest key first, so the winner of each address run is ws[i]).
func compareWrites(a, b Write) int {
	if a.Addr != b.Addr {
		if a.Addr < b.Addr {
			return -1
		}
		return 1
	}
	if a.Key.Less(b.Key) {
		return -1
	}
	if b.Key.Less(a.Key) {
		return 1
	}
	return 0
}

// Conflict records a Common-policy violation: two same-step writes to Addr
// with different values.
type Conflict struct {
	Addr int64
	A, B int64
}

func (c Conflict) String() string {
	return fmt.Sprintf("common-CRCW conflict at %d: %d vs %d", c.Addr, c.A, c.B)
}

// PageShift sets the granularity of the lazily allocated backing store:
// pages of pageWords words materialize on first write (or preload), so a
// machine whose program touches a few hundred words never pays for zeroing
// the whole address space. 1024 words = 8 KiB per page, small enough to
// stay in the allocator's size classes (32 KiB pages fell into the
// large-object path, whose span setup dominated short-lived machines). The
// cost analyzer's footprint and abstract memory are paged by it too.
const (
	PageShift = 10
	pageWords = 1 << PageShift
)

// applyParallelMin is the buffered-write count below which ApplyStep resolves
// shards serially; small steps stay allocation- and goroutine-free.
const applyParallelMin = 2048

// Shared is the emulated shared memory: Words words spread over Modules
// modules with low-order interleaving (module = addr mod Modules), the
// standard ESM address hashing approximation.
//
// The backing store is paged and lazily allocated: unwritten pages read as
// zero without ever being materialized.
//
// Buffered step writes are sharded by home memory module; ApplyStep resolves
// the shards independently (in parallel when SetParallel(true) and the step
// is write-heavy) with identical results to a global resolution, because a
// word's writes all land in one shard and shards touch disjoint words.
//
// Modules can fail-stop (FailModule): every module's contents are mirrored,
// so a failure remaps the dead module's traffic onto the lowest-indexed
// surviving module at a step boundary — results are unaffected, only the
// locality (and hence latency) of the remapped references changes. With no
// survivor left the failure is unrecoverable.
type Shared struct {
	pages   [][]int64 // lazily materialized pageWords-sized pages
	size    int64     // total words
	modules int
	modMask int64 // modules-1 when modules is a power of two, else -1
	policy  Policy
	par     bool // resolve write shards on multiple goroutines

	// remap[m] is the module serving traffic addressed to m (identity
	// until failover); failed marks dead modules.
	remap     []int
	failed    []bool
	failovers int64

	// shards[m] buffers the step's writes whose home module is m. The
	// per-shard backing arrays are retained across steps.
	shards [][]Write
	// bwScratch holds BufferWrites' per-module counts/cursors between its
	// two passes (lazily sized, retained across calls).
	bwScratch []int

	// Counters.
	reads      int64
	writesDone int64
	stepWrites int64
}

// NewShared allocates a shared memory of size words over modules modules.
// Nonpositive sizes return an error wrapping ErrBadSize.
func NewShared(words, modules int, policy Policy) (*Shared, error) {
	if words <= 0 {
		return nil, fmt.Errorf("shared memory size %d must be positive: %w", words, ErrBadSize)
	}
	if modules <= 0 {
		return nil, fmt.Errorf("module count %d must be positive: %w", modules, ErrBadSize)
	}
	remap := make([]int, modules)
	for i := range remap {
		remap[i] = i
	}
	modMask := int64(-1)
	if modules&(modules-1) == 0 {
		modMask = int64(modules - 1)
	}
	// The page table itself materializes on first write: a machine whose
	// program never touches shared memory pays nothing for it.
	return &Shared{
		size:    int64(words),
		modules: modules, modMask: modMask, policy: policy,
		remap: remap, failed: make([]bool, modules),
		shards: make([][]Write, modules),
	}, nil
}

// Reset restores the memory to its zeroed initial state while keeping the
// materialized pages and the write-shard backing arrays — the reuse that
// makes pooled machines cheap. Pages are zeroed in place, the failover
// remap returns to identity, dead modules revive, and all counters clear.
// The resulting state is observably identical to a fresh NewShared.
func (s *Shared) Reset() {
	for _, p := range s.pages {
		if p != nil {
			clear(p)
		}
	}
	for i := range s.remap {
		s.remap[i] = i
	}
	clear(s.failed)
	s.failovers = 0
	for i := range s.shards {
		s.shards[i] = s.shards[i][:0]
	}
	s.reads, s.writesDone, s.stepWrites = 0, 0, 0
}

// SetParallel enables multi-goroutine shard resolution in ApplyStep. Results
// are bit-identical either way; only wall-clock changes.
func (s *Shared) SetParallel(on bool) { s.par = on }

// Size returns the number of words.
func (s *Shared) Size() int { return int(s.size) }

// Modules returns the number of memory modules.
func (s *Shared) Modules() int { return s.modules }

// Policy returns the concurrent-write policy.
func (s *Shared) Policy() Policy { return s.policy }

// ModuleOf returns the module serving addr: low-order interleaving, then the
// failover remap table.
func (s *Shared) ModuleOf(addr int64) int {
	return s.remap[s.HomeModuleOf(addr)]
}

// HomeModuleOf returns the module addr interleaves onto before failover.
// Power-of-two module counts mask instead of dividing (two's-complement AND
// is exactly the Euclidean remainder for negative addresses too) — this
// sits on the hot path of every shared reference.
func (s *Shared) HomeModuleOf(addr int64) int {
	if s.modMask >= 0 {
		return int(addr & s.modMask)
	}
	return int(((addr % int64(s.modules)) + int64(s.modules)) % int64(s.modules))
}

// ModuleFailed reports whether module m has fail-stopped.
func (s *Shared) ModuleFailed(m int) bool {
	return m >= 0 && m < s.modules && s.failed[m]
}

// Failovers returns the number of module failovers performed.
func (s *Shared) Failovers() int64 { return s.failovers }

// FailModule fail-stops module m: its traffic (and any traffic already
// remapped onto it) moves to the lowest-indexed surviving module. Failing an
// already-dead module is a no-op. With no survivor the memory is lost and an
// error is returned.
func (s *Shared) FailModule(m int) error {
	if m < 0 || m >= s.modules {
		return fmt.Errorf("mem: FailModule(%d) outside [0,%d)", m, s.modules)
	}
	if s.failed[m] {
		return nil
	}
	s.failed[m] = true
	spare := -1
	for i := 0; i < s.modules; i++ {
		if !s.failed[i] {
			spare = i
			break
		}
	}
	if spare < 0 {
		return fmt.Errorf("mem: module %d failed and no surviving module remains", m)
	}
	for i, t := range s.remap {
		if t == m {
			s.remap[i] = spare
		}
	}
	s.failovers++
	return nil
}

// InRange reports whether addr is a valid word address.
func (s *Shared) InRange(addr int64) bool { return addr >= 0 && addr < s.size }

// page returns the page backing addr, or nil if it was never written.
func (s *Shared) page(addr int64) []int64 {
	if s.pages == nil {
		return nil
	}
	return s.pages[addr>>PageShift]
}

// ensurePage materializes the page backing addr and returns it.
func (s *Shared) ensurePage(addr int64) []int64 {
	if s.pages == nil {
		s.pages = make([][]int64, (s.size+pageWords-1)>>PageShift)
	}
	i := addr >> PageShift
	p := s.pages[i]
	if p == nil {
		p = make([]int64, pageWords)
		s.pages[i] = p
	}
	return p
}

// Read returns the word at addr as of the start of the current step.
// Out-of-range reads return 0, like the trap-free simulated hardware.
func (s *Shared) Read(addr int64) int64 {
	s.reads++
	return s.Peek(addr)
}

// Peek reads without counting (for inspection and tests).
func (s *Shared) Peek(addr int64) int64 {
	if !s.InRange(addr) {
		return 0
	}
	p := s.page(addr)
	if p == nil {
		return 0
	}
	return p[addr&(pageWords-1)]
}

// Reader is a page-cached read cursor for dense read runs: Peek through a
// Reader resolves the page table only when the address crosses a page
// boundary. Value type, zero-allocation; reads see the same pre-step image
// as Shared.Peek.
type Reader struct {
	s     *Shared
	pgIdx int64
	pg    []int64
}

// Reader returns a fresh read cursor over s.
func (s *Shared) Reader() Reader { return Reader{s: s, pgIdx: -1} }

// Peek reads without counting, caching the last-touched page.
func (r *Reader) Peek(addr int64) int64 {
	if !r.s.InRange(addr) {
		return 0
	}
	if idx := addr >> PageShift; idx != r.pgIdx {
		r.pgIdx, r.pg = idx, nil
		if r.s.pages != nil {
			r.pg = r.s.pages[idx]
		}
	}
	if r.pg == nil {
		return 0
	}
	return r.pg[addr&(pageWords-1)]
}

// Poke writes immediately without buffering (program loading, tests).
func (s *Shared) Poke(addr int64, val int64) {
	if s.InRange(addr) {
		s.ensurePage(addr)[addr&(pageWords-1)] = val
	}
}

// Load preloads a data segment, page-wise.
func (s *Shared) Load(addr int64, words []int64) error {
	if addr < 0 || addr+int64(len(words)) > s.size {
		return fmt.Errorf("mem: data segment [%d,%d) out of range [0,%d)", addr, addr+int64(len(words)), s.size)
	}
	for len(words) > 0 {
		p := s.ensurePage(addr)
		n := copy(p[addr&(pageWords-1):], words)
		words = words[n:]
		addr += int64(n)
	}
	return nil
}

// BufferWrite records a store to be applied at the end of the step, bucketed
// by its home memory module. Out-of-range stores are dropped. In parallel
// mode the target page is materialized here, in serial context, so that the
// concurrent shard resolution of ApplyStep never mutates the page table;
// serial resolution materializes pages lazily in applyShard instead.
func (s *Shared) BufferWrite(addr, val int64, key Key) {
	if !s.InRange(addr) {
		return
	}
	if s.par {
		s.ensurePage(addr)
	}
	m := s.HomeModuleOf(addr)
	s.shards[m] = append(s.shards[m], Write{Addr: addr, Val: val, Key: key})
}

// BufferWrites buffers a batch of stores with the per-call overhead (range
// check, parallel-mode page touch, module lookup) amortized over the batch.
// The result is identical to calling BufferWrite per element in order: shard
// resolution sorts each shard by (addr, key) in ApplyStep, so insertion
// order never matters. Two passes — count per module, grow each shard once,
// fill by index — so the hot loop stores plain values instead of running an
// append (with its slice-header write barrier) per element.
func (s *Shared) BufferWrites(ws []Write) {
	if len(s.bwScratch) < s.modules {
		s.bwScratch = make([]int, s.modules)
	}
	cur := s.bwScratch[:s.modules]
	clear(cur)
	for i := range ws {
		w := &ws[i]
		if !s.InRange(w.Addr) {
			continue
		}
		if s.par {
			s.ensurePage(w.Addr)
		}
		cur[s.HomeModuleOf(w.Addr)]++
	}
	for m, n := range cur {
		if n == 0 {
			continue
		}
		sh := s.shards[m]
		cur[m] = len(sh) // becomes the fill cursor
		if need := len(sh) + n; need > cap(sh) {
			sh = append(make([]Write, 0, max(need, 2*cap(sh))), sh...)
		}
		s.shards[m] = sh[:len(sh)+n]
	}
	for i := range ws {
		w := &ws[i]
		if !s.InRange(w.Addr) {
			continue
		}
		m := s.HomeModuleOf(w.Addr)
		s.shards[m][cur[m]] = *w
		cur[m]++
	}
}

// PendingWrites returns the number of writes buffered in the current step.
func (s *Shared) PendingWrites() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh)
	}
	return n
}

// ApplyStep resolves the buffered writes of the step against the policy and
// applies the winners. It returns the Common-policy conflicts (empty under
// Arbitrary/Priority), ordered by address. The write buffer is cleared (its
// capacity is retained for the next step).
func (s *Shared) ApplyStep() []Conflict {
	total := 0
	for _, sh := range s.shards {
		total += len(sh)
	}
	if total == 0 {
		return nil
	}

	var conflicts []Conflict
	if s.par && total >= applyParallelMin && s.modules > 1 {
		workers := runtime.GOMAXPROCS(0)
		if workers > s.modules {
			workers = s.modules
		}
		perShard := make([][]Conflict, s.modules)
		done := make([]int64, s.modules)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= s.modules {
						return
					}
					perShard[i], done[i] = s.applyShard(s.shards[i])
				}
			}()
		}
		wg.Wait()
		for i := 0; i < s.modules; i++ {
			conflicts = append(conflicts, perShard[i]...)
			s.writesDone += done[i]
		}
		// Shards interleave the address space (addr mod modules), so the
		// per-shard address order must be merged into a global one; the
		// stable sort preserves the within-address key order.
		slices.SortStableFunc(conflicts, func(a, b Conflict) int {
			if a.Addr < b.Addr {
				return -1
			}
			if a.Addr > b.Addr {
				return 1
			}
			return 0
		})
	} else {
		for i := range s.shards {
			cs, done := s.applyShard(s.shards[i])
			conflicts = append(conflicts, cs...)
			s.writesDone += done
		}
		slices.SortStableFunc(conflicts, func(a, b Conflict) int {
			if a.Addr < b.Addr {
				return -1
			}
			if a.Addr > b.Addr {
				return 1
			}
			return 0
		})
	}

	s.stepWrites += int64(total)
	for i := range s.shards {
		s.shards[i] = s.shards[i][:0]
	}
	return conflicts
}

// applyShard resolves one shard: sort by (addr, key), detect Common
// conflicts, apply the lowest-keyed write per address. In parallel mode all
// pages touched were materialized by BufferWrite, so ensurePage below never
// mutates the page table and concurrent shards (disjoint address sets) are
// race-free; in serial mode ensurePage materializes lazily here.
func (s *Shared) applyShard(ws []Write) (conflicts []Conflict, done int64) {
	if len(ws) == 0 {
		return nil, 0
	}
	// Bulk store kernels emit writes in ascending thread (= address) order,
	// so shards very often arrive sorted; the O(n) check beats re-sorting.
	if !slices.IsSortedFunc(ws, compareWrites) {
		slices.SortFunc(ws, compareWrites)
	}
	pgIdx, pg := int64(-1), []int64(nil)
	for i := 0; i < len(ws); {
		j := i + 1
		for j < len(ws) && ws[j].Addr == ws[i].Addr {
			if s.policy == Common && ws[j].Val != ws[i].Val {
				conflicts = append(conflicts, Conflict{Addr: ws[i].Addr, A: ws[i].Val, B: ws[j].Val})
			}
			j++
		}
		// Lowest key wins (deterministic Arbitrary; exact Priority). The
		// address order makes the page change rarely; cache it.
		a := ws[i].Addr
		if idx := a >> PageShift; idx != pgIdx {
			pgIdx, pg = idx, s.ensurePage(a)
		}
		pg[a&(pageWords-1)] = ws[i].Val
		done++
		i = j
	}
	return conflicts, done
}

// Stats reports cumulative access counts.
func (s *Shared) Stats() (reads, committedWrites, issuedWrites int64) {
	return s.reads, s.writesDone, s.stepWrites
}

// Snapshot copies words [addr, addr+n) for inspection. The range is clamped
// to the address space once; out-of-range (and never-written) words read as
// zero. Materialized pages are copied wholesale instead of word by word.
func (s *Shared) Snapshot(addr int64, n int) []int64 {
	out := make([]int64, n)
	if n <= 0 || addr >= s.size || addr+int64(n) <= 0 {
		return out
	}
	// Clamp to the valid window [lo, hi); everything outside stays zero.
	lo, hi := addr, addr+int64(n)
	if lo < 0 {
		lo = 0
	}
	if hi > s.size {
		hi = s.size
	}
	for a := lo; a < hi; {
		p := s.page(a)
		off := a & (pageWords - 1)
		end := a - off + pageWords // first word past this page
		if end > hi {
			end = hi
		}
		if p != nil {
			copy(out[a-addr:hi-addr], p[off:off+(end-a)])
		}
		a = end
	}
	return out
}
