package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segment is a run of shared-memory words at a fixed address.
type Segment struct {
	Addr  int64
	Words []int64
}

// Job is one unit of benchmark work: a tcf-e program, the inputs preloaded
// before it runs, how to run it, and the answer it must produce.
type Job struct {
	ID      int
	Name    string    // template and size, e.g. "matmul/64"
	Src     string    // tcf-e source
	Inputs  []Segment // preloaded with SetWords after loading (sim-thick only)
	Variant string    // "tcf", "balanced" or "xmt"
	Backend string    // "interp" or "fused"
	Tenant  string    // serve tenant ("" = default)
	Status  int       // expected HTTP status; http.StatusOK for a run that must succeed
	Check   []Segment // expected shared memory after the run
	Print   []int64   // expected printed values; nil when the program prints nothing
	Ops     int64     // lane operations the run performs (Stats.Ops), set by calibration
}

// program is what a template generates: source text plus the inputs it
// reads and the memory the Go reference fixes.
type program struct {
	src    string
	inputs []Segment
	check  []Segment
}

// layout hands out array addresses above the region the compiler uses for
// auto-placed scalars.
type layout struct {
	next  int64
	b     strings.Builder
	input []Segment
	place bool // write inputs as initializers instead of returning them
}

const arrayBase = 16384

func newLayout(inline bool) *layout { return &layout{next: arrayBase, place: inline} }

// array declares a shared array. A non-nil init is an input: it is either
// written into the declaration or returned for SetWords.
func (l *layout) array(name string, n int, init []int64) int64 {
	addr := l.next
	l.next += int64(n)
	fmt.Fprintf(&l.b, "shared int %s[%d] @ %d", name, n, addr)
	if init != nil {
		if l.place {
			l.b.WriteString(" = {")
			for i, v := range init {
				if i > 0 {
					l.b.WriteString(", ")
				}
				l.b.WriteString(strconv.FormatInt(v, 10))
			}
			l.b.WriteString("}")
		} else {
			l.input = append(l.input, Segment{Addr: addr, Words: init})
		}
	}
	l.b.WriteString(";\n")
	return addr
}

func (l *layout) finish(body string, check ...Segment) program {
	l.b.WriteString(body)
	return program{src: l.b.String(), inputs: l.input, check: check}
}

func randWords(rng *rand.Rand, n int, lo, hi int64) []int64 {
	w := make([]int64, n)
	for i := range w {
		w[i] = lo + rng.Int63n(hi-lo)
	}
	return w
}

// genMatmul is C = A×B over n×n matrices with one implicit thread per
// element of C.
func genMatmul(rng *rand.Rand, n int, inline bool) program {
	a := randWords(rng, n*n, -9, 10)
	b := randWords(rng, n*n, -9, 10)
	l := newLayout(inline)
	l.array("A", n*n, a)
	l.array("B", n*n, b)
	cAddr := l.array("C", n*n, nil)
	c := make([]int64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var acc int64
			for k := 0; k < n; k++ {
				acc += a[i*n+k] * b[k*n+j]
			}
			c[i*n+j] = acc
		}
	}
	return l.finish(fmt.Sprintf(`
func main() {
    int n = %d;
    #n * n;
    thick int row = tid / n;
    thick int col = tid %% n;
    thick int acc = 0;
    for (int k = 0; k < n; k += 1) {
        acc += A[row * n + k] * B[k * n + col];
    }
    C[tid] = acc;
}
`, n), Segment{cAddr, c})
}

// genRadix is a stable LSD radix sort of n keys with 4-bit digits: per pass,
// an ordered multiprefix ranks each key within its bucket (the multiprefix
// histogram), a second one scans the bucket counts, and the keys scatter.
func genRadix(rng *rand.Rand, n, passes int, inline bool) program {
	keys := randWords(rng, n, 0, 1<<(4*passes))
	l := newLayout(inline)
	kAddr := l.array("keys", n, keys)
	iAddr := l.array("idx", n, nil)
	l.array("tk", n, nil)
	l.array("ti", n, nil)
	l.array("rank", n, nil)
	l.array("cnt", 16, nil)
	l.array("start", 16, nil)
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	sort.SliceStable(order, func(x, y int) bool { return keys[order[x]] < keys[order[y]] })
	sorted := make([]int64, n)
	for i, o := range order {
		sorted[i] = keys[o]
	}
	return l.finish(fmt.Sprintf(`shared int total;

func main() {
    #%[1]d;
    idx[tid] = tid;
    for (int p = 0; p < %[2]d; p += 1) {
        int sh = p * 4;
        #16;
        cnt[tid] = 0;
        #1;
        total = 0;
        #%[1]d;
        rank[tid] = mpadd(&cnt[(keys[tid] >> sh) & 15], 1);
        #16;
        start[tid] = mpadd(&total, cnt[tid]);
        #%[1]d;
        thick int k = keys[tid];
        thick int pos = start[(k >> sh) & 15] + rank[tid];
        tk[pos] = k;
        ti[pos] = idx[tid];
        keys[tid] = tk[tid];
        idx[tid] = ti[tid];
    }
}
`, n, passes), Segment{kAddr, sorted}, Segment{iAddr, order})
}

// genScan computes the exclusive prefix sum with one ordered multiprefix
// and the inclusive one with a log-step doubling scan.
func genScan(rng *rand.Rand, n int, inline bool) program {
	src := randWords(rng, n, 0, 100)
	l := newLayout(inline)
	l.array("src", n, src)
	l.array("buf", n, nil)
	oAddr := l.array("out", n, nil)
	eAddr := l.array("ex", n, nil)
	ex := make([]int64, n)
	in := make([]int64, n)
	var acc int64
	for i, v := range src {
		ex[i] = acc
		acc += v
		in[i] = acc
	}
	return l.finish(fmt.Sprintf(`shared int sum;

func main() {
    #%d;
    ex[tid] = mpadd(&sum, src[tid]);
    buf[tid] = src[tid];
    for (int d = 1; d < %[1]d; d *= 2) {
        thick int m = tid >= d;
        thick int v = buf[tid] + m * buf[(tid - d) * m];
        buf[tid] = v;
    }
    out[tid] = buf[tid];
}
`, n), Segment{oAddr, in}, Segment{eAddr, ex})
}

// genParallel splits into four child TCFs of thickness t, each iterating
// its own update r times on its own array.
func genParallel(rng *rand.Rand, t, r int, inline bool) program {
	a := randWords(rng, t, 0, 1000)
	b := randWords(rng, t, 0, 1000)
	c := randWords(rng, t, 0, 1000)
	d := randWords(rng, t, 0, 1000)
	l := newLayout(inline)
	aAddr := l.array("a", t, a)
	bAddr := l.array("b", t, b)
	cAddr := l.array("c", t, c)
	dAddr := l.array("d", t, d)
	a, b, c, d = clone(a), clone(b), clone(c), clone(d)
	for k := 0; k < r; k++ {
		next := make([]int64, t)
		for i := 0; i < t; i++ {
			a[i] = (a[i]*3 + int64(k)) % 1000003
			b[i] = (b[i] ^ (b[i] << 1)) & 65535
			next[i] = (c[i] + c[(i+1)%t]) % 1000003
			d[i] = (d[i]*d[i] + int64(k)) % 1009
		}
		c = next
	}
	return l.finish(fmt.Sprintf(`
func main() {
    parallel {
        #%[1]d: { for (int r = 0; r < %[2]d; r += 1) { a[tid] = (a[tid] * 3 + r) %% 1000003; } }
        #%[1]d: { for (int r = 0; r < %[2]d; r += 1) { b[tid] = (b[tid] ^ (b[tid] << 1)) & 65535; } }
        #%[1]d: { for (int r = 0; r < %[2]d; r += 1) { c[tid] = (c[tid] + c[(tid + 1) %% %[1]d]) %% 1000003; } }
        #%[1]d: { for (int r = 0; r < %[2]d; r += 1) { d[tid] = (d[tid] * d[tid] + r) %% 1009; } }
    }
}
`, t, r), Segment{aAddr, a}, Segment{bAddr, b}, Segment{cAddr, c}, Segment{dAddr, d})
}

// genNuma runs a sequential recurrence over n elements as a NUMA bunch of
// length bunch.
func genNuma(rng *rand.Rand, n, bunch int, inline bool) program {
	data := randWords(rng, n, 0, 1000)
	seed := rng.Int63n(1000)
	l := newLayout(inline)
	l.array("data", n, data)
	oAddr := l.array("out", n, nil)
	out := make([]int64, n)
	acc := seed
	for i, v := range data {
		acc = (acc*31 + v) % 1000003
		out[i] = acc
	}
	return l.finish(fmt.Sprintf(`
func main() {
    #1/%d;
    int acc = %d;
    for (int i = 0; i < %d; i += 1) {
        acc = (acc * 31 + data[i]) %% 1000003;
        out[i] = acc;
    }
}
`, bunch, seed, n), Segment{oAddr, out})
}

// genOverQuota loops far past a small tenant's step quota, so the
// admission-time cost analyzer proves the overrun and the server answers
// 412 before a machine is leased.
func genOverQuota(rng *rand.Rand, t, r int) program {
	l := newLayout(true)
	l.array("a", t, randWords(rng, t, 0, 1000))
	return l.finish(fmt.Sprintf(`
func main() {
    #%d;
    for (int r = 0; r < %d; r += 1) {
        a[tid] = a[tid] + r + %d;
    }
}
`, t, r, rng.Int63n(1000)))
}

// genCREWBreak stores from two threads into one word in the same step,
// which the vet gate rejects under CREW (HTTP 422).
func genCREWBreak(rng *rand.Rand, t int) program {
	l := newLayout(true)
	l.array("a", t, randWords(rng, t, 0, 1000))
	return l.finish(fmt.Sprintf(`
func main() {
    #%d;
    a[tid %% 4] = tid + %d;
}
`, t, rng.Int63n(1000)))
}

func clone(w []int64) []int64 { return append([]int64(nil), w...) }

// shape is one template at one size.
type shape struct {
	name string
	gen  func(rng *rand.Rand, inline bool) program
}

func matmul(n int) shape {
	return shape{fmt.Sprintf("matmul/%d", n), func(r *rand.Rand, in bool) program { return genMatmul(r, n, in) }}
}

func radix(n, passes int) shape {
	return shape{fmt.Sprintf("radix/%dx%d", n, passes), func(r *rand.Rand, in bool) program { return genRadix(r, n, passes, in) }}
}

func scan(n int) shape {
	return shape{fmt.Sprintf("scan/%d", n), func(r *rand.Rand, in bool) program { return genScan(r, n, in) }}
}

func par(t, rounds int) shape {
	return shape{fmt.Sprintf("parallel/%dx%d", t, rounds), func(r *rand.Rand, in bool) program { return genParallel(r, t, rounds, in) }}
}

func numa(n, bunch int) shape {
	return shape{fmt.Sprintf("numa/%d", n), func(r *rand.Rand, in bool) program { return genNuma(r, n, bunch, in) }}
}

// altVariant is the variant other than tcf a template runs on in the
// seeded minority of sim-thick jobs. Every pairing here produces the same
// answer as tcf. Thick templates use xmt: balanced splits each thick
// instruction across many steps and runs them 10-20 times slower, which
// would let one job dominate a run.
var altVariant = map[string]string{
	"matmul":   "xmt",
	"radix":    "xmt",
	"scan":     "xmt",
	"parallel": "xmt",
	"numa":     "balanced",
}

func template(name string) string { return name[:strings.IndexByte(name, '/')] }

// simShapes is one block of the sim-thick job list.
var simShapes = []shape{
	matmul(32), matmul(48), matmul(64),
	radix(2048, 3), radix(4096, 3),
	scan(2048), scan(4096),
	par(512, 32), par(1024, 32),
	numa(1024, 8), numa(2048, 8),
}

// simBlocks is how often each sim-thick shape appears in the job list; one
// block in simBlocks runs on the template's alternative variant.
const simBlocks = 8

// simJobs builds the sim-thick job list: simBlocks copies of every shape
// with fresh seeded inputs, half on each backend, one copy of each on the
// template's alternative variant, in seeded order. The mix of shapes,
// backends and variants is the same for every seed, so seeds vary the data
// and the order but not the amount of work.
func simJobs(seed int64) []Job {
	rng := rand.New(rand.NewSource(seed))
	var jobs []Job
	for si, sh := range simShapes {
		alt := rng.Intn(simBlocks)
		fusedFirst := rng.Intn(2)
		for b := 0; b < simBlocks; b++ {
			p := sh.gen(rng, false)
			j := Job{Name: sh.name, Src: p.src, Inputs: p.inputs, Check: p.check,
				Variant: "tcf", Backend: "interp", Status: http.StatusOK}
			if (b+fusedFirst+si)%2 == 1 {
				j.Backend = "fused"
			}
			if b == alt {
				j.Variant = altVariant[template(sh.name)]
			}
			jobs = append(jobs, j)
		}
	}
	rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	for i := range jobs {
		jobs[i].ID = i
	}
	return jobs
}

// warmShapes are the small seeded programs added to the corpus for
// serve-warm.
var warmShapes = []shape{
	matmul(4), matmul(6), matmul(8),
	radix(32, 2), radix(64, 2),
	scan(32), scan(64),
	par(16, 4), par(32, 4),
	numa(32, 4), numa(64, 4),
}

// warmSmall is how many seeded small programs join the corpus.
const warmSmall = 48

// warmPrograms builds the fixed serve-warm program set: the codegen corpus
// with its EXPECT values plus warmSmall seeded small programs (inputs
// written into the source). Backends are assigned per request.
func warmPrograms(root string, seed int64) ([]Job, error) {
	jobs, err := corpusJobs(root)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < warmSmall; i++ {
		sh := warmShapes[i%len(warmShapes)]
		p := sh.gen(rng, true)
		jobs = append(jobs, Job{Name: sh.name, Src: p.src, Check: p.check, Variant: "tcf", Status: http.StatusOK})
	}
	for i := range jobs {
		jobs[i].ID = i
	}
	return jobs, nil
}

// corpusDir holds the tcf-e corpus, relative to the repository root.
const corpusDir = "internal/codegen/testdata"

// corpusJobs loads every corpus program with the values its "// EXPECT:"
// line says it prints.
func corpusJobs(root string) ([]Job, error) {
	files, err := filepath.Glob(filepath.Join(root, corpusDir, "*.te"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no corpus programs under %s", filepath.Join(root, corpusDir))
	}
	var jobs []Job
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		want, err := expectOf(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		jobs = append(jobs, Job{Name: "corpus/" + filepath.Base(f), Src: string(src),
			Variant: "tcf", Status: http.StatusOK, Print: want})
	}
	return jobs, nil
}

func expectOf(src string) ([]int64, error) {
	for _, line := range strings.Split(src, "\n") {
		rest, ok := strings.CutPrefix(strings.TrimSpace(line), "// EXPECT:")
		if !ok {
			continue
		}
		want := []int64{}
		for _, f := range strings.Fields(rest) {
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad EXPECT value %q", f)
			}
			want = append(want, v)
		}
		return want, nil
	}
	return nil, fmt.Errorf("no // EXPECT: line")
}

// coldShapes are the medium-thickness templates of serve-cold requests that
// must run.
var coldShapes = []shape{
	matmul(8), matmul(12), matmul(16),
	radix(128, 2), scan(128), scan(256),
	par(64, 8), numa(128, 8),
}

// Serve-cold rejection mix, per block of coldBlock requests: coldOverQuota
// go to the small-quota tenant with a program the cost analyzer proves
// over quota (412), coldCREW break CREW (422), and the rest must run.
const (
	coldBlock     = 20
	coldOverQuota = 2
	coldCREW      = 1
)

// smallTenant has a step quota far below what its programs need.
const (
	smallTenant   = "small"
	smallMaxSteps = 64
)

// coldJob builds serve-cold request i: a program no earlier request
// carried. The kind of each slot in a block of coldBlock requests is a
// seeded permutation of a fixed mix, so the share of each kind is the same
// for every seed.
func coldJob(seed int64, i int) Job {
	block := i / coldBlock
	perm := rand.New(rand.NewSource(seed*7919 + int64(block))).Perm(coldBlock)
	slot := perm[i%coldBlock]
	rng := rand.New(rand.NewSource(seed*1000003 + int64(i)))
	j := Job{ID: i, Variant: "tcf", Status: http.StatusOK, Backend: "interp"}
	if i%2 == 1 {
		j.Backend = "fused"
	}
	switch {
	case slot < coldOverQuota:
		p := genOverQuota(rng, 64, 200)
		j.Name, j.Src, j.Tenant, j.Status = "overquota/64", p.src, smallTenant, http.StatusPreconditionFailed
	case slot < coldOverQuota+coldCREW:
		p := genCREWBreak(rng, 64)
		j.Name, j.Src, j.Status = "crew-break/64", p.src, http.StatusUnprocessableEntity
	default:
		sh := coldShapes[(slot-coldOverQuota-coldCREW)%len(coldShapes)]
		p := sh.gen(rng, true)
		j.Name, j.Src, j.Check = sh.name, p.src, p.check
	}
	return j
}
