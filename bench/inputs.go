package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"github.com/ddsketch-go/ddsketch"
	"github.com/ddsketch-go/ddsketch/internal/datagen"
	"github.com/ddsketch-go/ddsketch/mapping"
)

// Input sizes. They are part of each workload's definition: changing one
// changes what the benchmark measures.
const (
	bulkBodies  = 256  // values-bulk: pre-rendered /values bodies
	bulkValues  = 2000 // values per values-bulk body
	fanSketches = 1024 // sketch-fanin: pre-encoded agent sketches
	fanValues   = 1000 // values per agent sketch
	mixBodies   = 256  // query-mix: unkeyed /values bodies
	mixValues   = 500  // values per unkeyed query-mix body
	keyedBodies = 4096 // query-mix: keyed /values bodies
	keyedBatch  = 32   // values per keyed write, in keyed-agent and query-mix
	prepopulate = 20_000

	seriesCount = 100_000 // distinct label sets the keyed workloads draw from
	zipfS       = 1.1
	zipfLen     = 1 << 20 // length of the Zipf series schedule
	keyedPool   = 1 << 16 // values keyed batches are cut from
	scheduleLen = 1 << 16 // length of a uniform pool-entry schedule
	hotFilters  = 10      // filters keyed-agent's reads cycle through
)

// inputs is everything one workload sends, generated from the seed
// before any timing. Each workload fills only the fields it uses.
type inputs struct {
	// bodies[i] is a rendered /values body carrying values[i]
	// (values-bulk, and the unkeyed half of query-mix).
	bodies [][]byte
	values [][]float64

	// payloads[i] is an encoded agent sketch of values[i], sent with
	// Content-Type ctypes[i] (sketch-fanin).
	payloads [][]byte
	ctypes   []string

	// schedule is the pool entry each successive request sends.
	schedule []uint16

	// series holds the label sets in the order agents write them (not
	// canonical), zipf a Zipf-distributed schedule of series indexes,
	// pool the values keyed batches are cut from, and filters the
	// ~1%-selective filters matching each of the hottest series, hottest
	// first (keyed-agent, query-mix).
	series  []string
	zipf    []int32
	pool    []float64
	filters []string

	// keyed[i] is a keyed /values body ("key=<series>" line, then
	// keyedBatch values) for series zipf[i]; keyedVals[i] its values;
	// prepop one body per distinct series for query-mix set-up, with
	// prepopSeries naming each body's series (query-mix).
	keyed        [][]byte
	keyedVals    [][]float64
	prepop       [][]byte
	prepopSeries []int32

	sha256 string
}

var workloads = []string{"values-bulk", "sketch-fanin", "keyed-agent", "query-mix"}

// generate builds the named workload's inputs from seed. The same seed
// always gives byte-identical inputs (see inputs.sha256).
func generate(workload string, seed uint64) (*inputs, error) {
	rng := datagen.NewRNG(seed)
	in := &inputs{}
	switch workload {
	case "values-bulk":
		in.values, in.bodies = renderBodies(rng, bulkBodies, bulkValues)
		in.schedule = uniformSchedule(rng, bulkBodies)
	case "sketch-fanin":
		if err := in.encodeSketches(rng); err != nil {
			return nil, err
		}
		in.schedule = uniformSchedule(rng, fanSketches)
	case "keyed-agent":
		in.keyedSeries(rng)
	case "query-mix":
		in.values, in.bodies = renderBodies(rng, mixBodies, mixValues)
		in.schedule = uniformSchedule(rng, mixBodies)
		in.keyedSeries(rng)
		in.renderKeyed()
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	in.sha256 = in.hash()
	return in, nil
}

// renderBodies draws n bodies of size span-dataset values each. Values
// are rendered in their shortest round-tripping form, so what the
// server parses is exactly what the exact-quantile check counts.
func renderBodies(rng *datagen.RNG, n, size int) ([][]float64, [][]byte) {
	values := make([][]float64, n)
	bodies := make([][]byte, n)
	for i := range values {
		values[i] = datagen.SpanSeeded(size, rng.Uint64())
		bodies[i] = appendValues(nil, values[i])
	}
	return values, bodies
}

func appendValues(buf []byte, values []float64) []byte {
	for j, v := range values {
		if j > 0 {
			buf = append(buf, ' ')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return buf
}

// agentMapping is the index mapping of every sketch in the benchmark:
// ddserver's default (logarithmic at α), so agent sketches merge into
// the servers' aggregates.
func agentMapping() (mapping.IndexMapping, error) { return mapping.NewLogarithmic(alpha) }

// encodeSketches builds the sketch-fanin pool: agent-interval sketches
// of Pareto values, three in four encoded natively and one in four in
// the DataDog format.
func (in *inputs) encodeSketches(rng *datagen.RNG) error {
	m, err := agentMapping()
	if err != nil {
		return err
	}
	in.values = make([][]float64, fanSketches)
	in.payloads = make([][]byte, fanSketches)
	in.ctypes = make([]string, fanSketches)
	for i := range in.values {
		in.values[i] = datagen.ParetoSeeded(fanValues, rng.Uint64())
		sk, err := ddsketch.NewSketch(ddsketch.WithMapping(m), ddsketch.WithMaxBins(2048))
		if err != nil {
			return err
		}
		if err := sk.AddBatch(in.values[i]); err != nil {
			return err
		}
		codec := ddsketch.NativeCodec
		if i%4 == 3 {
			codec = ddsketch.DataDogCodec
		}
		if in.payloads[i], err = codec.Encode(sk.(*ddsketch.DDSketch)); err != nil {
			return err
		}
		in.ctypes[i] = codec.ContentType()
	}
	return nil
}

func uniformSchedule(rng *datagen.RNG, n int) []uint16 {
	s := make([]uint16, scheduleLen)
	for i := range s {
		s[i] = uint16(rng.Intn(n))
	}
	return s
}

// seriesLabels names series i. The three labels are independent, so
// fixing service and endpoint selects 1% of all series.
func seriesLabels(i int) string {
	return fmt.Sprintf("service=svc%d,endpoint=/ep%d,host=h%d", i%10, (i/10)%10, i/100)
}

// keyedSeries builds the series names, the Zipf(s) schedule over them
// (rank r is series perm[r], so popularity is unrelated to the labels),
// the value pool and the filters around the hottest series.
func (in *inputs) keyedSeries(rng *datagen.RNG) {
	in.series = make([]string, seriesCount)
	for i := range in.series {
		in.series[i] = seriesLabels(i)
	}
	perm := make([]int32, seriesCount)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	cdf := make([]float64, seriesCount)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -zipfS)
		cdf[r] = total
	}
	in.zipf = make([]int32, zipfLen)
	for i := range in.zipf {
		r := sort.SearchFloat64s(cdf, rng.Float64()*total)
		if r == seriesCount {
			r--
		}
		in.zipf[i] = perm[r]
	}
	in.pool = datagen.Latency(keyedPool, rng.Uint64())
	for _, hot := range perm[:hotFilters] {
		in.filters = append(in.filters, fmt.Sprintf("service=svc%d,endpoint=/ep%d", hot%10, (hot/10)%10))
	}
}

// keyedBatchAt returns the values of the i-th keyed write.
func (in *inputs) keyedBatchAt(i int) []float64 {
	off := (i * keyedBatch) % (len(in.pool) - keyedBatch)
	return in.pool[off : off+keyedBatch]
}

// renderKeyed renders query-mix's keyed bodies, following the Zipf
// schedule, and its set-up bodies: one per distinct series, in order of
// first appearance in the schedule.
func (in *inputs) renderKeyed() {
	render := func(series int32, values []float64) []byte {
		body := append([]byte("key="), in.series[series]...)
		body = append(body, '\n')
		return appendValues(body, values)
	}
	in.keyed = make([][]byte, keyedBodies)
	in.keyedVals = make([][]float64, keyedBodies)
	for i := range in.keyed {
		in.keyedVals[i] = in.keyedBatchAt(i)
		in.keyed[i] = render(in.zipf[i], in.keyedVals[i])
	}
	seen := make(map[int32]bool, prepopulate)
	for i := 0; len(in.prepop) < prepopulate; i++ {
		// The schedule alone may not reach enough distinct series; past
		// its end, walk the series space in order.
		s := int32(i - zipfLen)
		if i < zipfLen {
			s = in.zipf[i]
		}
		if seen[s] {
			continue
		}
		seen[s] = true
		in.prepop = append(in.prepop, render(s, in.keyedBatchAt(len(in.prepop))))
		in.prepopSeries = append(in.prepopSeries, s)
	}
}

// hash digests every generated input, so two runs can show they sent
// the same bytes.
func (in *inputs) hash() string {
	h := sha256.New()
	w := bufio.NewWriter(h)
	var buf [8]byte
	num := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		w.Write(buf[:])
	}
	blob := func(b []byte) {
		num(uint64(len(b)))
		w.Write(b)
	}
	for _, group := range [][][]byte{in.bodies, in.payloads, in.keyed, in.prepop} {
		num(uint64(len(group)))
		for _, b := range group {
			blob(b)
		}
	}
	for _, vs := range in.values {
		for _, v := range vs {
			num(math.Float64bits(v))
		}
	}
	for _, s := range slices.Concat(in.filters, in.ctypes, in.series) {
		blob([]byte(s))
	}
	for _, x := range in.schedule {
		num(uint64(x))
	}
	for _, x := range in.zipf {
		num(uint64(x))
	}
	for _, v := range in.pool {
		num(math.Float64bits(v))
	}
	w.Flush()
	return hex.EncodeToString(h.Sum(nil))
}
