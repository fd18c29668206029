package trace

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// checkFixed3 fails t unless appendFixed3 renders v exactly as strconv's
// fixed three-decimal format does.
func checkFixed3(t *testing.T, v float64) {
	t.Helper()
	want := strconv.AppendFloat(nil, v, 'f', 3, 64)
	if got := appendFixed3(nil, v); !bytes.Equal(got, want) {
		t.Fatalf("appendFixed3(%v) [bits %#016x] = %q, strconv gives %q", v, math.Float64bits(v), got, want)
	}
}

// TestAppendFixed3MatchesStrconv pins the fixed-point formatter to
// strconv.AppendFloat(v, 'f', 3, 64) byte for byte: over a million random
// bit patterns (every exponent, both signs), the multiples of 1/8000 (whose
// exact ties are where round-half-even decides) and their neighbours, ±0,
// subnormals, NaN, ±Inf, and the magnitudes around 2^53/1000 and the
// uint64 overflow fallback.
func TestAppendFixed3MatchesStrconv(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(1<<52 - 1), // largest subnormal
		math.Float64frombits(1 << 52),   // smallest normal
		math.MaxFloat64, -math.MaxFloat64,
		0.0005, 0.0015, 0.0025, 0.00049999999999999999, -0.0004, -0.0006,
		1, 0.5, 999.9995, 999.9985, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e300,
	}
	for _, v := range special {
		checkFixed3(t, v)
	}
	// k/8000 is k/8 thousandths: k ≡ 4 (mod 8) puts the value exactly
	// half-way between two thousandths, where round-half-even decides;
	// the other k land on the other eighths of a thousandth.
	for k := -200000; k <= 200000; k++ {
		v := float64(k) / 8000
		checkFixed3(t, v)
		checkFixed3(t, math.Nextafter(v, math.Inf(1)))
		checkFixed3(t, math.Nextafter(v, math.Inf(-1)))
	}
	for _, k := range []int64{1 << 40, 1<<50 + 1, 1<<53 - 1} {
		checkFixed3(t, float64(k)/8000)
	}
	// Around 2^53/1000 (the top of the exactly spaced thousandths) and the
	// overflow bound, where the shift first leaves 64 bits.
	for _, base := range []float64{math.Exp2(53) / 1000, math.Exp2(52), math.Exp2(53), math.Exp2(54), math.Exp2(55), math.Exp2(64) / 1000} {
		v := base
		for i := 0; i < 2000; i++ {
			checkFixed3(t, v)
			checkFixed3(t, -v)
			v = math.Nextafter(v, math.Inf(1))
		}
	}
	// Random bit patterns: strconv's own arbitrary-precision path makes
	// these slow to check, so four shards run in parallel.
	for shard := int64(0); shard < 4; shard++ {
		t.Run(fmt.Sprintf("random/%d", shard), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(shard))
			for i := 0; i < 250_000; i++ {
				checkFixed3(t, math.Float64frombits(rng.Uint64()))
			}
			// Random values in the range the figures actually print,
			// where random bit patterns are sparse.
			for i := 0; i < 50_000; i++ {
				checkFixed3(t, rng.Float64()*math.Exp2(float64(rng.Intn(60)-20)))
			}
			// Subnormals, whose mantissa carries no implicit bit.
			for i := 0; i < 2_500; i++ {
				checkFixed3(t, math.Float64frombits(rng.Uint64()&(1<<52-1)))
			}
		})
	}
}

// writeCSVMapOracle is the map-indexed writer WriteCSV replaced: the sorted
// union of every flow's sample times, a per-flow time -> value map (a
// repeated time keeps the flow's last sample), and strconv formatting. It
// is the differential reference for the cursor merge.
func writeCSVMapOracle(w io.Writer, res *experiments.Result, kind SeriesKind) error {
	var buf []byte
	buf = append(buf, "time_s"...)
	for _, f := range res.Flows {
		buf = append(buf, ",flow"...)
		buf = strconv.AppendInt(buf, int64(f.Index), 10)
	}
	buf = append(buf, '\n')
	timeSet := make(map[time.Duration]bool)
	for _, f := range res.Flows {
		for _, s := range seriesOf(f, kind) {
			timeSet[s.At] = true
		}
	}
	times := make([]time.Duration, 0, len(timeSet))
	for t := range timeSet {
		times = append(times, t)
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	perFlow := make([]map[time.Duration]float64, len(res.Flows))
	for i, f := range res.Flows {
		m := make(map[time.Duration]float64)
		for _, s := range seriesOf(f, kind) {
			m[s.At] = s.Value
		}
		perFlow[i] = m
	}
	for _, t := range times {
		buf = strconv.AppendFloat(buf, t.Seconds(), 'f', 3, 64)
		for i := range res.Flows {
			buf = append(buf, ',')
			if v, ok := perFlow[i][t]; ok {
				buf = strconv.AppendFloat(buf, v, 'f', 3, 64)
			}
		}
		buf = append(buf, '\n')
	}
	_, err := w.Write(buf)
	return err
}

// raggedResult builds a result whose flows sample at different times:
// random gaps, unequal lengths, repeated times, empty series, and values
// across many magnitudes and both signs.
func raggedResult(rng *rand.Rand, flows int) *experiments.Result {
	res := &experiments.Result{Name: "ragged"}
	for i := 1; i <= flows; i++ {
		var s metrics.Series
		n := rng.Intn(40)
		if rng.Intn(5) == 0 {
			n = 0
		}
		at := time.Duration(rng.Intn(3)) * 500 * time.Millisecond
		for j := 0; j < n; j++ {
			switch rng.Intn(6) {
			case 0: // repeat the previous time
				if j == 0 {
					at += 250 * time.Millisecond
				}
			case 1: // gap
				at += time.Duration(1+rng.Intn(5)) * 250 * time.Millisecond
			default:
				at += 250 * time.Millisecond
			}
			v := (rng.Float64() - 0.3) * math.Exp2(float64(rng.Intn(40)-10))
			s = append(s, metrics.Sample{At: at, Value: v})
		}
		res.Flows = append(res.Flows, experiments.FlowResult{
			Index: i, ID: packet.FlowID{Edge: "in", Local: i}, Weight: 1,
			AllowedRate: s, ReceiveRate: s[:len(s)/2], Cumulative: nil,
		})
	}
	return res
}

// TestWriteCSVMatchesMapOracle pins the cursor-merge writer to the
// map-indexed one on ragged inputs, for every series kind, plus zero flows
// and flows with no samples at all.
func TestWriteCSVMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*experiments.Result{
		{Name: "zero-flows"},
		{Name: "all-empty", Flows: []experiments.FlowResult{{Index: 1}, {Index: 2}}},
		sampleResult(),
		syntheticResult(3, 5000), // several output chunks
	}
	for i := 0; i < 200; i++ {
		cases = append(cases, raggedResult(rng, 1+rng.Intn(12)))
	}
	for ci, res := range cases {
		for _, kind := range []SeriesKind{SeriesAllowed, SeriesReceived, SeriesCumulative} {
			var got, want bytes.Buffer
			if err := WriteCSV(&got, res, kind); err != nil {
				t.Fatalf("case %d (%s) %v: WriteCSV: %v", ci, res.Name, kind, err)
			}
			if err := writeCSVMapOracle(&want, res, kind); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("case %d (%s) %v: WriteCSV differs from the map oracle\ngot:\n%s\nwant:\n%s",
					ci, res.Name, kind, got.String(), want.String())
			}
		}
	}
}

// TestWriteCSVRejectsUnorderedSeries: the merge needs time-ordered series,
// so a series that steps back in time is an error, not a silently
// misplaced cell.
func TestWriteCSVRejectsUnorderedSeries(t *testing.T) {
	res := sampleResult()
	s := res.Flows[1].AllowedRate
	s[1], s[2] = s[2], s[1]
	err := WriteCSV(io.Discard, res, SeriesAllowed)
	if err == nil || !strings.Contains(err.Error(), "flow 2 series is not in time order") {
		t.Fatalf("WriteCSV = %v, want a time-order error naming flow 2", err)
	}
}

// countingWriter records the size of every Write.
type countingWriter struct{ sizes []int }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return len(p), nil
}

// TestWriteCSVBatchesWrites: rows reach the writer in ~64 KiB chunks, not
// one Write per row.
func TestWriteCSVBatchesWrites(t *testing.T) {
	res := syntheticResult(10, 10000)
	var cw countingWriter
	if err := WriteCSV(&cw, res, SeriesAllowed); err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, n := range cw.sizes {
		total += n
		if i < len(cw.sizes)-1 && n < csvChunk {
			t.Errorf("write %d carried %d bytes, want at least %d", i, n, csvChunk)
		}
	}
	if want := total/csvChunk + 1; len(cw.sizes) > want {
		t.Errorf("%d writes for %d bytes, want at most %d", len(cw.sizes), total, want)
	}
}

// failingWriter fails every Write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestWriteCSVPropagatesWriteError(t *testing.T) {
	for _, res := range []*experiments.Result{sampleResult(), syntheticResult(10, 10000)} {
		if err := WriteCSV(failingWriter{}, res, SeriesAllowed); err == nil || err.Error() != "disk full" {
			t.Errorf("WriteCSV = %v, want the writer's error", err)
		}
	}
}
