// Package trace renders experiment results as tabular text: CSV files with
// one column per flow (directly plottable, matching the layout of the
// paper's figures) and human-readable summaries.
package trace

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// SeriesKind selects which per-flow series to export.
type SeriesKind int

// Series kinds.
const (
	// SeriesAllowed is the edge's allowed rate b_g(f) — the paper's
	// "alloted rate" axis (Figures 3, 5–10).
	SeriesAllowed SeriesKind = iota + 1
	// SeriesReceived is the egress goodput.
	SeriesReceived
	// SeriesCumulative is the cumulative delivered-packet count
	// (Figure 4).
	SeriesCumulative
)

// String implements fmt.Stringer.
func (k SeriesKind) String() string {
	switch k {
	case SeriesAllowed:
		return "allowed"
	case SeriesReceived:
		return "received"
	case SeriesCumulative:
		return "cumulative"
	default:
		return fmt.Sprintf("SeriesKind(%d)", int(k))
	}
}

func seriesOf(f experiments.FlowResult, kind SeriesKind) metrics.Series {
	switch kind {
	case SeriesReceived:
		return f.ReceiveRate
	case SeriesCumulative:
		return f.Cumulative
	default:
		return f.AllowedRate
	}
}

// csvChunk is how much rendered text WriteCSV gathers before each Write:
// callers hand it an *os.File, and one syscall per row would dominate a
// wide render.
const csvChunk = 64 << 10

// WriteCSV writes "time_s,flow1,flow2,..." rows for the chosen series. Rows
// are emitted at the result's sample-window granularity; missing samples
// render as empty cells, and a time repeated within one flow's series
// renders that flow's last sample at it. The rows come from a merge over
// the time-ordered series with one cursor per flow: each row's time is the
// earliest sample at the cursors, so each series must be in time order, as
// every recorder appends them; one that is not is an error. Cost is linear
// in the cells written, with no per-flow index, and output reaches w in
// ~64 KiB chunks.
func WriteCSV(w io.Writer, res *experiments.Result, kind SeriesKind) error {
	if res == nil {
		return fmt.Errorf("trace: nil result")
	}
	series := make([]metrics.Series, len(res.Flows))
	for i, f := range res.Flows {
		series[i] = seriesOf(f, kind)
	}
	buf := make([]byte, 0, csvChunk+16*(len(res.Flows)+1))
	buf = append(buf, "time_s"...)
	for _, f := range res.Flows {
		buf = append(buf, ",flow"...)
		buf = strconv.AppendInt(buf, int64(f.Index), 10)
	}
	buf = append(buf, '\n')

	cur := make([]int, len(series))
	for {
		// The row's time: the earliest sample still ahead of a cursor.
		var t time.Duration
		more := false
		for i, s := range series {
			if c := cur[i]; c < len(s) && (!more || s[c].At < t) {
				t, more = s[c].At, true
			}
		}
		if !more {
			break
		}
		buf = appendFixed3(buf, t.Seconds())
		for i, s := range series {
			buf = append(buf, ',')
			c := cur[i]
			if c >= len(s) || s[c].At != t {
				continue
			}
			for c+1 < len(s) && s[c+1].At == t {
				c++
			}
			buf = appendFixed3(buf, s[c].Value)
			cur[i] = c + 1
			if c+1 < len(s) && s[c+1].At < t {
				return fmt.Errorf("trace: flow %d series is not in time order at %v", res.Flows[i].Index, s[c+1].At)
			}
		}
		buf = append(buf, '\n')
		if len(buf) >= csvChunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	_, err := w.Write(buf)
	return err
}

// WriteSummary writes a human-readable per-flow summary table: weight,
// expected steady-state rate (full active set), mean allowed rate over the
// final quarter of the run, delivered packets, and losses.
func WriteSummary(w io.Writer, res *experiments.Result) error {
	if res == nil {
		return fmt.Errorf("trace: nil result")
	}
	if _, err := fmt.Fprintf(w, "scenario %s (%s): %d flows, %d events, %d total losses\n",
		res.Name, res.Scheme, len(res.Flows), res.Events, res.TotalLosses); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-6s %-8s %-12s %-14s %-10s %-8s\n",
		"flow", "weight", "expected", "mean(last25%)", "delivered", "losses"); err != nil {
		return err
	}
	tail := res.Duration - res.Duration/4
	for _, f := range res.Flows {
		mean := f.AllowedRate.MeanOver(tail, res.Duration)
		if _, err := fmt.Fprintf(w, "%-6d %-8.1f %-12.2f %-14.2f %-10d %-8d\n",
			f.Index, f.Weight, res.ExpectedFullSet[f.Index], mean, f.Delivered, f.Losses); err != nil {
			return err
		}
	}
	return nil
}
