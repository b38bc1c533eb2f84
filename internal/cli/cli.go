// Package cli is the front end the capuchin commands share: the exit
// rule, the one output writer, the rule for count flags, and the export
// path that writes a run's observability outputs.
//
// The exit rule: an invalid setting exits 2 before anything reaches
// stdout (Invalid); a failure exits 1 (Fail). The output rule: a
// path-valued output flag takes "-" for stdout, and any other path is
// created, written and closed, a create, write or close error exiting 1
// (Write). The count rule: a flag whose zero means "the default" rejects
// a negative value as an invalid setting (Counts).
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"capuchin/internal/obs"
)

// Invalid reports err and exits 2 unless err is nil: an invalid setting,
// caught before anything reaches stdout.
func Invalid(err error) { exit(2, err) }

// Fail reports err and exits 1 unless err is nil: a failure.
func Fail(err error) { exit(1, err) }

func exit(code int, err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}
}

// Write sends one output to path: "-" is stdout, and any other path is
// created, written by write and closed. A create, write or close error
// exits 1.
func Write(path string, write func(io.Writer) error) {
	if path == "-" {
		Fail(write(os.Stdout))
		return
	}
	f, err := os.Create(path)
	Fail(err)
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	Fail(err)
}

// Counts applies the count rule to the named flags of the command line,
// each an int or a time.Duration whose zero means "the default": a
// negative value exits 2.
func Counts(names ...string) {
	for _, name := range names {
		f := flag.Lookup(name)
		var negative bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			negative = v < 0
		case time.Duration:
			negative = v < 0
		}
		if negative {
			Invalid(fmt.Errorf("invalid -%s %v: must be 0 (the default) or positive", name, f.Value))
		}
	}
}

// Exports names the observability outputs of one run. An empty path, a
// false MemProf or an empty Explain is not written.
type Exports struct {
	// Chrome, Prom and Events take an output path (see Write): the
	// Chrome trace-event timeline, the metrics registry in Prometheus
	// text exposition format, and the event and decision log as JSONL.
	Chrome, Prom, Events string
	// MemProf prints the memory profile to stdout, and Explain the
	// decision history of that tensor ("auto" = the first one a policy
	// acted on).
	MemProf bool
	Explain string
}

// Write writes x from a run's event log col, in field order. met is the
// run's metrics registry; nil folds it from col. A nil col, a run that
// failed before it simulated, writes nothing. runErr is the run's
// failure: a failed run writes what it recorded, then exits 1.
func (x Exports) Write(col *obs.Collector, met *obs.Metrics, runErr error) {
	if col == nil {
		Fail(runErr)
		return
	}
	if x.Chrome != "" {
		Write(x.Chrome, func(w io.Writer) error { return obs.WriteChromeTrace(w, col.Events()) })
		if x.Chrome != "-" {
			fmt.Fprintf(os.Stderr, "wrote %d trace events to %s (load in Perfetto or chrome://tracing)\n",
				col.Len(), x.Chrome)
		}
	}
	if x.Prom != "" {
		if met == nil {
			met = obs.BuildMetrics(col.Events(), col.Decisions())
		}
		Write(x.Prom, met.WritePrometheus)
	}
	if x.Events != "" {
		Write(x.Events, func(w io.Writer) error {
			b, _, _ := col.AppendJSONL(nil, obs.Cursor{})
			_, err := w.Write(b)
			return err
		})
	}
	if x.MemProf {
		Fail(obs.BuildMemProfile(col.Events()).WriteReport(os.Stdout))
	}
	if x.Explain != "" {
		subject, decisions := x.Explain, col.Decisions()
		if subject == "auto" {
			subjects := obs.ExplainTensors(decisions)
			if len(subjects) == 0 {
				Fail(errors.New("no policy decisions recorded: the run never came under memory pressure (try a smaller -mem)"))
			}
			subject = subjects[0]
		}
		Fail(obs.WriteExplain(os.Stdout, subject, decisions, col.Events()))
	}
	Fail(runErr)
}
