package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ftss/internal/admin"
	"ftss/internal/obs"
)

// Spec names the observability flags a binary offers. A flag is
// registered only when its usage text is set, so every binary keeps
// exactly the flags, defaults, and usage lines it documents.
type Spec struct {
	Metrics, MetricsInterval, Events, Trace, Admin string
	// AppendEvents opens -events for append, so a restarted process
	// extends the file its predecessor left; otherwise it is truncated.
	AppendEvents bool
	// ServeEvents tees the event stream into the admin plane's /events.
	ServeEvents bool
}

// Sources are what the telemetry reads from the running binary.
type Sources struct {
	// Metrics renders the registry snapshot behind -metrics and the
	// -metrics-interval delta stream.
	Metrics func() []byte
	// Trace writes the span JSONL behind -trace.
	Trace func(io.Writer) error
	// Plane holds the admin endpoints served beside /debug/pprof/;
	// Start fills in its Tail. Nil callbacks answer 404.
	Plane admin.Plane
}

// Telemetry is one binary's observability flags and everything they
// open: the event file and admin tail, the admin listener, and the
// delta stream. A binary calls Register, parses its flags, defers
// Close, calls Open before it builds what emits events, and Start once
// the Sources exist and before any work.
type Telemetry struct {
	MetricsFile string
	Interval    time.Duration
	EventsFile  string
	TraceFile   string
	AdminAddr   string

	spec   Spec
	src    Sources
	tail   *admin.Tail
	events io.Writer
	files  []*os.File
	adm    *admin.Server
	dw     *obs.DeltaWriter
	stop   chan struct{}
	joined chan struct{}
}

// Register adds the flags spec asks for to fs.
func Register(fs *flag.FlagSet, spec Spec) *Telemetry {
	t := &Telemetry{spec: spec}
	for _, f := range []struct {
		p           *string
		name, usage string
	}{
		{&t.MetricsFile, "metrics", spec.Metrics},
		{&t.EventsFile, "events", spec.Events},
		{&t.TraceFile, "trace", spec.Trace},
		{&t.AdminAddr, "admin", spec.Admin},
	} {
		if f.usage != "" {
			fs.StringVar(f.p, f.name, "", f.usage)
		}
	}
	if spec.MetricsInterval != "" {
		fs.DurationVar(&t.Interval, "metrics-interval", 0, spec.MetricsInterval)
	}
	return t
}

// Open checks the flags and opens the event stream: the -events file,
// teed into the admin tail when the plane serves /events.
func (t *Telemetry) Open() error {
	if t.Interval > 0 && t.MetricsFile == "" {
		return errors.New("-metrics-interval needs -metrics FILE for the delta stream path")
	}
	var ws []io.Writer
	if t.spec.ServeEvents && t.AdminAddr != "" {
		t.tail = admin.NewTail(0)
		ws = append(ws, t.tail)
	}
	if t.EventsFile != "" {
		mode := os.O_TRUNC
		if t.spec.AppendEvents {
			mode = os.O_APPEND
		}
		f, err := t.create(t.EventsFile, mode)
		if err != nil {
			return err
		}
		ws = append(ws, f)
	}
	if len(ws) > 0 {
		t.events = io.MultiWriter(ws...)
	}
	return nil
}

// Events is the raw event stream Open set up, nil when there is none.
func (t *Telemetry) Events() io.Writer { return t.events }

// Sink wraps Events in a JSONL sink, nil when there is no stream.
func (t *Telemetry) Sink() obs.Sink {
	if t.events == nil {
		return nil
	}
	return obs.NewJSONL(t.events)
}

// Start binds the admin plane — a taken port fails here, before any
// work — and starts the -metrics-interval delta stream.
func (t *Telemetry) Start(out io.Writer, src Sources) error {
	t.src = src
	if t.AdminAddr != "" {
		src.Plane.Tail = t.tail
		adm, err := admin.Start(t.AdminAddr, src.Plane)
		if err != nil {
			return err
		}
		t.adm = adm
		fmt.Fprintf(out, "admin plane on %s\n", adm.Addr())
	}
	if t.Interval > 0 {
		df, err := t.create(t.MetricsFile+".deltas", os.O_TRUNC)
		if err != nil {
			return err
		}
		t.dw = obs.NewDeltaWriter(df, src.Metrics)
		t.stop, t.joined = make(chan struct{}), make(chan struct{})
		go tick(time.NewTicker(t.Interval), t.dw, t.stop, t.joined)
	}
	return nil
}

// tick writes one delta block per interval until stop closes.
func tick(tk *time.Ticker, dw *obs.DeltaWriter, stop <-chan struct{}, joined chan<- struct{}) {
	defer close(joined)
	defer tk.Stop()
	for {
		select {
		case <-tk.C:
			dw.Tick()
		case <-stop:
			return
		}
	}
}

// Close runs on every return path. It joins the delta ticker and then
// writes the closing block, so that block is the stream's last and the
// blocks sum to the exit snapshot; writes the -metrics snapshot and the
// -trace spans; closes every file; and stops the admin plane. Its first
// error lands in *errp unless the run already failed.
func (t *Telemetry) Close(errp *error) {
	keep := func(err error) {
		if err != nil && *errp == nil {
			*errp = err
		}
	}
	if t.dw != nil {
		close(t.stop)
		<-t.joined
		keep(t.dw.Tick())
	}
	if t.MetricsFile != "" && t.src.Metrics != nil {
		keep(os.WriteFile(t.MetricsFile, t.src.Metrics(), 0o644))
	}
	if t.TraceFile != "" && t.src.Trace != nil {
		f, err := t.create(t.TraceFile, os.O_TRUNC)
		if err == nil {
			err = t.src.Trace(f)
		}
		keep(err)
	}
	for _, f := range t.files {
		keep(f.Close())
	}
	if t.adm != nil {
		t.adm.Close()
	}
}

func (t *Telemetry) create(path string, mode int) (*os.File, error) {
	f, err := os.OpenFile(path, mode|os.O_CREATE|os.O_WRONLY, 0o644)
	if err == nil {
		t.files = append(t.files, f)
	}
	return f, err
}
