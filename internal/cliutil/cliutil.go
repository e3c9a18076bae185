// Package cliutil wires the observability flags shared by the indfd,
// depcheck, lbared and depserve commands: -stats (human-readable metrics
// and span report on stderr), -trace-json (metrics and span trees as
// JSON), -pprof (a net/http/pprof listener for live profiling), and
// -memprofile (a heap profile written at exit). The registry keeps no
// spans, so a command hands Finish the root span trees it started.
package cliutil

import (
	"flag"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux
	"os"
	"runtime"
	"runtime/pprof"

	"indfd/internal/obs"
)

// ObsFlags holds the values of the shared instrumentation flags.
type ObsFlags struct {
	// Stats requests the metrics/span text report on stderr at exit.
	Stats bool
	// TraceJSON, when nonempty, is the file the span-tree JSON snapshot is
	// written to at exit.
	TraceJSON string
	// Pprof, when nonempty, is the address a net/http/pprof server
	// listens on for the life of the process.
	Pprof string
	// MemProfile, when nonempty, is the file an end-of-run heap profile
	// is written to (after a forced GC, so it shows live memory, not
	// garbage) — the companion to -pprof for runs too short to scrape.
	MemProfile string
}

// Register installs -stats, -trace-json and -pprof on fs (typically
// flag.CommandLine) and returns the struct their values land in.
func Register(fs *flag.FlagSet) *ObsFlags {
	of := &ObsFlags{}
	fs.BoolVar(&of.Stats, "stats", false, "print a metrics and span report to stderr")
	fs.StringVar(&of.TraceJSON, "trace-json", "", "write the span tree as JSON to `file`")
	fs.StringVar(&of.Pprof, "pprof", "", "serve net/http/pprof on `addr` (e.g. localhost:6060)")
	fs.StringVar(&of.MemProfile, "memprofile", "", "write an end-of-run heap profile to `file`")
	return of
}

// Registry returns a fresh registry when any instrumentation output was
// requested, else nil — and a nil registry makes every instrument a
// no-op, so the engines run uninstrumented.
func (of *ObsFlags) Registry() *obs.Registry {
	if of.Stats || of.TraceJSON != "" {
		return obs.New()
	}
	return nil
}

// StartPprof binds the pprof listener when -pprof was given. The server
// runs detached for the life of the process; only the bind can fail.
func (of *ObsFlags) StartPprof() error {
	if of.Pprof == "" {
		return nil
	}
	ln, err := net.Listen("tcp", of.Pprof)
	if err != nil {
		return err
	}
	go http.Serve(ln, nil) //nolint:errcheck // best-effort debug server
	return nil
}

// Finish writes the requested end-of-run artifacts: the text report to
// stderr under -stats and the JSON snapshot to the -trace-json file
// (both skipped for a nil registry), each the registry's instruments
// followed by roots, the ended root span trees the command started; and
// the heap profile to the -memprofile file (written regardless of the
// registry — memory is a property of the process, not of the
// instrumentation).
func (of *ObsFlags) Finish(reg *obs.Registry, roots []*obs.Span) error {
	if reg != nil {
		snap := reg.Snapshot()
		snap.Spans = roots
		if of.Stats {
			if err := snap.WriteText(os.Stderr); err != nil {
				return err
			}
		}
		if of.TraceJSON != "" {
			f, err := os.Create(of.TraceJSON)
			if err != nil {
				return err
			}
			if err := snap.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if of.MemProfile != "" {
		f, err := os.Create(of.MemProfile)
		if err != nil {
			return err
		}
		runtime.GC() // materialize the final live set before profiling
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}
