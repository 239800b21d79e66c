package bench

import (
	"runtime"
	"runtime/debug"
)

// Version identifies the benchmark definition: bump it whenever a
// workload, a metric or the measurement protocol changes, so results from
// different definitions are never compared.
const Version = 2

// Provenance records what produced a result: the benchmark definition,
// its inputs, the host and the code revision.
type Provenance struct {
	BenchVersion int     `json:"bench_version"`
	Workload     string  `json:"workload"`
	Seed         uint64  `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Trace        bool    `json:"trace"`
	Params       Params  `json:"params"`
	NProc        int     `json:"nproc"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	VCSRevision  string  `json:"vcs_revision"`
	VCSModified  string  `json:"vcs_modified"`
}

// Output is the document burstbench -json writes.
type Output struct {
	Provenance Provenance `json:"provenance"`
	Result     Result     `json:"result"`
}

// Params are the workload's simulation parameters.
type Params struct {
	Benches      []string `json:"benches"`
	Mechs        []string `json:"mechs"`
	Warmup       uint64   `json:"warmup"`
	Instructions uint64   `json:"instructions"`
	Workers      int      `json:"workers"`
}

// NewProvenance describes a run of w. The VCS fields read "unknown" when
// the binary was built outside a git checkout.
func NewProvenance(w Workload, opts Options) Provenance {
	p := Provenance{
		BenchVersion: Version,
		Workload:     w.Name,
		Seed:         opts.Seed,
		Seconds:      opts.Seconds,
		Trace:        opts.Trace,
		Params: Params{Benches: w.Benches, Mechs: w.Mechs, Warmup: w.Warmup,
			Instructions: w.Instructions, Workers: poolSize(w, opts.Trace)},
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		VCSRevision: "unknown",
		VCSModified: "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				p.VCSRevision = s.Value
			case "vcs.modified":
				p.VCSModified = s.Value
			}
		}
	}
	return p
}
