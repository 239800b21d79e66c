// jsoncheck validates JSON artifacts exported from CI.
//
// The default mode checks an exported Chrome trace file: the file must be
// well-formed JSON with a non-empty traceEvents array where every entry
// carries the mandatory trace_event fields. It is a build-free stand-in
// for loading the file in ui.perfetto.dev.
//
//	go run ./scripts/jsoncheck trace.json
package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func main() {
	args := os.Args[1:]
	if len(args) != 1 {
		fmt.Fprintln(os.Stderr, "usage: jsoncheck <trace.json>")
		os.Exit(2)
	}
	data, err := os.ReadFile(args[0])
	fatal(err)
	checkTrace(args[0], data)
}

func checkTrace(path string, data []byte) {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	fatal(json.Unmarshal(data, &doc))
	if len(doc.TraceEvents) == 0 {
		fatal(fmt.Errorf("%s: empty traceEvents", path))
	}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		if ph == "" {
			fatal(fmt.Errorf("%s: event %d missing ph", path, i))
		}
		if _, ok := ev["pid"]; !ok {
			fatal(fmt.Errorf("%s: event %d missing pid", path, i))
		}
		if _, ok := ev["ts"]; ph != "M" && !ok {
			fatal(fmt.Errorf("%s: event %d (ph %q) missing ts", path, i, ph))
		}
	}
	fmt.Printf("%s: %d trace events OK\n", path, len(doc.TraceEvents))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "jsoncheck:", err)
		os.Exit(1)
	}
}
