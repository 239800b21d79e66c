package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Spec is the part of BENCHMARK.json the benchmark's own tools read: the
// declared metrics with their units, directions and regression bounds.
type Spec struct {
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// MetricSpec declares one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen; per-layer metrics have
// none.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// LoadSpec reads the metric declarations of a BENCHMARK.json.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return Spec{}, fmt.Errorf("bench: %s: %w", path, err)
	}
	return s, nil
}
