package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// header opens every report benchgen writes: the host context the numbers
// were measured on, and the run's contract verdict.
type header struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Violations lists every broken contract of the run; empty on a pass.
	Violations []string `json:"violations"`
}

func hostHeader() header {
	return header{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Violations: []string{},
	}
}

// writeReport writes rep as indented JSON to path, then fails when the
// run violated its contract. The report is written either way, so a
// failing run leaves its evidence behind.
func writeReport(path, what string, rep any, violations []string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s report -> %s\n", what, path)
	if len(violations) > 0 {
		return fmt.Errorf("%s contract violated: %s", what, strings.Join(violations, "; "))
	}
	return nil
}
