package main

import (
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
)

// serveDebug mounts net/http/pprof on its own listener for the lifetime of
// the process, mirroring dsctsd's -debug-addr: the nightly heap soak runs a
// long chaos load with this enabled and scrapes /debug/pprof/heap mid-soak
// so the uploaded profile shows the steady-state scratch/cache footprint, not
// an idle post-drain heap. A listen failure only disables profiling — the
// soak itself must keep running — so it is reported and swallowed.
func serveDebug(addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "benchgen: debug listener on %s failed: %v\n", addr, err)
	}
}
