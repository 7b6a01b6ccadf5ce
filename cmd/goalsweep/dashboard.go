package main

import (
	_ "embed"
	"net/http"
)

// dashboardHTML is the entire dashboard: one self-contained page, no
// external assets, that polls the coordinator's /status and /metrics
// endpoints.
//
//go:embed dashboard.html
var dashboardHTML []byte

// serveHandler wraps the coordinator handler with the optional dashboard
// route. Without -dashboard the coordinator serves alone, byte-for-byte
// the pre-dashboard behavior. With it, the exact root path serves the
// embedded page.
func serveHandler(coord http.Handler, dashboard bool) http.Handler {
	if !dashboard {
		return coord
	}
	mux := http.NewServeMux()
	mux.Handle("/", coord)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(dashboardHTML)
	})
	return mux
}
