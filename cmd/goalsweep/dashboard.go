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

// serveHandler puts the embedded dashboard page at the exact root path in
// front of the coordinator's routes.
func serveHandler(coord http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", coord)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		w.Write(dashboardHTML)
	})
	return mux
}
