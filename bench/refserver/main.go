// Command refserver is depbench's reference server: a fixed JSON service
// on net/http, built from the standard library alone, that serves the way
// depserve does — decode, work on maps and slices, encode, one log record
// per request. No change to the repository alters its speed, so depbench
// runs it next to depserve to measure the speed of the host at that
// moment.
//
// Usage: refserver -addr 127.0.0.1:PORT
//
// GET /readyz answers 200 once it listens; POST /ref takes a JSON list of
// {"rel", "attrs"} members and answers with counts over them. SIGTERM
// shuts it down.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"
)

type member struct {
	Rel   string   `json:"rel"`
	Attrs []string `json:"attrs"`
}

type reply struct {
	Members int    `json:"members"`
	Keys    int    `json:"keys"`
	Median  string `json:"median"`
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8390", "listen address")
	flag.Parse()
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ready"}` + "\n"))
	})
	mux.HandleFunc("POST /ref", func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var doc []member
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			http.Error(w, `{"error":"bad body"}`, http.StatusBadRequest)
			return
		}
		// Index every relation.attribute pair, then sort the keys.
		index := map[string]int{}
		for i, m := range doc {
			for _, a := range m.Attrs {
				index[m.Rel+"."+a] += i
			}
		}
		keys := make([]string, 0, len(index))
		for k := range index {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		out := reply{Members: len(doc), Keys: len(keys)}
		if len(keys) > 0 {
			out.Median = keys[len(keys)/2]
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(out) // a failed write is the client's loss
		logger.Info("request", "path", r.URL.Path, "keys", len(keys), "elapsed_us", time.Since(start).Microseconds())
	})
	srv := &http.Server{Addr: *addr, Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		shut, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shut) // an unclean shutdown still ends the process
	}()
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		logger.Error("listen", "err", err)
		os.Exit(1)
	}
}
