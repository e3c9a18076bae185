package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"time"
)

// The host's speed drifts with what else runs on the machine: on the
// reference host the same server ran 25-30% faster in one hour than in
// the next, and swung by 10% within a minute. So the benchmark measures
// a reference server next to depserve. refserver (bench/refserver) is a
// fixed JSON service on net/http that no change to the repository can
// speed up or slow down. It is started in turn with depserve, and short
// closed-loop probes of it bracket every slice of load. The timings the
// benchmark gates are depserve's scaled by how far the host's speed, so
// measured, stood from refNominalOpsPerS and refNominalSetupS: they read
// as if the host had run at that speed throughout. The unscaled timings
// print with a raw_ prefix.
const (
	// refNominalOpsPerS is the probe rate timings are scaled to. Any
	// fixed value serves; this one is about the probes' median on the
	// reference host in a fast hour (7 000 to 13 000 over a day).
	refNominalOpsPerS = 13000
	// refNominalSetupS is the reference server's start-up time set-up
	// times are scaled to, chosen the same way.
	refNominalSetupS = 0.0025
	// latencyExponent is how open-loop latency follows host speed: as
	// its 0.8th power. Part of a request's latency is waking the server
	// and the client and crossing the loopback socket, which a faster
	// host shortens less than it shortens the reference server's work.
	// On the reference host the log of the raw p50 fell against the log
	// of the probe rate with slopes of 0.72 to 0.86 (bench/README.md).
	latencyExponent = 0.8
)

// refWorkload is the reference server's traffic: one fixed request.
var refWorkload = func() *workload {
	rng := rand.New(rand.NewPCG(1, 2))
	type member struct {
		Rel   string   `json:"rel"`
		Attrs []string `json:"attrs"`
	}
	doc := make([]member, 24)
	for i := range doc {
		doc[i].Rel = fmt.Sprintf("R%d", rng.IntN(1000))
		for j := 0; j < 6; j++ {
			doc[i].Attrs = append(doc[i].Attrs, fmt.Sprintf("A%d", rng.IntN(1000)))
		}
	}
	return &workload{name: "ref", seq: []*op{newOp(http.MethodPost, "/ref", mustJSON(doc), nil)}}
}()

// refServerPkg is the reference server's package in the bench module.
const refServerPkg = "./refserver"

// probe runs the reference server's closed loop for d and returns its
// requests per second.
func probe(ctx context.Context, l *loader, d time.Duration) (float64, error) {
	ops, elapsed := l.closedTrial(ctx, d)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if n := l.failed.Load(); n > 0 {
		return 0, fmt.Errorf("reference server failed %d requests", n)
	}
	if ops == 0 {
		return 0, fmt.Errorf("reference server answered no requests")
	}
	return float64(ops) / elapsed.Seconds(), nil
}

// hostClock probes the reference server between slices of load.
type hostClock struct {
	l     *loader // on the reference server
	probe time.Duration
	rates []float64 // every probe's rate, the latest last
}

// speed probes and returns the host's speed over the slice since the
// previous probe relative to nominal: the mean rate of the two probes
// over refNominalOpsPerS. The first call has only its own probe.
func (h *hostClock) speed(ctx context.Context) (float64, error) {
	r, err := probe(ctx, h.l, h.probe)
	if err != nil {
		return 0, err
	}
	h.rates = append(h.rates, r)
	prev := h.rates[max(0, len(h.rates)-2)]
	return (prev + r) / 2 / refNominalOpsPerS, nil
}
