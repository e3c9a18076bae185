package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"
)

// Exporter streams telemetry out of the process in the OTLP JSON
// encoding (otlp.go): completed request records batch into span
// documents, and the registry snapshots into metric documents on a
// timer. Two sinks, usable together: a file (one compact document per
// line — replayable, greppable, and what `-otlp-file` writes) and an
// HTTP endpoint (one POST per document, what `-otlp-endpoint` targets).
//
// The design constraint is the same one the rest of this package lives
// under: the serve path must never pay for export. Export is one
// non-blocking channel send; when the bounded queue is full the record
// is dropped and counted in obs.export_dropped — a slow or absent
// collector costs drops, never latency. All encoding, file writes and
// HTTP round trips happen on the exporter's own goroutine.
type Exporter struct {
	queue    chan *RequestRecord
	done     chan struct{}
	exited   chan struct{}
	stopOnce sync.Once
	closeErr error

	reg      *Registry
	res      OTLPResource
	file     *os.File
	endpoint string
	client   *http.Client

	batchSize       int
	flushInterval   time.Duration
	metricsInterval time.Duration

	cSpans   *Counter // obs.export_spans: records exported
	cBatches *Counter // obs.export_batches: documents written
	cDropped *Counter // obs.export_dropped: records lost to a full queue
	cErrors  *Counter // obs.export_errors: sink write/POST failures
}

// ExporterConfig parameterizes NewExporter. At least one of FilePath
// and Endpoint must be set.
type ExporterConfig struct {
	// Reg receives the export_* counters and is snapshotted for the
	// periodic metric documents. A nil Reg disables both (spans still
	// flow).
	Reg *Registry
	// FilePath appends one JSON document per line (created 0644).
	FilePath string
	// Endpoint receives one POST per document, Content-Type
	// application/json.
	Endpoint string
	// QueueSize bounds the record queue (default 256). A full queue
	// drops, never blocks.
	QueueSize int
	// BatchSize flushes a span document once this many records are
	// pending (default 64).
	BatchSize int
	// FlushInterval flushes a partial batch at least this often
	// (default 2s).
	FlushInterval time.Duration
	// MetricsInterval emits a metrics document this often (default:
	// every 5th flush interval). Metrics are also emitted once on Close.
	MetricsInterval time.Duration
	// Client is the HTTP client for Endpoint (default: 5s timeout).
	Client *http.Client
}

// NewExporter starts an exporter, or returns (nil, nil) — the valid
// "export off" exporter; Export and Close on nil are no-ops — when the
// config names no sink.
func NewExporter(cfg ExporterConfig) (*Exporter, error) {
	if cfg.FilePath == "" && cfg.Endpoint == "" {
		return nil, nil
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 2 * time.Second
	}
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = 5 * cfg.FlushInterval
	}
	e := &Exporter{
		queue:           make(chan *RequestRecord, cfg.QueueSize),
		done:            make(chan struct{}),
		exited:          make(chan struct{}),
		reg:             cfg.Reg,
		res:             OTLPResourceFor(ServiceName),
		endpoint:        cfg.Endpoint,
		client:          cfg.Client,
		batchSize:       cfg.BatchSize,
		flushInterval:   cfg.FlushInterval,
		metricsInterval: cfg.MetricsInterval,
		cSpans:          cfg.Reg.Counter("obs.export_spans"),
		cBatches:        cfg.Reg.Counter("obs.export_batches"),
		cDropped:        cfg.Reg.Counter("obs.export_dropped"),
		cErrors:         cfg.Reg.Counter("obs.export_errors"),
	}
	if e.client == nil {
		e.client = &http.Client{Timeout: 5 * time.Second}
	}
	if cfg.FilePath != "" {
		f, err := os.OpenFile(cfg.FilePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("obs: otlp file: %w", err)
		}
		e.file = f
	}
	go e.run()
	return e, nil
}

// Export enqueues a completed record for the next span batch. It never
// blocks: a full queue (the collector is slow, or flushing stalled on
// a sink) drops the record and counts it in obs.export_dropped. Safe
// on a nil exporter and after Close (post-Close records are dropped).
func (e *Exporter) Export(rec *RequestRecord) {
	if e == nil || rec == nil {
		return
	}
	select {
	case e.queue <- rec:
	default:
		e.cDropped.Inc()
	}
}

// Close flushes pending records plus one final metrics document, then
// stops the exporter and closes the file sink. Idempotent (later calls
// return the first call's error) and safe on nil; concurrent callers
// all block until the shutdown completes.
func (e *Exporter) Close() error {
	if e == nil {
		return nil
	}
	e.stopOnce.Do(func() {
		close(e.done)
		<-e.exited
		if e.file != nil {
			e.closeErr = e.file.Close()
		}
	})
	return e.closeErr
}

// run is the exporter goroutine: batch, flush on size or timer, emit
// metric snapshots on their own timer, drain on shutdown.
func (e *Exporter) run() {
	defer close(e.exited)
	flush := time.NewTicker(e.flushInterval)
	defer flush.Stop()
	metrics := time.NewTicker(e.metricsInterval)
	defer metrics.Stop()
	batch := make([]*RequestRecord, 0, e.batchSize)
	for {
		select {
		case rec := <-e.queue:
			batch = append(batch, rec)
			if len(batch) >= e.batchSize {
				batch = e.flushSpans(batch)
			}
		case <-flush.C:
			batch = e.flushSpans(batch)
		case <-metrics.C:
			e.flushMetrics()
		case <-e.done:
			// Drain what was queued before shutdown, then say goodbye
			// with a final metrics snapshot.
			for {
				select {
				case rec := <-e.queue:
					batch = append(batch, rec)
				default:
					e.flushSpans(batch)
					e.flushMetrics()
					return
				}
			}
		}
	}
}

// flushSpans writes one span document for the batch and returns the
// emptied batch slice.
func (e *Exporter) flushSpans(batch []*RequestRecord) []*RequestRecord {
	if len(batch) == 0 {
		return batch
	}
	doc := OTLPExport(nil, batch, e.res, time.Now())
	e.write(doc)
	e.cSpans.Add(int64(len(batch)))
	return batch[:0]
}

// flushMetrics writes one metrics document from the registry snapshot.
func (e *Exporter) flushMetrics() {
	if e.reg == nil {
		return
	}
	e.write(OTLPExport(e.reg.Snapshot(), nil, e.res, time.Now()))
}

// write sends one document to every configured sink, counting failures
// instead of surfacing them — export is best-effort by design.
func (e *Exporter) write(doc *OTLPDocument) {
	var buf bytes.Buffer
	if err := doc.WriteOTLP(&buf); err != nil {
		e.cErrors.Inc()
		return
	}
	e.cBatches.Inc()
	if e.file != nil {
		if _, err := e.file.Write(buf.Bytes()); err != nil {
			e.cErrors.Inc()
		}
	}
	if e.endpoint != "" {
		resp, err := e.client.Post(e.endpoint, "application/json", bytes.NewReader(buf.Bytes()))
		if err != nil {
			e.cErrors.Inc()
			return
		}
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			e.cErrors.Inc()
		}
	}
}
