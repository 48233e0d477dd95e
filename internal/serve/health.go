package serve

import (
	"time"

	"remac/internal/resilience"
)

// Health is the payload of the /healthz and /readyz probes: a boolean
// verdict plus enough state to explain it.
type Health struct {
	OK bool `json:"ok"`
	// Status is "serving" while admission is open, "draining" after
	// Shutdown began.
	Status string `json:"status"`
	// Breaker is the circuit breaker position ("closed", "open",
	// "half-open").
	Breaker       string  `json:"breaker"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Workers       int     `json:"workers"`
	UptimeSec     float64 `json:"uptime_sec"`
	// RetryAfterSec hints when a not-ready server is worth re-probing
	// (breaker cooldown remainder; 0 when ready or permanently draining).
	RetryAfterSec float64 `json:"retry_after_sec,omitempty"`
}

func (s *Server) health() Health {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	status := "serving"
	if closed {
		status = "draining"
	}
	return Health{
		Status:        status,
		Breaker:       s.breaker.State().String(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Workers:       s.cfg.Workers,
		UptimeSec:     time.Since(s.metrics.start).Seconds(),
	}
}

// Healthz is the liveness probe: true as long as the process and worker
// pool are up — a panicking query or an open breaker never fails it,
// because restarting the process would not help.
func (s *Server) Healthz() Health {
	h := s.health()
	h.OK = true
	return h
}

// Readyz is the readiness probe: the server is ready to take traffic when
// admission is open, the breaker is not open, and the queue has room. Load
// balancers use it to steer traffic away from a tripped, saturated or
// draining instance without killing it. While the breaker is open the hint
// is the cooldown remainder, the same value a rejected Do carries.
func (s *Server) Readyz() Health {
	h := s.health()
	h.OK = h.Status == "serving" &&
		h.Breaker != resilience.BreakerOpen.String() &&
		h.QueueDepth < h.QueueCapacity
	if h.Breaker == resilience.BreakerOpen.String() {
		h.RetryAfterSec = s.breaker.RetryAfter().Seconds()
	}
	return h
}
