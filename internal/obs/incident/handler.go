package incident

import (
	"errors"
	"net/http"

	"slim/internal/obs"
)

// StatusDoc is the /debug/incident document.
type StatusDoc struct {
	Enabled bool   `json:"enabled"`
	Dir     string `json:"dir"`
	// Bundles lists every bundle's manifest, oldest first.
	Bundles []*Manifest `json:"bundles"`
}

// Status is the engine's obs.JSONHandler callback:
//
//	GET  /debug/incident            → StatusDoc
//	POST /debug/incident?trigger=R  → write a bundle now (reason R,
//	                                  default "manual") and answer its
//	                                  manifest; 429 when rate limited,
//	                                  503 when disabled
func (e *Engine) Status(r *http.Request) (any, error) {
	if r.Method == http.MethodPost {
		reason := r.URL.Query().Get("trigger")
		if reason == "" {
			reason = "manual"
		}
		m, err := e.Trigger(reason, "manual")
		switch {
		case errors.Is(err, ErrRateLimited):
			return nil, obs.StatusError{Code: http.StatusTooManyRequests, Msg: "rate limited"}
		case errors.Is(err, ErrDisabled):
			return nil, obs.StatusError{Code: http.StatusServiceUnavailable, Msg: "disabled"}
		}
		return m, err
	}
	bundles, err := List(e.cfg.Dir)
	if err != nil {
		return nil, err
	}
	return StatusDoc{Enabled: e.enabled.Load(), Dir: e.cfg.Dir, Bundles: bundles}, nil
}
