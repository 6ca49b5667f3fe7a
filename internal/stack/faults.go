package stack

import (
	"time"

	"doxmeter/internal/crawler"
	"doxmeter/internal/faults"
)

// StudyFaults returns the named fault preset (nil for "off") for a study
// whose services run in-process, and the crawl policy to run it under.
// The fault probabilities stay and every wall-clock delay shrinks: the
// advertised Retry-After and the stall to 5 ms, the retry backoff to
// 2–5 ms. The in-process handlers' results depend only on virtual time,
// so the study's results are the preset's, without the waiting. doxsites
// serves the preset unchanged to real clients.
func StudyFaults(name string, seed int64) (*faults.Profile, crawler.Options, error) {
	p, err := faults.Preset(name, seed)
	if p == nil || err != nil {
		return nil, crawler.Options{}, err
	}
	p.RetryAfter = 5 * time.Millisecond
	p.StallFor = 5 * time.Millisecond
	return p, crawler.Options{Backoff: 2 * time.Millisecond, MaxBackoff: 5 * time.Millisecond}, nil
}
