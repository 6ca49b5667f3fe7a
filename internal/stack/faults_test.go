package stack

import (
	"reflect"
	"testing"
	"time"

	"doxmeter/internal/crawler"
	"doxmeter/internal/faults"
)

func TestStudyFaults(t *testing.T) {
	if p, crawl, err := StudyFaults("off", 1); p != nil || crawl != (crawler.Options{}) || err != nil {
		t.Fatalf("off = %+v, %+v, %v; want no profile and the default crawl policy", p, crawl, err)
	}
	if _, _, err := StudyFaults("bogus", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
	preset, _ := faults.Preset("mild", 7)
	p, crawl, err := StudyFaults("mild", 7)
	if err != nil {
		t.Fatal(err)
	}
	if p.RetryAfter != 5*time.Millisecond || p.StallFor != 5*time.Millisecond {
		t.Fatalf("delays = %v, %v; want 5ms each", p.RetryAfter, p.StallFor)
	}
	p.RetryAfter, p.StallFor = preset.RetryAfter, preset.StallFor
	if !reflect.DeepEqual(p, preset) {
		t.Fatalf("probabilities changed:\n%+v\nwant\n%+v", p, preset)
	}
	if err := crawl.Validate(); err != nil || crawl.MaxBackoff != 5*time.Millisecond {
		t.Fatalf("crawl policy %+v: %v", crawl, err)
	}
}
