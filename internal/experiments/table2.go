package experiments

import (
	"doxmeter/internal/core"
	"doxmeter/internal/extract"
	"doxmeter/internal/netid"
	"doxmeter/internal/randutil"
)

// MeasureTable2 reproduces the extractor evaluation (§3.1.3): randomly
// select 125 dox files from the positive-label set, hand-label them (here:
// read the generator's ground truth), run the extractor, and report
// per-label accuracy alongside how many of the sampled doxes included each
// item.
func MeasureTable2(s *core.Study, sample int) []ExtractorAccuracy {
	r := randutil.New(s.Cfg.Seed ^ 0x7462326576616c) // "tb2eval"
	victims := randutil.PickN(r, s.World.TrainVictims, sample)

	type counter struct{ included, hit int }
	perNet := map[netid.Network]*counter{}
	for _, n := range netid.All() {
		perNet[n] = &counter{}
	}
	var first, last, age, phone counter

	for _, v := range victims {
		render := s.Gen.Dox(r, v)
		ex := extract.Extract(render.Body)
		for n, user := range v.OSN {
			perNet[n].included++
			if ex.Accounts[n] == user {
				perNet[n].hit++
			}
		}
		first.included++
		if ex.FirstName == v.FirstName {
			first.hit++
		}
		last.included++
		if ex.LastName == v.LastName {
			last.hit++
		}
		age.included++
		if ex.Age == v.Age {
			age.hit++
		}
		if v.Fields.Phone {
			phone.included++
			for _, p := range ex.Phones {
				if p == v.Phone {
					phone.hit++
					break
				}
			}
		}
	}

	n := float64(len(victims))
	rate := func(c *counter) (float64, float64) {
		if c.included == 0 {
			return 0, 0
		}
		return float64(c.included) / n, float64(c.hit) / float64(c.included)
	}
	row := func(lbl string, c *counter, paper float64) ExtractorAccuracy {
		inc, acc := rate(c)
		return ExtractorAccuracy{Label: lbl, Included: inc, Accuracy: acc, Paper: paper}
	}
	return []ExtractorAccuracy{
		row("Instagram", perNet[netid.Instagram], 0.952),
		row("Twitch", perNet[netid.Twitch], 0.952),
		row("Google+", perNet[netid.GooglePlus], 0.904),
		row("Twitter", perNet[netid.Twitter], 0.864),
		row("Facebook", perNet[netid.Facebook], 0.848),
		row("YouTube", perNet[netid.YouTube], 0.800),
		row("Skype", perNet[netid.Skype], 0.832),
		row("First Name", &first, 0.776),
		row("Last Name", &last, 0.624),
		row("Age", &age, 0.816),
		row("Phone", &phone, 0.584),
	}
}

// AblationResult compares a variant configuration's Table 1 metrics against
// the paper-default configuration.
type AblationResult struct {
	Name      string
	Precision float64
	Recall    float64
	F1        float64
}
