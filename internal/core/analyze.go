package core

import (
	"doxmeter/internal/geo"
	"doxmeter/internal/graph"
	"doxmeter/internal/label"
	"doxmeter/internal/metrics"
	"doxmeter/internal/netid"
	"doxmeter/internal/privstore"
	"doxmeter/internal/randutil"
	"doxmeter/internal/simclock"
)

// LabelSample runs the §3.2 analyst over a random sample of the unique
// flagged doxes and returns the aggregate (Tables 5–8) plus the per-dox
// labels in sample order. A human labeler reading classifier output
// discards files that are plainly not doxes (classifier false positives and
// borderline template fills); the analyst's screen keeps a file only when
// it discloses at least three sensitive categories beyond an email address.
func (s *Study) LabelSample(n int) (label.Aggregate, []label.Labels) {
	r := randutil.Derive(s.rng, "labeling")
	idx := r.Perm(len(s.Doxes))
	var agg label.Aggregate
	out := make([]label.Labels, 0, n)
	for _, i := range idx {
		if len(out) >= n {
			break
		}
		l := s.Doxes[i].Labels // precomputed at commit; survives resume
		if sensitiveCategories(l) < 3 {
			continue
		}
		agg.Add(l)
		out = append(out, l)
	}
	return agg, out
}

// sensitiveCategories counts disclosed Table 6 categories, excluding email
// (self-shared everywhere and useless for dox screening).
func sensitiveCategories(l label.Labels) int {
	n := 0
	for _, b := range []bool{
		l.Address, l.Zip, l.Phone, l.Family, l.DOB, l.School, l.Usernames,
		l.ISP, l.IP, l.Passwords, l.Physical, l.Criminal, l.SSN,
		l.CreditCard, l.Financial,
	} {
		if b {
			n++
		}
	}
	return n
}

// OSNCounts tallies how many unique doxes reference each network (Table 9).
func (s *Study) OSNCounts() map[netid.Network]int {
	out := make(map[netid.Network]int)
	for _, d := range s.Doxes {
		for n := range d.Extraction.Accounts {
			out[n]++
		}
	}
	return out
}

// DeletionStats reproduces the Table 3 validation: how many period-1
// pastebin posts were deleted one month after posting, split by the
// classifier's dox verdict.
type DeletionStats struct {
	Dox   metrics.Proportion
	Other metrics.Proportion
}

// DeletionCheck queries the pastebin deletion state one month after each
// period-1 post.
func (s *Study) DeletionCheck() DeletionStats {
	flagged := make(map[string]bool, len(s.Doxes))
	for _, d := range s.Doxes {
		if d.Site == "pastebin" {
			flagged[d.DocID] = true
		}
	}
	// Duplicates were flagged too; recover the full flagged set from the
	// dedup-inclusive counts by re-testing each collected P1 doc.
	var stats DeletionStats
	for _, doc := range s.pastebinP1Docs {
		deleted := s.Pastebin.IsDeleted(doc.ID, doc.Posted.Add(30*simclock.Day))
		if s.flaggedP1[doc.ID] {
			stats.Dox.N++
			if deleted {
				stats.Dox.Hits++
			}
		} else {
			stats.Other.N++
			if deleted {
				stats.Other.Hits++
			}
		}
	}
	return stats
}

// GeoValidation reproduces §4.1: sample doxes disclosing both an IP and a
// postal address, geolocate the IP, and compare against the address.
type GeoValidation struct {
	Sampled   int // doxes with an IP considered
	Usable    int // of those, doxes that also had a postal address
	ExactCity int
	SameState int
	Adjacent  int
	Far       int
	NoLocate  int // IP outside the geolocation database
}

// ValidateGeo runs the IP-vs-postal validation over up to sampleIPs doxes
// that include an IP address (the paper sampled 50, keeping the 36 that
// also had postal addresses). The per-dox comparison itself was done at
// commit time (DoxRecord.Geo), so this only samples and tallies — which is
// what lets a resumed study, whose checkpoints never contain an IP,
// reproduce the table exactly.
func (s *Study) ValidateGeo(sampleIPs int) GeoValidation {
	r := randutil.Derive(s.rng, "geovalidation")
	var withIP []*DoxRecord
	for _, d := range s.Doxes {
		if d.Geo != GeoNoIP {
			withIP = append(withIP, d)
		}
	}
	randutil.Shuffle(r, withIP)
	if sampleIPs > len(withIP) {
		sampleIPs = len(withIP)
	}
	v := GeoValidation{Sampled: sampleIPs}
	for _, d := range withIP[:sampleIPs] {
		switch d.Geo {
		case GeoNoAddress, GeoNoPostal:
			// Sampled but unusable: no postal address to compare against.
		case GeoNoLocate:
			v.Usable++
			v.NoLocate++
		case GeoExactCity:
			v.Usable++
			v.ExactCity++
		case GeoSameState:
			v.Usable++
			v.SameState++
		case GeoAdjacent:
			v.Usable++
			v.Adjacent++
		case GeoFar:
			v.Usable++
			v.Far++
		}
	}
	return v
}

// postalRegion recovers the postal region code and city from dox text by
// matching region names/codes and their cities.
func postalRegion(text string, db *geo.DB) (code, city string, ok bool) {
	for _, rg := range db.Regions() {
		for _, c := range rg.Cities {
			if containsWord(text, c) {
				// Confirm the region: code, name or country appears too.
				if containsWord(text, rg.Code) || containsWord(text, rg.Name) || containsWord(text, rg.Country) {
					return rg.Code, c, true
				}
			}
		}
	}
	return "", "", false
}

// containsWord is a cheap token-boundary contains.
func containsWord(text, word string) bool {
	n := len(word)
	for i := 0; i+n <= len(text); i++ {
		if text[i:i+n] != word {
			continue
		}
		beforeOK := i == 0 || !isWordByte(text[i-1])
		afterOK := i+n == len(text) || !isWordByte(text[i+n])
		if beforeOK && afterOK {
			return true
		}
	}
	return false
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// BuildStore sanitizes every unique detection into the §3.3
// privacy-preserving datastore: category indicators, bracketed
// demographics and salted account digests only — the raw dox text is read
// here and never stored.
func (s *Study) BuildStore(salt string) *privstore.Store {
	ps := privstore.New(salt)
	for _, d := range s.Doxes {
		ps.Add(d.Site, d.Posted, d.Labels, d.Extraction.AccountRefs())
	}
	return ps
}

// DoxerNetwork reproduces the §5.3.2 / Figure 2 analysis: a graph over
// credited doxer aliases with co-credit and Twitter-follow edges, reduced
// to maximal cliques of at least minClique members.
type DoxerNetwork struct {
	Graph          *graph.Graph
	CreditedDoxers int
	WithTwitter    int
	PrivateTwitter int
	Cliques        [][]string
	InCliques      int
	LargestClique  int
}

// BuildDoxerNetwork parses credits from every unique dox, resolves Twitter
// handles, and merges follow edges between credited doxers.
func (s *Study) BuildDoxerNetwork(minClique int) DoxerNetwork {
	g := graph.New()
	aliasSeen := map[string]bool{}
	for _, d := range s.Doxes {
		ex := d.Extraction
		credited := append([]string(nil), ex.CreditAliases...)
		// Handles credit the same drop; resolve handle-only credits to
		// their alias when the world knows it, otherwise use the handle
		// itself as the node.
		for _, h := range ex.CreditHandles {
			credited = append(credited, aliasForHandle(s, h))
		}
		credited = dedupeStrings(credited)
		for _, a := range credited {
			aliasSeen[a] = true
			g.AddNode(a)
		}
		for i, a := range credited {
			for _, b := range credited[i+1:] {
				g.AddEdge(a, b)
			}
		}
	}
	// Twitter follow edges between credited doxers with public accounts
	// (34 measured accounts were private, §5.3.2).
	net := DoxerNetwork{Graph: g, CreditedDoxers: len(aliasSeen)}
	var credited []string
	for a := range aliasSeen {
		credited = append(credited, a)
	}
	for i, a := range credited {
		da, okA := s.World.DoxerByAlias(a)
		if !okA || da.TwitterHandle == "" {
			continue
		}
		net.WithTwitter++
		if da.TwitterPrivate {
			net.PrivateTwitter++
			continue
		}
		for _, b := range credited[i+1:] {
			db, okB := s.World.DoxerByAlias(b)
			if !okB || db.TwitterHandle == "" || db.TwitterPrivate {
				continue
			}
			if s.World.FollowsEachOther(da.ID, db.ID) {
				g.AddEdge(a, b)
			}
		}
	}
	net.Cliques = g.CliquesAtLeast(minClique)
	net.InCliques = len(graph.NodesInCliques(net.Cliques))
	for _, c := range net.Cliques {
		if len(c) > net.LargestClique {
			net.LargestClique = len(c)
		}
	}
	return net
}

// aliasForHandle maps a lowercase Twitter handle back to a doxer alias
// (handles are lowercased aliases in the world model).
func aliasForHandle(s *Study, handle string) string {
	for _, d := range s.World.Doxers {
		if d.TwitterHandle == handle {
			return d.Alias
		}
	}
	return handle
}

func dedupeStrings(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
