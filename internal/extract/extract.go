// Package extract recovers online-social-network account references and
// demographic fields from semi-structured dox text — stage three of the
// paper's pipeline (§3.1.3).
//
// Dox files are "semi-structured": easy for a human, nontrivial for a
// program. The paper's extractor mixes heuristic and statistical
// approaches; this implementation does the same. Heuristics handle the
// dominant forms (profile URLs, "Facebook: user", "FB user"); a statistical
// scorer over line-context features resolves which token on a labeled line
// is the username. The paper's own extractor was measurably imperfect
// (Table 2: Instagram 95.2% down to Phone 58.4%), and so is this one, by
// construction of the corpus — ambiguous plural forms ("fbs: a - b - c")
// and prose-embedded fields defeat it.
package extract

import (
	"regexp"
	"strconv"
	"strings"
	"unicode"

	"doxmeter/internal/netid"
)

// Extraction is everything recovered from one document.
type Extraction struct {
	Accounts map[netid.Network]string
	// CreditAliases are doxer aliases found in credit lines; CreditHandles
	// are @twitter handles found there (for Figure 2's network analysis).
	CreditAliases []string
	CreditHandles []string

	FirstName string
	LastName  string
	Age       int
	Phones    []string
	Emails    []string
	IPs       []string
}

// AccountRefs returns the extracted accounts as netid.Refs, sorted by
// network, for use as a de-duplication identity (§3.1.4).
func (e *Extraction) AccountRefs() []netid.Ref {
	refs := make([]netid.Ref, 0, len(e.Accounts))
	for _, n := range netid.All() {
		if u, ok := e.Accounts[n]; ok {
			refs = append(refs, netid.Ref{Network: n, Username: u})
		}
	}
	return refs
}

// AccountSetKey is a canonical identity for the account set; empty when no
// accounts were extracted.
func (e *Extraction) AccountSetKey() string {
	refs := e.AccountRefs()
	if len(refs) == 0 {
		return ""
	}
	keys := make([]string, len(refs))
	for i, r := range refs {
		keys[i] = r.Key()
	}
	return strings.Join(keys, "|")
}

var (
	urlPatterns = map[netid.Network]*regexp.Regexp{
		netid.Facebook:   regexp.MustCompile(`(?i)(?:https?://)?(?:www\.)?facebook\.com/([A-Za-z0-9._-]+)`),
		netid.GooglePlus: regexp.MustCompile(`(?i)(?:https?://)?plus\.google\.com/\+?([A-Za-z0-9._-]+)`),
		netid.Twitter:    regexp.MustCompile(`(?i)(?:https?://)?(?:www\.)?twitter\.com/([A-Za-z0-9._-]+)`),
		netid.Instagram:  regexp.MustCompile(`(?i)(?:https?://)?(?:www\.)?instagram\.com/([A-Za-z0-9._-]+)`),
		netid.YouTube:    regexp.MustCompile(`(?i)(?:https?://)?(?:www\.)?youtube\.com/(?:user/|channel/|c/)?([A-Za-z0-9._-]+)`),
		netid.Twitch:     regexp.MustCompile(`(?i)(?:https?://)?(?:www\.)?twitch\.tv/([A-Za-z0-9._-]+)`),
	}

	// labelAliases maps lowercase line labels to networks. Single-account
	// labels only: plural forms ("fbs", "facebooks") signal ambiguous
	// multi-account lists that the extractor deliberately does not guess
	// at (paper example forms 3 and 4).
	labelAliases = map[string]netid.Network{
		"facebook": netid.Facebook, "fb": netid.Facebook, "face": netid.Facebook,
		"googleplus": netid.GooglePlus, "google+": netid.GooglePlus, "g+": netid.GooglePlus, "gplus": netid.GooglePlus,
		"twitter": netid.Twitter, "tw": netid.Twitter,
		"instagram": netid.Instagram, "ig": netid.Instagram, "insta": netid.Instagram,
		"youtube": netid.YouTube, "yt": netid.YouTube,
		"twitch": netid.Twitch,
		"skype":  netid.Skype, "skype name": netid.Skype, "skype id": netid.Skype,
	}

	phoneRe     = regexp.MustCompile(`(?:\+?1[-.\s]?)?\(?\d{3}\)?[-.\s]\d{3}[-.\s]?\d{4}|\+1\d{10}`)
	emailRe     = regexp.MustCompile(`[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}`)
	ipRe        = regexp.MustCompile(`\b(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})\b`)
	ageRe       = regexp.MustCompile(`(?i)\bage\s*[:;\-]?\s*(\d{1,2})\b`)
	nameRe      = regexp.MustCompile(`(?im)^\s*(?:full |real |irl )?name\s*[:;\-]\s*(.+)$`)
	firstNameRe = regexp.MustCompile(`(?im)^\s*first name\s*[:;\-]\s*([A-Za-z]+)`)
	tokenRe     = regexp.MustCompile(`[A-Za-z0-9._-]{2,}`)

	creditLineRe   = regexp.MustCompile(`(?im)^\s*(?:dropped by|dox by|credit:|brought to you by)\s+(.+)$`)
	creditHandleRe = regexp.MustCompile(`@([A-Za-z0-9_]{2,})`)
	creditParenRe  = regexp.MustCompile(`\(@[A-Za-z0-9_]+\)`)

	// urlHostHints gates each profile-URL regex behind a cheap substring
	// check on the case-folded text: the regex can only match when its
	// literal host occurs, so running it otherwise is wasted scanning.
	urlHostHints = map[netid.Network]string{
		netid.Facebook:   "facebook.com",
		netid.GooglePlus: "plus.google.com",
		netid.Twitter:    "twitter.com",
		netid.Instagram:  "instagram.com",
		netid.YouTube:    "youtube.com",
		netid.Twitch:     "twitch.tv",
	}

	// creditHints gates the credit-line regex the same way.
	creditHints = []string{"dropped by", "dox by", "credit:", "brought to you by"}

	// reservedPaths lists per-network path segments that the profile-URL
	// patterns would otherwise capture as usernames — share links, watch
	// pages, login screens. A capture matching one of these (compared
	// case-insensitively, before trimming) is rejected so it cannot enter
	// the §3.1.4 account-set dedup identity.
	reservedPaths = map[netid.Network][]string{
		netid.Facebook:   {"profile.php", "pages", "groups", "events", "share", "sharer", "sharer.php", "watch", "marketplace", "login", "login.php", "home.php", "photo.php", "story.php"},
		netid.GooglePlus: {"share", "explore", "communities", "collections", "discover", "app"},
		netid.Twitter:    {"intent", "share", "home", "search", "hashtag", "login", "signup", "settings", "i", "messages", "explore", "notifications"},
		netid.Instagram:  {"p", "explore", "accounts", "reel", "reels", "stories", "tv", "direct"},
		netid.YouTube:    {"watch", "embed", "playlist", "results", "feed", "shorts", "user", "channel", "c", "about", "account", "upload", "subscription_center"},
		netid.Twitch:     {"directory", "videos", "settings", "downloads", "search", "subscriptions", "friends"},
	}
)

// reservedPath reports whether a raw URL capture is a reserved path segment
// for the network rather than a username. The comparison is case-insensitive
// (EqualFold) because the URL patterns match case-insensitively.
func reservedPath(n netid.Network, capture string) bool {
	for _, p := range reservedPaths[n] {
		if strings.EqualFold(capture, p) {
			return true
		}
	}
	return false
}

// foldLower lowercases text the way a `(?i)` regex folds it: rune-wise
// unicode.ToLower, plus the two Unicode runes whose case-fold orbit lands
// on an ASCII letter — U+017F LATIN SMALL LETTER LONG S (folds with "s")
// and U+212A KELVIN SIGN (folds with "k"). Gating a case-insensitive regex
// on strings.Contains(foldLower(text), hint) is therefore sound: whenever
// the regex would match the literal hint, the folded text contains it.
func foldLower(text string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case 'ſ':
			return 's'
		case 'K':
			return 'k'
		}
		return unicode.ToLower(r)
	}, text)
}

// Options tunes extraction strategy; the zero value is the reference
// configuration.
type Options struct {
	// Greedy makes multi-candidate account lines commit to the first
	// plausible token instead of abstaining — the ablation showing why
	// the reference extractor is conservative (guessing pollutes the
	// §3.1.4 account-set de-duplication identity).
	Greedy bool
}

// Extract runs the full extractor over plain text (convert HTML first).
// It rides the fused kernel (see kernel.go) drawn from a package pool.
func Extract(text string) *Extraction {
	return ExtractWith(text, Options{})
}

// ExtractWith runs the fused kernel with explicit options.
func ExtractWith(text string, opts Options) *Extraction {
	k := kernelPool.Get().(*Kernel)
	e := &Extraction{}
	k.ExtractInto(text, e, opts)
	kernelPool.Put(k)
	return e
}

// ExtractReference is the regex-based reference extractor: the text is
// case-folded once up front; every case-insensitive regex is then gated
// behind a cheap substring probe of that shared lowered copy, so a
// document that never mentions facebook.com never pays for the Facebook
// regex. It is the oracle the fused kernel is verified against, and the
// kernel's own fallback for text whose case fold changes byte widths.
func ExtractReference(text string, opts Options) *Extraction {
	e := &Extraction{Accounts: make(map[netid.Network]string)}
	lower := foldLower(text)
	extractURLs(text, lower, e)
	extractLabeledLines(text, e, opts)
	extractFields(text, lower, e)
	extractCredits(text, lower, e)
	return e
}

// extractURLs applies the profile-URL patterns (the paper's example form 1),
// skipping any network whose host never occurs in the folded text. All
// matches are scanned in document order and the first capture that survives
// the reserved-path denylist and the username shape filter wins, so a
// benign share link early in the document cannot shadow the real profile
// URL below it.
func extractURLs(text, lower string, e *Extraction) {
	for _, n := range netid.All() {
		re, ok := urlPatterns[n]
		if !ok {
			continue
		}
		if !strings.Contains(lower, urlHostHints[n]) {
			continue
		}
		for _, m := range re.FindAllStringSubmatch(text, -1) {
			if reservedPath(n, m[1]) {
				continue
			}
			user := strings.Trim(m[1], "._-")
			if validUsername(user) {
				e.Accounts[n] = user
				break
			}
		}
	}
}

// extractLabeledLines handles "Facebook: user" and "FB user" lines (the
// paper's example form 2) with a statistical token scorer choosing the
// username when the line holds several candidates.
func extractLabeledLines(text string, e *Extraction, opts Options) {
	for _, line := range strings.Split(text, "\n") {
		label, rest, ok := splitLabel(line)
		if !ok {
			continue
		}
		n, ok := labelAliases[label]
		if !ok && opts.Greedy && strings.HasSuffix(label, "s") {
			// Greedy mode also attacks plural multi-account labels
			// ("fbs:", "facebooks;") that the reference extractor
			// deliberately leaves alone.
			n, ok = labelAliases[strings.TrimSuffix(label, "s")]
		}
		if !ok {
			continue
		}
		if _, have := e.Accounts[n]; have {
			continue // URL extraction already resolved this network
		}
		if user, ok := bestUsernameToken(rest, opts.Greedy); ok {
			e.Accounts[n] = user
		}
	}
}

// splitLabel splits a line into a lowercase label and the remainder. It
// accepts ":"/";"/"-" separators and the bare "FB user" form where the
// label is the first token.
func splitLabel(line string) (label, rest string, ok bool) {
	s := strings.TrimSpace(line)
	if s == "" {
		return "", "", false
	}
	for _, sep := range []string{":", ";"} {
		if i := strings.Index(s, sep); i > 0 && i <= 24 {
			return strings.ToLower(strings.TrimSpace(s[:i])), s[i+1:], true
		}
	}
	// "-" separator, accepted only when set off by spaces so hyphenated
	// labels ("e-mail") and hyphen-bearing values never split on it. The
	// position bound applies to the "-" itself, matching the ":"/";" rule.
	if i := strings.Index(s, " - "); i > 0 && i+1 <= 24 {
		return strings.ToLower(strings.TrimSpace(s[:i])), s[i+3:], true
	}
	// Bare form: first token is a known short label.
	if i := strings.IndexAny(s, " \t"); i > 0 {
		head := strings.ToLower(strings.TrimSpace(s[:i]))
		if _, known := labelAliases[head]; known {
			return head, s[i:], true
		}
	}
	return "", "", false
}

// bestUsernameToken scores candidate tokens on a labeled line and returns
// the winner. Single-candidate lines are unambiguous; lines with several
// candidates (the plural/list forms) score each token and only commit when
// one candidate clearly dominates — mirroring the paper's blended
// "statistical and heuristic" approach and its deliberate conservatism.
func bestUsernameToken(rest string, greedy bool) (string, bool) {
	tokens := tokenRe.FindAllString(rest, -1)
	if len(tokens) == 0 {
		return "", false
	}
	candidates := tokens[:0:0]
	for _, t := range tokens {
		if validUsername(t) && !stopToken(t) {
			candidates = append(candidates, t)
		}
	}
	switch {
	case len(candidates) == 0:
		return "", false
	case len(candidates) == 1:
		return candidates[0], true
	case greedy:
		return candidates[0], true
	default:
		// Multiple plausible usernames ("a - b - c", "a and b"): scoring
		// by shape cannot tell which is current, so the extractor abstains
		// rather than polluting dedup identity with a guess.
		return "", false
	}
}

// stopWords are connective words that appear on account lines; tokens come
// from tokenRe, whose class is pure ASCII, so EqualFold equals a
// lowercase-and-compare without allocating.
var stopWords = [...]string{"and", "or", "aka", "also", "old", "new", "main", "alt", "the", "his", "her"}

// stopToken filters connective words that appear on account lines.
func stopToken(t string) bool {
	for _, w := range &stopWords {
		if strings.EqualFold(t, w) {
			return true
		}
	}
	return false
}

// validUsername is the shape filter for account names.
func validUsername(t string) bool {
	if len(t) < 3 || len(t) > 40 {
		return false
	}
	letters := 0
	for _, c := range t {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
			letters++
		case c >= '0' && c <= '9', c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return letters >= 2
}

// extractFields pulls demographic fields: name, age, phones, emails, IPs.
// The name and age regexes only run when their label occurs in the folded
// text; emails require a literal '@'.
func extractFields(text, lower string, e *Extraction) {
	if strings.Contains(lower, "name") {
		if m := nameRe.FindStringSubmatch(text); m != nil {
			parts := strings.Fields(strings.TrimSpace(m[1]))
			if len(parts) >= 1 && isNameWord(parts[0]) {
				e.FirstName = parts[0]
			}
			if len(parts) >= 2 && isNameWord(parts[1]) {
				e.LastName = parts[1]
			}
		} else if m := firstNameRe.FindStringSubmatch(text); m != nil {
			e.FirstName = m[1]
		}
	}
	if strings.Contains(lower, "age") {
		if m := ageRe.FindStringSubmatch(text); m != nil {
			if v, err := strconv.Atoi(m[1]); err == nil && v >= 5 && v <= 99 {
				e.Age = v
			}
		}
	}
	e.Phones = dedupe(phoneRe.FindAllString(text, -1))
	if strings.Contains(text, "@") {
		e.Emails = dedupe(emailRe.FindAllString(text, -1))
	}
	for _, m := range ipRe.FindAllStringSubmatch(text, -1) {
		ok := true
		for _, oct := range m[1:] {
			if v, err := strconv.Atoi(oct); err != nil || v > 255 {
				ok = false
				break
			}
		}
		if ok {
			e.IPs = append(e.IPs, m[0])
		}
	}
	e.IPs = dedupe(e.IPs)
}

// isNameWord accepts capitalized alphabetic words, rejecting truncated
// forms like "S." (the "Name: John S." render defeats last-name
// extraction, as in the paper's lower last-name accuracy).
func isNameWord(w string) bool {
	if len(w) < 2 {
		return false
	}
	for _, c := range w {
		if !(c >= 'A' && c <= 'Z') && !(c >= 'a' && c <= 'z') {
			return false
		}
	}
	return w[0] >= 'A' && w[0] <= 'Z'
}

// extractCredits parses "dropped by X and @Y, thanks to Z" credit lines
// (§5.3.2) into aliases and Twitter handles.
func extractCredits(text, lower string, e *Extraction) {
	hinted := false
	for _, h := range creditHints {
		if strings.Contains(lower, h) {
			hinted = true
			break
		}
	}
	if !hinted {
		return
	}
	for _, m := range creditLineRe.FindAllStringSubmatch(text, -1) {
		rest := m[1]
		for _, hm := range creditHandleRe.FindAllStringSubmatch(rest, -1) {
			e.CreditHandles = append(e.CreditHandles, hm[1])
		}
		// Remove parenthesized handle clauses, then split on connectives.
		cleaned := creditParenRe.ReplaceAllString(rest, "")
		cleaned = strings.NewReplacer(", thanks to ", ",", " and ", ",", ", ", ",").Replace(cleaned)
		for _, part := range strings.Split(cleaned, ",") {
			part = strings.TrimSpace(strings.Trim(strings.TrimSpace(part), "."))
			if part == "" || strings.HasPrefix(part, "@") {
				continue
			}
			if len(tokenRe.FindAllString(part, -1)) == 1 && validUsername(part) {
				e.CreditAliases = append(e.CreditAliases, part)
			}
		}
	}
	e.CreditAliases = dedupe(e.CreditAliases)
	e.CreditHandles = dedupe(e.CreditHandles)
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
