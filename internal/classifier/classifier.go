// Package classifier assembles the paper's dox classifier (§3.1.2): a
// TF-IDF vectorizer feeding a 20-epoch SGD linear model, trained on 749
// dox-for-hire proof-of-work files and 4,220 hand-checked benign pastes,
// evaluated on a random two-thirds/one-third split (Table 1).
package classifier

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"sync"

	"doxmeter/internal/metrics"
	"doxmeter/internal/parallel"
	"doxmeter/internal/sgd"
	"doxmeter/internal/tfidf"
)

// Options configures training. The zero value reproduces the paper's setup.
type Options struct {
	TFIDF tfidf.Options
	SGD   sgd.Options
	// Threshold shifts the decision boundary; zero uses DefaultThreshold.
	Threshold float64
	// MinTokens is the shortest document (in tokens) that can be flagged
	// as a dox; zero uses DefaultMinTokens, negative disables the floor.
	// A dox necessarily discloses several fields, so very short documents
	// are categorically negative. Without the floor, short imageboard
	// posts whose tokens are mostly out-of-vocabulary get their few known
	// tokens amplified by L2 normalization, and whichever phrase happens
	// to share a rare token with a training dox becomes an unstable
	// false-positive bomb.
	MinTokens int
	// Parallelism bounds the worker pool used by batch classification
	// (IsDoxBatch) and the TrainEval test-split evaluation. Values <= 1
	// run sequentially; results are identical at any setting because each
	// document is classified independently.
	Parallelism int
	// ReferenceKernel forces Score/IsDox/ScoreInto through the original
	// Transform+Decision path instead of the fused tfidf.Scorer kernel.
	// The two paths are bit-identical (enforced by fuzz and whole-study
	// equivalence suites); this knob exists so those suites can run entire
	// studies on both paths and compare outputs byte for byte.
	ReferenceKernel bool
}

// DefaultThreshold is the decision boundary calibrated on the labeled
// corpus so that the evaluation lands on the paper's Table 1 error shape
// (dox precision slightly below recall, the Not class near-perfect) while
// the wild-corpus flagged rate stays near the paper's ~0.3%. The margin
// damps rare-token overfit on very short imageboard posts.
const DefaultThreshold = 0.06

// DefaultMinTokens is the default document-length floor. The shortest real
// dox renders (terse template fills) run ~30 tokens; imageboard chatter
// runs under 15.
const DefaultMinTokens = 20

// Classifier is a trained dox detector. Safe for concurrent Classify calls:
// the fused kernel's mutable scratch lives in per-call scorers drawn from an
// internal pool, never in shared state.
type Classifier struct {
	vec       *tfidf.Vectorizer
	model     *sgd.Classifier
	threshold float64
	minTokens int
	reference bool
	scorers   sync.Pool // *tfidf.Scorer scratch, one per concurrent scorer
}

// newClassifier wires the scorer pool; every construction path (Train,
// Load) funnels through it.
func newClassifier(vec *tfidf.Vectorizer, model *sgd.Classifier, threshold float64, minTokens int, reference bool) *Classifier {
	c := &Classifier{vec: vec, model: model, threshold: threshold, minTokens: minTokens, reference: reference}
	c.scorers.New = func() any { return vec.NewScorer() }
	return c
}

// Train fits the classifier on labeled documents.
func Train(r *rand.Rand, docs []string, isDox []bool, opts Options) (*Classifier, error) {
	if len(docs) == 0 || len(docs) != len(isDox) {
		return nil, fmt.Errorf("classifier: %d docs vs %d labels", len(docs), len(isDox))
	}
	vec := tfidf.NewVectorizer(opts.TFIDF)
	X := vec.FitTransform(docs)
	y := make([]int, len(isDox))
	for i, d := range isDox {
		if d {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	model := sgd.New(vec.VocabSize(), opts.SGD)
	if err := model.Fit(r, X, y); err != nil {
		return nil, err
	}
	th := opts.Threshold
	if th == 0 {
		th = DefaultThreshold
	}
	mt := opts.MinTokens
	if mt == 0 {
		mt = DefaultMinTokens
	}
	return newClassifier(vec, model, th, mt, opts.ReferenceKernel), nil
}

// Result is the output of one classification pass: everything the funnel
// needs to know about a document, computed in a single fused pass over its
// bytes. Score includes the threshold shift, so >= 0 means flagged (before
// the length floor); Tokens is the unigram count the MinTokens floor reads.
type Result struct {
	Score  float64
	Tokens int
	IsDox  bool
}

// ScoreInto classifies doc into *r without per-call heap allocation: the
// fused kernel tokenizes, accumulates TF-IDF, L2-normalizes and folds the
// dense SGD weight vector in one pass over the document bytes, reusing
// pooled scratch. Margins are bit-identical to the reference
// Transform+Decision path at any concurrency.
func (c *Classifier) ScoreInto(doc string, r *Result) {
	if c.reference {
		r.Score = c.ScoreReference(doc)
		r.Tokens = len(tfidf.Tokenize(doc))
	} else {
		s := c.scorers.Get().(*tfidf.Scorer)
		dot, tokens := s.DotNormalized(doc, c.model.Weights)
		c.scorers.Put(s)
		r.Score = c.model.DecisionFromDot(dot) - c.threshold
		r.Tokens = tokens
	}
	r.IsDox = r.Score >= 0 && !(c.minTokens > 0 && r.Tokens < c.minTokens)
}

// scoreIntoWith is ScoreInto with an explicit scorer, for batch callers
// that pin one scorer per worker instead of hitting the pool per document.
func (c *Classifier) scoreIntoWith(s *tfidf.Scorer, doc string, r *Result) {
	dot, tokens := s.DotNormalized(doc, c.model.Weights)
	r.Score = c.model.DecisionFromDot(dot) - c.threshold
	r.Tokens = tokens
	r.IsDox = r.Score >= 0 && !(c.minTokens > 0 && r.Tokens < c.minTokens)
}

// Score returns the signed decision margin for a document; positive means
// dox-like.
func (c *Classifier) Score(doc string) float64 {
	var r Result
	c.ScoreInto(doc, &r)
	return r.Score
}

// ScoreReference computes the margin through the original sparse path —
// tfidf.Transform into a materialized Vector, then sgd.Decision. It is the
// reference implementation the fused kernel is verified against, kept on
// the API so equivalence tests and ablations can always reach it.
func (c *Classifier) ScoreReference(doc string) float64 {
	return c.model.Decision(c.vec.Transform(doc)) - c.threshold
}

// IsDox classifies one document, applying the length floor.
func (c *Classifier) IsDox(doc string) bool {
	var r Result
	c.ScoreInto(doc, &r)
	return r.IsDox
}

// ScoreBatchInto classifies a batch into out (which must hold len(docs)
// entries) using at most workers concurrent goroutines, each with its own
// pinned scorer scratch. This is the API the study's PrepareBatch workers
// use. Results are identical at any worker count.
func (c *Classifier) ScoreBatchInto(docs []string, out []Result, workers int) {
	if len(out) < len(docs) {
		panic("classifier: ScoreBatchInto out slice shorter than docs")
	}
	if c.reference {
		parallel.ForEach(len(docs), workers, func(i int) {
			c.ScoreInto(docs[i], &out[i])
		})
		return
	}
	n := parallel.Workers(len(docs), workers)
	scorers := make([]*tfidf.Scorer, n)
	for w := range scorers {
		scorers[w] = c.scorers.Get().(*tfidf.Scorer)
	}
	parallel.ForEachWorker(len(docs), workers, func(w, i int) {
		c.scoreIntoWith(scorers[w], docs[i], &out[i])
	})
	for _, s := range scorers {
		c.scorers.Put(s)
	}
}

// IsDoxBatch classifies a batch of documents using at most workers
// concurrent goroutines (workers <= 1 is sequential). Because each document
// is classified independently against immutable fitted state, the result is
// identical to calling IsDox in a loop, just faster on multi-core hosts.
func (c *Classifier) IsDoxBatch(docs []string, workers int) []bool {
	res := make([]Result, len(docs))
	c.ScoreBatchInto(docs, res, workers)
	out := make([]bool, len(docs))
	for i := range res {
		out[i] = res[i].IsDox
	}
	return out
}

// ScoreBatch computes decision margins for a batch, parallelized like
// IsDoxBatch.
func (c *Classifier) ScoreBatch(docs []string, workers int) []float64 {
	res := make([]Result, len(docs))
	c.ScoreBatchInto(docs, res, workers)
	out := make([]float64, len(docs))
	for i := range res {
		out[i] = res[i].Score
	}
	return out
}

// VocabSize exposes the fitted vocabulary size.
func (c *Classifier) VocabSize() int { return c.vec.VocabSize() }

// Example is one labeled training document.
type Example struct {
	Body  string
	IsDox bool
}

// EvalResult is the outcome of a split evaluation.
type EvalResult struct {
	Confusion metrics.Confusion
	Report    []metrics.ClassReport
	TrainSize int
	TestSize  int
}

// TrainEval performs the paper's evaluation protocol: shuffle, train on a
// random two-thirds, evaluate on the remaining third, and report per-class
// precision/recall/F1 (Table 1). It returns the classifier trained on the
// training split.
func TrainEval(r *rand.Rand, examples []Example, opts Options) (*Classifier, EvalResult, error) {
	if len(examples) < 3 {
		return nil, EvalResult{}, fmt.Errorf("classifier: need at least 3 examples, have %d", len(examples))
	}
	shuffled := make([]Example, len(examples))
	copy(shuffled, examples)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	cut := len(shuffled) * 2 / 3
	train, test := shuffled[:cut], shuffled[cut:]

	docs := make([]string, len(train))
	labels := make([]bool, len(train))
	for i, ex := range train {
		docs[i], labels[i] = ex.Body, ex.IsDox
	}
	clf, err := Train(r, docs, labels, opts)
	if err != nil {
		return nil, EvalResult{}, err
	}
	testDocs := make([]string, len(test))
	for i, ex := range test {
		testDocs[i] = ex.Body
	}
	preds := clf.IsDoxBatch(testDocs, opts.Parallelism)
	var conf metrics.Confusion
	for i, ex := range test {
		conf.Add(ex.IsDox, preds[i])
	}
	return clf, EvalResult{
		Confusion: conf,
		Report:    metrics.Report(conf),
		TrainSize: len(train),
		TestSize:  len(test),
	}, nil
}

// persisted is the gob wire form of a classifier.
type persisted struct {
	Vocab     map[string]int
	IDF       []float64
	NDocs     int
	TFIDFOpts tfidf.Options
	Weights   []float64
	Intercept float64
	SGDOpts   sgd.Options
	Threshold float64
	MinTokens int
}

// Save serializes the classifier with encoding/gob.
func (c *Classifier) Save(w io.Writer) error {
	vocab, idf, nDocs, opts := c.vec.Snapshot()
	return gob.NewEncoder(w).Encode(persisted{
		Vocab:     vocab,
		IDF:       idf,
		NDocs:     nDocs,
		TFIDFOpts: opts,
		Weights:   c.model.Weights,
		Intercept: c.model.Intercept,
		SGDOpts:   c.model.Opts,
		Threshold: c.threshold,
		MinTokens: c.minTokens,
	})
}

// Load restores a classifier saved with Save.
func Load(r io.Reader) (*Classifier, error) {
	var p persisted
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	vec, err := tfidf.Restore(p.Vocab, p.IDF, p.NDocs, p.TFIDFOpts)
	if err != nil {
		return nil, fmt.Errorf("classifier: load: %w", err)
	}
	model := sgd.New(len(p.Weights), p.SGDOpts)
	model.Weights = p.Weights
	model.Intercept = p.Intercept
	return newClassifier(vec, model, p.Threshold, p.MinTokens, false), nil
}
