// Package frapp is the public API of this FRAPP reproduction — the
// framework for high-accuracy privacy-preserving mining of Agrawal &
// Haritsa (ICDE 2005).
//
// FRAPP models client-side random perturbation of categorical records as
// a Markov transition matrix A, shows that the (ρ1, ρ2) amplification
// privacy requirement reduces to a bound γ on the ratio of entries within
// any row of A, and derives the "gamma-diagonal" matrix — γx on the
// diagonal and x = 1/(γ+n−1) elsewhere — as the minimum-condition-number
// (and therefore highest-accuracy) choice under that bound. A randomized
// variant perturbs each client with a private random realization of the
// matrix, improving privacy at marginal accuracy cost.
//
// The package surface has three layers:
//
//   - Data model: Schema, Record, Database and the synthetic CENSUS and
//     HEALTH datasets of the paper's evaluation.
//   - Mechanisms: gamma-diagonal (deterministic and randomized)
//     perturbation, the MASK and Cut-and-Paste baselines, privacy
//     accounting (Gamma, PosteriorRange), reconstruction, and
//     condition-number analysis.
//   - Mining: Apriori frequent-itemset mining with per-scheme support
//     reconstruction, association-rule generation, and the paper's
//     accuracy metrics (support error ρ, identity errors σ+/σ−).
//
// A minimal end-to-end flow:
//
//	schema := frapp.CensusSchema()
//	priv := frapp.PrivacySpec{Rho1: 0.05, Rho2: 0.50} // γ = 19
//	pipe, err := frapp.NewPipeline(schema, priv)
//	// clients perturb locally:
//	perturbed, err := pipe.Perturb(db, rng)
//	// the miner reconstructs supports while mining:
//	result, err := pipe.Mine(perturbed, 0.02)
package frapp

import (
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/mining"
)

// Data-model types (see internal/dataset).
type (
	// Attribute is one categorical attribute: a name plus its finite
	// category list.
	Attribute = dataset.Attribute
	// Schema describes the record domain of a categorical database.
	Schema = dataset.Schema
	// Record is one tuple: the chosen category index for each attribute.
	Record = dataset.Record
	// Database is a set of records under one schema.
	Database = dataset.Database
	// MixtureModel is the synthetic-data generator model.
	MixtureModel = dataset.MixtureModel
	// Profile is one correlated sub-population of a MixtureModel.
	Profile = dataset.Profile
)

// Framework types (see internal/core).
type (
	// PrivacySpec is the strict (ρ1, ρ2) amplification requirement.
	PrivacySpec = core.PrivacySpec
	// UniformMatrix is a diagonal+constant perturbation matrix — the
	// gamma-diagonal family.
	UniformMatrix = core.UniformMatrix
	// Perturber maps an original record to a perturbed one.
	Perturber = core.Perturber
	// GammaPerturber is the efficient DET-GD perturbation engine.
	GammaPerturber = core.GammaPerturber
	// RandomizedGammaPerturber is the RAN-GD perturbation engine.
	RandomizedGammaPerturber = core.RandomizedGammaPerturber
	// BoolMapping maps categorical records to boolean item vectors.
	BoolMapping = core.BoolMapping
	// BoolDatabase is a perturbed boolean database (MASK, C&P).
	BoolDatabase = core.BoolDatabase
	// MaskScheme is the MASK flip-perturbation baseline.
	MaskScheme = core.MaskScheme
	// CutPasteScheme is the Cut-and-Paste randomization baseline.
	CutPasteScheme = core.CutPasteScheme
	// Dense is the dense-matrix type used for custom perturbation
	// matrices and condition-number analysis.
	Dense = linalg.Dense
)

// Mining types (see internal/mining and internal/metrics).
type (
	// Item is one attribute-value pair.
	Item = mining.Item
	// Itemset is a canonical set of items.
	Itemset = mining.Itemset
	// FrequentItemset pairs an itemset with its support fraction.
	FrequentItemset = mining.FrequentItemset
	// MiningResult is an Apriori run's output.
	MiningResult = mining.Result
	// SupportCounter abstracts per-pass support computation.
	SupportCounter = mining.SupportCounter
	// Rule is an association rule with support and confidence.
	Rule = mining.Rule
	// AccuracyReport compares mined output to ground truth with the
	// paper's ρ/σ+/σ− metrics.
	AccuracyReport = metrics.Report
	// LevelErrors is one itemset length's row of an AccuracyReport.
	LevelErrors = metrics.LevelErrors
)

// Schema and data constructors.
var (
	// NewSchema validates attributes and builds the record↔index mapping.
	NewSchema = dataset.NewSchema
	// CensusSchema is the paper's Table 1 schema.
	CensusSchema = dataset.CensusSchema
	// HealthSchema is the paper's Table 2 schema.
	HealthSchema = dataset.HealthSchema
	// GenerateCensus synthesizes a CENSUS-like database.
	GenerateCensus = dataset.GenerateCensus
	// GenerateHealth synthesizes a HEALTH-like database.
	GenerateHealth = dataset.GenerateHealth
	// NewDatabase creates an empty database.
	NewDatabase = dataset.NewDatabase
	// ReadCSV and WriteCSV (de)serialize databases.
	ReadCSV  = dataset.ReadCSV
	WriteCSV = dataset.WriteCSV
)

// Framework constructors and functions.
var (
	// NewGammaDiagonal builds the paper's optimal perturbation matrix.
	NewGammaDiagonal = core.NewGammaDiagonal
	// NewGammaPerturber builds the efficient Section 5 perturbation.
	NewGammaPerturber = core.NewGammaPerturber
	// NewRandomizedGammaPerturber builds the Section 4 RAN-GD perturbation.
	NewRandomizedGammaPerturber = core.NewRandomizedGammaPerturber
	// NewDensePerturber perturbs with an arbitrary dense Markov matrix.
	NewDensePerturber = core.NewDensePerturber
	// PerturbDatabase applies a perturber to every record.
	PerturbDatabase = core.PerturbDatabase
	// NewBoolMapping prepares the categorical→boolean encoding.
	NewBoolMapping = core.NewBoolMapping
	// NewMaskScheme / NewMaskSchemeForPrivacy build the MASK baseline.
	NewMaskScheme           = core.NewMaskScheme
	NewMaskSchemeForPrivacy = core.NewMaskSchemeForPrivacy
	// MaskPForGamma returns MASK's retention probability for a γ bound.
	MaskPForGamma = core.MaskPForGamma
	// NewCutPasteScheme builds the C&P baseline.
	NewCutPasteScheme = core.NewCutPasteScheme
	// FindRhoForGamma searches C&P's ρ under a γ constraint.
	FindRhoForGamma = core.FindRhoForGamma
	// Amplification measures a matrix's worst row-entry ratio.
	Amplification = core.Amplification
	// PosteriorFromGamma inverts the γ bound to a worst-case posterior.
	PosteriorFromGamma = core.PosteriorFromGamma
	// PosteriorRange is the Section 4.1 randomized posterior interval.
	PosteriorRange = core.PosteriorRange
	// RandomizedPosterior evaluates ρ2(r) at one realization.
	RandomizedPosterior = core.RandomizedPosterior
	// ReconstructHistogram solves Y = A·X̂ in closed form.
	ReconstructHistogram = core.ReconstructHistogram
	// ReconstructHistogramDense solves with any invertible matrix.
	ReconstructHistogramDense = core.ReconstructHistogramDense
	// EstimationErrorBound evaluates Theorem 1's error bound.
	EstimationErrorBound = core.EstimationErrorBound
	// RelativeError computes ‖X̂−X‖/‖X‖.
	RelativeError = core.RelativeError
)

// Mining constructors and functions.
var (
	// NewItemset canonicalizes items into an Itemset.
	NewItemset = mining.NewItemset
	// Apriori mines frequent itemsets through any SupportCounter.
	Apriori = mining.Apriori
	// NewGammaCounter reconstructs supports from gamma-perturbed data.
	NewGammaCounter = mining.NewGammaCounter
	// NewShardedGammaCounter builds the lock-striped incremental counter
	// (linearly scalable concurrent ingestion) under the gamma scheme.
	NewShardedGammaCounter = mining.NewShardedGammaCounter
	// NewShardedCounter builds the lock-striped incremental counter for
	// any CounterScheme — gamma, MASK, or cut-and-paste.
	NewShardedCounter = mining.NewShardedCounter
	// SchemeForContract derives a scheme's full counting contract from
	// the published (schema, γ) privacy contract.
	SchemeForContract = mining.SchemeForContract
	// NewGammaScheme, NewMaskCounterScheme, and NewCutPasteCounterScheme
	// wrap validated mechanisms as counting contracts.
	NewGammaScheme           = mining.NewGammaScheme
	NewMaskCounterScheme     = mining.NewMaskCounterScheme
	NewCutPasteCounterScheme = mining.NewCutPasteCounterScheme
	// SchemeNames lists the supported live schemes.
	SchemeNames = mining.SchemeNames
	// GenerateRules derives association rules from a mining result.
	GenerateRules = mining.GenerateRules
	// EvaluateAccuracy compares mined output with ground truth.
	EvaluateAccuracy = metrics.Evaluate
)

// ExactCounter counts true supports on unperturbed data.
type ExactCounter = mining.ExactCounter

// GammaCounter reconstructs supports under gamma-diagonal perturbation.
type GammaCounter = mining.GammaCounter

// LiveCounter is the scheme-polymorphic live ingestion counter: the one
// interface the collection service, query engine, and mining jobs
// program against. Gamma, MASK, and cut-and-paste each implement it
// through a ShardedCounter over their CounterScheme.
type LiveCounter = mining.LiveCounter

// CounterScheme identifies one perturbation scheme's counting contract
// (name, schema, parameters, fingerprint) and constructs its cores.
type CounterScheme = mining.CounterScheme

// GammaScheme, MaskCounterScheme, and CutPasteCounterScheme are the
// three CounterScheme implementations (gamma-diagonal, MASK, and
// cut-and-paste).
type (
	GammaScheme           = mining.GammaScheme
	MaskCounterScheme     = mining.MaskCounterScheme
	CutPasteCounterScheme = mining.CutPasteCounterScheme
)

// PointEstimate is one scheme-reconstructed count estimate with its
// standard error — the shape every scheme's query estimator answers in.
type PointEstimate = mining.PointEstimate

// ShardedCounter is the lock-striped scheme-generic live counter used
// by the collection service's concurrent ingestion path. It carries a
// monotonic snapshot version (Version, SnapshotVersioned) that advances
// with every ingested record, letting callers cache mining results for
// as long as the counter content is provably unchanged — the mechanism
// behind the collection service's asynchronous mining jobs — and
// answers reconstructed supports (Supports) and scheme-correct query
// estimates (Estimates) without scanning records.
type ShardedCounter = mining.ShardedCounter

// MaskCounter reconstructs supports under MASK perturbation.
type MaskCounter = mining.MaskCounter

// CutPasteCounter reconstructs supports under C&P perturbation.
type CutPasteCounter = mining.CutPasteCounter
