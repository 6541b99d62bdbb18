package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/encoding"
	"repro/internal/experiments"
)

// Sizes of the generated inputs. The serve-cold pool holds
// coldBatches*batchItems = 16384 distinct queries, four times the
// 4096-entry result cache of a shard, so cycling through it in order
// never finds an entry again before the LRU evicted it.
const (
	batchItems  = 256
	coldBatches = 64
	allocPool   = 4096
	hotQueries  = 64
	windowObs   = 8 // observations per online-adapt window = -finetune-min-samples
	ringCap     = 64
)

var (
	servedJobs = []string{"grep", "pagerank", "sgd", "sort"}
	servedEnvs = []string{"c3o", "bell"}
	// hotScaleOuts are the scale-outs of the repeated queries; the first
	// one is the online-adapt probe, all eight make up an observation
	// window.
	hotScaleOuts = []int{8, 2, 3, 4, 6, 9, 10, 12}
	// reuseKs are the fine-tune sample counts of train-reuse; quality is
	// reported at quality K.
	reuseKs        = []int{1, 2, 3, 4, 6}
	qualityK       = 3
	reuseTargets   = 6
	reuseSplits    = 3
	reuseJob       = "sgd"
	novelSizeBase  = 50000
	coldSizeBase   = 2000
	allocSizeBase  = 20000
	sizePlaceholer = "@@SIZE@@"
)

// servedKey is one (job, env) model key with the fixed execution
// context its repeated queries describe.
type servedKey struct {
	Job, Env string
	Ctx      *dataset.Context
}

// novelTemplate is a marshalled predict body split around the dataset
// size, so a connection builds a never-seen query with two appends.
type novelTemplate struct{ prefix, suffix []byte }

// reuseFit is one unit of train-reuse work: fine-tune a clone of the
// general model on the split's training points of one target context.
type reuseFit struct {
	Target *dataset.Context
	K      int
	Split  experiments.Split
}

// inputs is everything a run feeds the system, generated from the seed
// alone: the same seed gives the same bytes.
type inputs struct {
	Seed      int64
	C3O, Bell *dataset.Dataset
	Keys      []servedKey

	HotReqs   []api.PredictRequest // hotQueries repeated queries, key-major
	Hot       [][]byte
	ColdReqs  [][]api.PredictRequest // coldBatches x batchItems
	Cold      [][]byte
	AllocReqs []api.AllocateRequest
	Alloc     [][]byte
	Novel     []novelTemplate // per key x scale-out, same order as HotReqs
	// ObsFactors are how far (1.1-1.3) the runtimes an online-adapt
	// window reports lie from the served predictions; see
	// observedRuntime.
	ObsFactors []float64

	ReuseCorpus  []core.Sample // general corpus: reuseJob minus the targets
	ReuseTargets []*dataset.Context
	ReuseFits    []reuseFit
}

func apiProps(ps []encoding.Property) []api.Property {
	out := make([]api.Property, len(ps))
	for i, p := range ps {
		out[i] = api.Property{Name: p.Name, Value: p.Value}
	}
	return out
}

func predictRequest(k servedKey, ctx *dataset.Context, scaleOut int) api.PredictRequest {
	return api.PredictRequest{
		Job: k.Job, Env: k.Env, ScaleOut: scaleOut,
		Essential: apiProps(ctx.EssentialProps()),
		Optional:  apiProps(ctx.OptionalProps()),
	}
}

// withSize returns a copy of ctx describing a dataset of sizeMB.
func withSize(ctx *dataset.Context, sizeMB int) *dataset.Context {
	c := *ctx
	c.DatasetSizeMB = sizeMB
	return &c
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("bench: marshalling generated input: %v", err))
	}
	return b
}

// inputParts selects which pools generateInputs builds beyond the
// datasets, the keys and the repeated queries every serve workload
// needs. A workload generates only what it sends, so its set-up time and
// the benchmark's own footprint do not carry another workload's pools.
type inputParts uint

const (
	partCold  inputParts = 1 << iota // the serve-cold batch and allocation pools
	partReuse                        // the train-reuse corpus, targets and splits
	allParts  = partCold | partReuse
)

// generateInputs builds the inputs of the selected parts from seed. Each
// part draws from its own generator, so what one part holds does not
// depend on which others were built.
func generateInputs(seed int64, parts inputParts) *inputs {
	in := &inputs{
		Seed: seed,
		C3O:  dataset.GenerateC3O(dataset.SimConfig{Seed: seed}),
		Bell: dataset.GenerateBell(dataset.SimConfig{Seed: seed + 1}),
	}
	rng := rand.New(rand.NewSource(seed))

	// One fixed context per key: the environment's own context of the job
	// where the simulator has one, else one of the job's C3O contexts.
	for _, job := range servedJobs {
		for _, env := range servedEnvs {
			ds := in.C3O
			if env == string(dataset.EnvBell) && len(in.Bell.Contexts(job)) > 0 {
				ds = in.Bell
			}
			ctxs := ds.Contexts(job)
			in.Keys = append(in.Keys, servedKey{Job: job, Env: env, Ctx: ctxs[rng.Intn(len(ctxs))]})
		}
	}

	for _, k := range in.Keys {
		for _, x := range hotScaleOuts {
			req := predictRequest(k, k.Ctx, x)
			in.HotReqs = append(in.HotReqs, req)
			in.Hot = append(in.Hot, mustMarshal(req))

			tmpl := req
			tmpl.Essential = append([]api.Property(nil), req.Essential...)
			tmpl.Essential[0].Value = sizePlaceholer
			b := mustMarshal(tmpl)
			i := bytes.Index(b, []byte(sizePlaceholer))
			in.Novel = append(in.Novel, novelTemplate{
				prefix: b[:i:i],
				suffix: b[i+len(sizePlaceholer):],
			})
		}
	}

	for w := 0; w < 64; w++ {
		in.ObsFactors = append(in.ObsFactors, 1.1+0.2*rng.Float64())
	}
	if parts&partCold != 0 {
		in.generateCold(rand.New(rand.NewSource(seed ^ 0x636f6c64)))
	}
	if parts&partReuse != 0 {
		in.generateReuse(rand.New(rand.NewSource(seed ^ 0x7265757365)))
	}
	return in
}

// generateCold builds the serve-cold pools: batches of distinct queries
// and allocation requests for contexts nothing else names.
func (in *inputs) generateCold(rng *rand.Rand) {
	for b := 0; b < coldBatches; b++ {
		reqs := make([]api.PredictRequest, batchItems)
		for j := range reqs {
			g := b*batchItems + j
			k := in.Keys[g%len(in.Keys)]
			reqs[j] = predictRequest(k, withSize(k.Ctx, coldSizeBase+g), 2+rng.Intn(11))
		}
		in.ColdReqs = append(in.ColdReqs, reqs)
		in.Cold = append(in.Cold, mustMarshal(api.BatchRequest{Requests: reqs}))
	}

	for i := 0; i < allocPool; i++ {
		k := in.Keys[i%len(in.Keys)]
		ctx := withSize(k.Ctx, allocSizeBase+i)
		req := api.AllocateRequest{
			Job: k.Job, Env: k.Env,
			Essential:       apiProps(ctx.EssentialProps()),
			Optional:        apiProps(ctx.OptionalProps()),
			MinScaleOut:     1,
			MaxScaleOut:     64,
			DeadlineSec:     200 + 1800*rng.Float64(),
			CostPerNodeHour: 0.1 + rng.Float64(),
		}
		in.AllocReqs = append(in.AllocReqs, req)
		in.Alloc = append(in.Alloc, mustMarshal(req))
	}
}

// generateReuse picks the train-reuse targets and their splits.
func (in *inputs) generateReuse(rng *rand.Rand) {
	ctxs := in.C3O.Contexts(reuseJob)
	isTarget := map[string]bool{}
	for _, i := range rng.Perm(len(ctxs))[:reuseTargets] {
		in.ReuseTargets = append(in.ReuseTargets, ctxs[i])
		isTarget[ctxs[i].ID] = true
	}
	var general []dataset.Execution
	for _, e := range in.C3O.ForJob(reuseJob) {
		if !isTarget[e.Context.ID] {
			general = append(general, e)
		}
	}
	in.ReuseCorpus = core.SamplesFromExecutions(general)
	for _, t := range in.ReuseTargets {
		execs := in.C3O.ForContext(t.ID)
		for _, k := range reuseKs {
			splits, err := experiments.GenerateSplits(execs, k, reuseSplits, rng)
			if err != nil {
				// The C3O grid has six scale-outs and every k here is at most
				// six, so a split always exists.
				panic(fmt.Sprintf("bench: splitting %s at k=%d: %v", t.ID, k, err))
			}
			for _, sp := range splits {
				in.ReuseFits = append(in.ReuseFits, reuseFit{Target: t, K: k, Split: sp})
			}
		}
	}
}

// observedRuntime is the runtime window w reports for its i-th query
// when the served model predicts pred: the run-to-run noise of a model
// that is right on average, 10-30 % above on even queries and the same
// factor below on odd ones. A fine-tune on such a ring has nothing to
// gain, so it stops on its patience after the same number of epochs
// whatever the seed — the adaptation machinery is timed, not the luck of
// a convergence — while the slight upward pull of the geometric pairs
// still changes the answers, which is how a window sees its swap.
func (in *inputs) observedRuntime(w, i int, pred float64) float64 {
	f := in.ObsFactors[w%len(in.ObsFactors)]
	if i%2 == 1 {
		f = 1 / f
	}
	return math.Max(pred*f, 1)
}

// servedCorpus is the pre-training corpus of one served job: its C3O
// executions plus its Bell executions where the private cluster ran it.
func (in *inputs) servedCorpus(job string) []core.Sample {
	execs := append(in.C3O.ForJob(job), in.Bell.ForJob(job)...)
	return core.SamplesFromExecutions(execs)
}

// A stream is the deterministic request sequence of one connection: the
// n-th call returns the n-th request. The body may alias buf.
type stream func(n int, buf []byte) request

// request is one HTTP call the driver makes.
type request struct {
	Op   string // metric family: predict, batch, allocate, observe
	Path string
	Body []byte
	// Ref identifies the generated input the answer is checked against
	// (index into the pool the Op draws from; -1 for a novel query).
	Ref int
}

// hotStream cycles the repeated queries, each connection starting a
// fraction of the cycle apart.
func (in *inputs) hotStream(conn, conns int) stream {
	off := conn * len(in.Hot) / conns
	return func(n int, _ []byte) request {
		i := (off + n) % len(in.Hot)
		return request{Op: "predict", Path: "/v1/predict", Body: in.Hot[i], Ref: i}
	}
}

// coldStream sends four pool batches, then one allocation for a context
// no request named before; connections interleave the pools.
func (in *inputs) coldStream(conn, conns int) stream {
	return func(n int, _ []byte) request {
		if n%5 == 4 {
			i := (conn + conns*(n/5)) % len(in.Alloc)
			return request{Op: "allocate", Path: "/v1/allocate", Body: in.Alloc[i], Ref: i}
		}
		i := (conn + conns*(n-n/5)) % len(in.Cold)
		return request{Op: "batch", Path: "/v1/predict/batch", Body: in.Cold[i], Ref: i}
	}
}

// mixedStream is connection B of online-adapt: repeated queries on even
// calls, never-seen ones (same key and scale-out, fresh dataset size)
// on odd calls.
func (in *inputs) mixedStream() stream {
	return func(n int, buf []byte) request {
		i := (n / 2) % len(in.Hot)
		if n%2 == 0 {
			return request{Op: "predict", Path: "/v1/predict", Body: in.Hot[i], Ref: i}
		}
		t := in.Novel[i]
		buf = append(buf[:0], t.prefix...)
		buf = strconv.AppendInt(buf, int64(novelSizeBase+n/2), 10)
		buf = append(buf, t.suffix...)
		return request{Op: "predict", Path: "/v1/predict", Body: buf, Ref: -1}
	}
}
