package experiments

// Experiment is one table or figure of the paper's evaluation (§12).
type Experiment struct {
	Name string
	// Run regenerates it from seed at the given Monte-Carlo depth and
	// returns the paper-vs-measured table. The per-figure sizes that are
	// not Monte-Carlo depth (trial counts, cycles, sweep ceilings) are
	// fixed here; closed-form tables ignore both arguments.
	Run func(seed int64, runs int) (*Table, error)
}

// All lists every experiment, in the order caraoke-bench prints them.
var All = []Experiment{
	{"fig04", func(seed int64, _ int) (*Table, error) {
		r, err := RunFig04(seed)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"tbl05", func(seed int64, _ int) (*Table, error) {
		r, err := RunTbl05(seed, 100000)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"fig08", func(seed int64, _ int) (*Table, error) {
		r, err := RunFig08(seed, 16)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"fig11", func(seed int64, runs int) (*Table, error) {
		r, err := RunFig11(seed, nil, runs)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"fig12", func(seed int64, _ int) (*Table, error) {
		r, err := RunFig12(seed, 2)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"fig13", func(seed int64, runs int) (*Table, error) {
		r, err := RunFig13(seed, runs)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"fig14", func(seed int64, runs int) (*Table, error) {
		r, err := RunFig14(seed, runs*5)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"fig15", func(seed int64, runs int) (*Table, error) {
		r, err := RunFig15(seed, nil, runs)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"fig16", func(seed int64, runs int) (*Table, error) {
		r, err := RunFig16(seed, nil, runs, 200)
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
	{"tbl07", func(int64, int) (*Table, error) { return RunTbl07().Table(), nil }},
	{"tbl09", func(seed int64, _ int) (*Table, error) { return RunTbl09(seed).Table(), nil }},
	{"tbl12", func(int64, int) (*Table, error) {
		r, err := RunTbl12()
		if err != nil {
			return nil, err
		}
		return r.Table(), nil
	}},
}
