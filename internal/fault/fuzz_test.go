package fault

import "testing"

// FuzzParsePlan feeds arbitrary -faults specs to ParsePlan, the parser
// behind every CLI flag and serve request that carries a fault plan. It
// must never panic, and every plan it accepts must be valid and
// round-trip through its canonical String form to an equal plan.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"", "off", "default", "default,seed=7",
		"seed=42,transfer=0.05,retries=2,backoff=12.5",
		"degrade=4,degrade-period=40,degrade-window=8",
		"degrade-window=3,degrade=2",
		"kernel=0.01,kernel-factor=2.5,alloc=0.001,host=0.5",
		"transfer=1e-300", "backoff=0.001", "seed=18446744073709551615",
		"transfer=NaN", "kernel-factor=+Inf", "backoff=1e300", "degrade-period=9e15",
		"backoff=1125899906842.624", // exactly maxPlanTime
		" seed = 1 ", "retries=-1", "bogus=1", "seed",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("ParsePlan(%q) accepted an invalid plan %+v: %v", spec, p, err)
		}
		s := p.String()
		got, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q) = %+v, whose String %q does not re-parse: %v", spec, p, s, err)
		}
		if got != p {
			t.Fatalf("ParsePlan(%q) round trip through %q:\n want %+v\n got  %+v", spec, s, p, got)
		}
	})
}
