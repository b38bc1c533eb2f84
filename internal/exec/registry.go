package exec

import (
	"fmt"
	"sort"
	"sync"

	"capuchin/internal/graph"
	"capuchin/internal/hw"
)

// BuildContext carries everything a registered policy may consult while
// constructing itself. Graph is nil on the dynamic-shape path, where the
// graph changes per shape signature; only graph-agnostic policies are
// built there.
//
// Spare, when non-nil, is a policy no one runs or inspects any more,
// typically the one a parked session kept (Session.Park). A Build that
// recognizes its own kind may reset it in place and return it, reusing
// its buffers, instead of allocating a new policy; a recycled policy
// must behave exactly like a new one. A Build may also ignore it.
type BuildContext struct {
	Graph  *graph.Graph
	Device hw.DeviceSpec
	Spare  Policy
}

// PolicySpec describes one registered memory-management policy: its
// canonical name (the bench System string), the executor couplings it
// requires, and a constructor. Policy packages self-register from init(),
// so adding a rival policy to every CLI, experiment and conformance suite
// is one RegisterPolicy call.
type PolicySpec struct {
	// Name is the canonical system name ("vdnn", "capuchin", "dtr", ...).
	Name string
	// Doc is a one-line description for CLI help and the README table.
	Doc string
	// GraphAgnostic marks policies driven purely by the access stream
	// (TF-ori, the Capuchin variants): they follow dynamic shape
	// schedules, while graph-keyed policies are rejected there.
	GraphAgnostic bool
	// CoupledSwap and CollectiveRecompute are the executor couplings the
	// policy's published design assumes (vDNN synchronizes layer-wise;
	// the recomputing baselines retain replay intermediates).
	CoupledSwap         bool
	CollectiveRecompute bool
	// Arena opts the policy into the -exp arena tournament. Ablation
	// variants (capuchin-swap, ...) stay out: they are breakdowns of one
	// system, not rivals, and have their own experiment.
	Arena bool
	// Build constructs a fresh policy instance for one session.
	Build func(BuildContext) (Policy, error)
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]PolicySpec)
)

// RegisterPolicy adds a policy to the registry. It panics on a duplicate
// or malformed spec — registration happens at init() time, where a panic
// is a build error, not a runtime hazard.
func RegisterPolicy(spec PolicySpec) {
	if spec.Name == "" || spec.Build == nil {
		panic("exec: RegisterPolicy needs a name and a Build func")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[spec.Name]; dup {
		panic(fmt.Sprintf("exec: policy %q registered twice", spec.Name))
	}
	registry[spec.Name] = spec
}

// LookupPolicy returns the spec registered under name.
func LookupPolicy(name string) (PolicySpec, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	spec, ok := registry[name]
	return spec, ok
}

// UsePolicy builds the policy registered as name for graph g (nil on the
// dynamic path) and c.Device, and installs it in c with the executor
// couplings its spec asks for. spare, when non-nil, is handed to the
// build as BuildContext.Spare; the caller must not use it again. It is
// the one place where a registry entry becomes an executor
// configuration.
func (c *Config) UsePolicy(name string, g *graph.Graph, spare Policy) error {
	spec, ok := LookupPolicy(name)
	if !ok {
		return fmt.Errorf("exec: unknown policy %q", name)
	}
	pol, err := spec.Build(BuildContext{Graph: g, Device: c.Device, Spare: spare})
	if err != nil {
		return fmt.Errorf("exec: building policy %q: %w", name, err)
	}
	c.Policy, c.CoupledSwap, c.CollectiveRecompute = pol, spec.CoupledSwap, spec.CollectiveRecompute
	return nil
}

// PolicyNames lists every registered policy name in sorted order.
func PolicyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ArenaPolicyNames lists the policies competing in the arena tournament:
// the no-management baseline first, then the rivals in sorted order.
func ArenaPolicyNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	var names []string
	for n, spec := range registry {
		if spec.Arena && n != "tf-ori" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	if spec, ok := registry["tf-ori"]; ok && spec.Arena {
		names = append([]string{"tf-ori"}, names...)
	}
	return names
}

func init() {
	RegisterPolicy(PolicySpec{
		Name:          "tf-ori",
		Doc:           "original framework: no memory management, OOM is fatal",
		GraphAgnostic: true,
		Arena:         true,
		Build:         func(BuildContext) (Policy, error) { return NullPolicy{}, nil },
	})
}
